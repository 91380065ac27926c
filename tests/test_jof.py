"""Joint ordered factorisations: validation, enumeration, closed-form count."""

import random

import pytest

from sumsystems.arith import nontrivial_divisor
from sumsystems.jof import (
    CapExceeded,
    count_for_tuple,
    enumerate_jofs,
    infer_parts,
    jof_to_pairs,
    jof_to_text,
    ordered_factorisations,
    parse_jof_text,
    partial_products,
    validate,
)

from oracles import cartesian_tuple_count

WORKED_JOF = ((1, 3), (3, 3), (1, 3), (3, 2), (2, 5))


class TestValidate:
    def test_accepts_worked_example(self):
        assert validate(WORKED_JOF, (9, 5, 6)) == (True, None)

    def test_adjacent_same_part(self):
        ok, reason = validate(((1, 2), (1, 2)), (4,))
        assert not ok
        assert "same part" in reason

    def test_product_mismatch(self):
        ok, reason = validate(((1, 2), (2, 3)), (2, 2))
        assert not ok
        assert "part 2" in reason

    def test_factor_below_two(self):
        ok, reason = validate(((1, 1), (2, 2)), (2, 2))
        assert not ok
        assert "factor" in reason

    def test_part_out_of_range(self):
        ok, reason = validate(((3, 2),), (2,))
        assert not ok
        assert "part 3" in reason

    def test_empty_jof(self):
        ok, reason = validate((), (2,))
        assert not ok

    def test_garbage_never_raises(self):
        for bad in (((1,),), (("a", 2),), ((1, 2, 3),), 17, (None,)):
            ok, _ = validate(bad, (4,))
            assert not ok
        ok, _ = validate(((1, 2),), "nope")
        assert not ok

    def test_lists_accepted(self):
        assert validate([[1, 2], [2, 2]], [2, 2]) == (True, None)


# One fault each: the JOF, a target tuple, the reason validate gives against
# that tuple, and what infer_parts gives (its reason, or the inferred tuple
# where the fault needs a target to show).
SINGLE_FAULTS = [
    ("not a sequence", 17, (2,), "a JOF is a sequence of (part, factor) pairs",
     "a JOF is a sequence of (part, factor) pairs"),
    ("entry not a sequence", ((1, 2), None), (2,), "a JOF is a sequence of (part, factor) pairs",
     "a JOF is a sequence of (part, factor) pairs"),
    ("empty", (), (2,), "a JOF needs at least one entry", "a JOF needs at least one entry"),
    ("not a pair", ((1, 2), (2, 3, 1)), (2, 3), "entry 2 is not a (part, factor) pair of integers",
     "entry 2 is not a (part, factor) pair of integers"),
    ("non-int", ((1, 2), (2, "3")), (2, 3), "entry 2 is not a (part, factor) pair of integers",
     "entry 2 is not a (part, factor) pair of integers"),
    ("bool", ((True, 2),), (2,), "entry 1 is not a (part, factor) pair of integers",
     "entry 1 is not a (part, factor) pair of integers"),
    ("part < 1", ((1, 2), (0, 3)), (2,), "entry 2 names part 0; parts are numbered from 1",
     "entry 2 names part 0; parts are numbered from 1"),
    ("factor < 2", ((1, 2), (2, 3), (1, 1)), (2, 3), "entry 3 has factor 1; factors must be >= 2",
     "entry 3 has factor 1; factors must be >= 2"),
    ("part beyond the tuple", ((1, 2), (2, 2)), (2,),
     "entry 2 names part 2, but the tuple has 1 parts", (2, 2)),
    ("same part twice in a row", ((1, 2), (1, 3)), (6,),
     "entries 1 and 2 name the same part 1", "entries 1 and 2 name the same part 1"),
    ("product mismatch", ((1, 2), (2, 3)), (2, 2), "part 2 factors multiply to 3, expected 2",
     (2, 3)),
    ("missing part", ((1, 2), (3, 2)), (2, 2, 2), "part 2 factors multiply to 1, expected 2",
     "part 2 never appears (parts run 1..3)"),
]


@pytest.mark.parametrize("jof,parts,reason,inferred",
                         [row[1:] for row in SINGLE_FAULTS],
                         ids=[row[0] for row in SINGLE_FAULTS])
def test_single_fault_reasons(jof, parts, reason, inferred):
    assert validate(jof, parts) == (False, reason)
    if isinstance(inferred, tuple):
        assert infer_parts(jof) == inferred
    else:
        with pytest.raises(ValueError) as info:
            infer_parts(jof)
        assert str(info.value) == inferred


class TestPartialProducts:
    def test_worked_example(self):
        assert partial_products(WORKED_JOF) == (1, 3, 9, 27, 54, 270)

    def test_empty(self):
        assert partial_products(()) == (1,)


class TestInferParts:
    def test_worked_example(self):
        assert infer_parts(WORKED_JOF) == (9, 5, 6)

    def test_missing_part(self):
        with pytest.raises(ValueError, match="part 2"):
            infer_parts(((1, 2), (3, 2)))

    def test_adjacent_same_part(self):
        with pytest.raises(ValueError, match="same part"):
            infer_parts(((1, 2), (1, 2)))

    def test_huge_part_index(self):
        # products are kept by part: no list up to the index is allocated
        with pytest.raises(ValueError) as info:
            infer_parts(((10**12, 2),))
        assert str(info.value) == "part 1 never appears (parts run 1..1000000000000)"
        assert validate(((10**12, 2),), (2,)) == (
            False, "entry 1 names part 1000000000000, but the tuple has 1 parts")

    def test_garbage(self):
        with pytest.raises(ValueError):
            infer_parts((1, 2))
        with pytest.raises(ValueError):
            infer_parts((("x", 2),))


class TestEnumerate:
    def test_two_by_two(self):
        assert enumerate_jofs((2, 2)) == [
            ((1, 2), (2, 2)),
            ((2, 2), (1, 2)),
        ]

    def test_single_part_collapses(self):
        # one part can never split: adjacent entries would share it
        assert enumerate_jofs((12,)) == [((1, 12),)]
        assert enumerate_jofs((97,)) == [((1, 97),)]

    def test_two_six_frozen(self):
        assert enumerate_jofs((2, 6)) == [
            ((1, 2), (2, 6)),
            ((2, 2), (1, 2), (2, 3)),
            ((2, 3), (1, 2), (2, 2)),
            ((2, 6), (1, 2)),
        ]

    def test_output_is_lexicographic(self):
        for parts in ((2, 6), (4, 4), (2, 2, 3), (8, 3), (9, 5, 6)):
            out = enumerate_jofs(parts)
            assert out == sorted(out)
            assert len(set(out)) == len(out)

    def test_everything_validates(self):
        for parts in ((2, 2), (2, 6), (4, 4), (2, 2, 2), (9, 5, 6), (12, 10)):
            for found in enumerate_jofs(parts):
                assert validate(found, parts) == (True, None)

    def test_worked_example_is_enumerated(self):
        assert WORKED_JOF in enumerate_jofs((9, 5, 6))

    def test_cap_is_an_error_not_truncation(self):
        with pytest.raises(CapExceeded) as info:
            enumerate_jofs((2, 2), cap=1)
        assert info.value.cap == 1
        assert len(enumerate_jofs((2, 2), cap=2)) == 2

    def test_rejects_bad_tuples(self):
        for bad in ((), (1,), (2, 1), (2, "4"), (0,)):
            with pytest.raises(ValueError):
                enumerate_jofs(bad)


class TestOrderedFactorisations:
    def test_frozen(self):
        assert ordered_factorisations(12, 2) == [(2, 6), (3, 4), (4, 3), (6, 2)]
        assert ordered_factorisations(12, 1) == [(12,)]
        assert ordered_factorisations(7, 2) == []
        assert ordered_factorisations(8, 3) == [(2, 2, 2)]

    def test_counts_match_divisor_function(self):
        for n in range(1, 150):
            for m in range(1, 5):
                found = ordered_factorisations(n, m)
                assert len(found) == nontrivial_divisor(m, n)
                for parts in found:
                    product = 1
                    for p in parts:
                        product *= p
                    assert product == n
                    assert all(p >= 2 for p in parts)


class TestCountForTuple:
    def test_frozen(self):
        assert count_for_tuple((2, 6)) == 4
        assert count_for_tuple((4, 4)) == 6
        assert count_for_tuple((9, 5, 6)) == 48
        assert count_for_tuple((12,)) == 1
        assert count_for_tuple((2, 2)) == 2

    def test_matches_enumeration_exhaustively(self):
        for n in range(2, 73):
            for m in range(1, 4):
                for parts in ordered_factorisations(n, m):
                    assert count_for_tuple(parts) == len(enumerate_jofs(parts)), parts

    def test_matches_enumeration_random(self):
        rng = random.Random(53)
        for _ in range(150):
            m = rng.randrange(1, 4)
            parts = tuple(rng.randrange(2, 13) for _ in range(m))
            assert count_for_tuple(parts) == len(enumerate_jofs(parts))

    def test_matches_cartesian_sum(self):
        # reference: one term per vector of factor counts, prod Omega(n_j) of them
        rng = random.Random(67)
        for _ in range(300):
            parts = tuple(rng.randrange(2, 257) for _ in range(rng.randrange(1, 6)))
            assert count_for_tuple(parts) == cartesian_tuple_count(parts), parts

    def test_frozen_large(self):
        # 8**6 vectors on the cartesian route; the EGF product takes six steps
        assert count_for_tuple((256,) * 6) == 2889253496242619386328267523990000

    def test_invariant_under_permutation(self):
        rng = random.Random(59)
        for _ in range(80):
            m = rng.randrange(2, 5)
            parts = [rng.randrange(2, 11) for _ in range(m)]
            shuffled = parts[:]
            rng.shuffle(shuffled)
            assert count_for_tuple(tuple(parts)) == count_for_tuple(tuple(shuffled))

    def test_enumeration_permutes_with_the_tuple(self):
        # relabelling parts by any permutation gives a bijection of JOFs
        rng = random.Random(61)
        for _ in range(40):
            m = rng.randrange(2, 4)
            parts = tuple(rng.randrange(2, 9) for _ in range(m))
            perm = list(range(m))
            rng.shuffle(perm)
            permuted = tuple(parts[perm[j]] for j in range(m))
            relabel = {perm[j] + 1: j + 1 for j in range(m)}
            relabelled = sorted(
                tuple((relabel[part], factor) for part, factor in found)
                for found in enumerate_jofs(parts)
            )
            assert relabelled == enumerate_jofs(permuted)

    def test_rejects_bad_tuples(self):
        for bad in ((), (1,), (2, 1)):
            with pytest.raises(ValueError):
                count_for_tuple(bad)


class TestTwelveStartingWithPartOne:
    def test_seven_two_part_jofs(self):
        # across all two-part tuples with product 12 there are exactly seven
        # JOFs whose first entry names part 1, and doubling them by the part
        # swap gives all fourteen
        expected = {
            ((1, 2), (2, 6)),
            ((1, 6), (2, 2)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
            ((1, 2), (2, 3), (1, 2)),
            ((1, 3), (2, 2), (1, 2)),
            ((1, 2), (2, 2), (1, 3)),
        }
        starting_with_one = set()
        total = 0
        for parts in ordered_factorisations(12, 2):
            for found in enumerate_jofs(parts):
                total += 1
                if found[0][0] == 1:
                    starting_with_one.add(found)
        assert starting_with_one == expected
        assert total == 14


class TestTextForms:
    def test_parse_worked_example(self):
        assert parse_jof_text("1:3,3:3,1:3,3:2,2:5") == WORKED_JOF
        assert parse_jof_text(" 1:3 , 3:3 , 1:3 , 3:2 , 2:5 ") == WORKED_JOF

    def test_parse_json_form(self):
        assert parse_jof_text("[[1, 3], [3, 3], [1, 3], [3, 2], [2, 5]]") == WORKED_JOF

    def test_round_trip(self):
        text = jof_to_text(WORKED_JOF)
        assert text == "1:3,3:3,1:3,3:2,2:5"
        assert parse_jof_text(text) == WORKED_JOF
        assert jof_to_pairs(WORKED_JOF) == [[1, 3], [3, 3], [1, 3], [3, 2], [2, 5]]

    def test_parse_errors(self):
        for bad in ("", "1:banana", "1-3", "1:3,,2:2", "[[1]]", "[1, 2]", "[[0,2]]", "1:1"):
            with pytest.raises(ValueError):
                parse_jof_text(bad)

    def test_parse_too_deep(self):
        with pytest.raises(ValueError, match="^bad JOF JSON: "):
            parse_jof_text("[" * 100_000)
