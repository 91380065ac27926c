"""Joint ordered factorisations: validation, enumeration, closed-form count."""

import random
import sys
import time
from math import factorial, prod

import pytest

from sumsystems import jof
from sumsystems.arith import nontrivial_divisor
from sumsystems.counting import brute_force_count
from sumsystems.jof import count_for_tuple, enumerate_jofs, ordered_factorisations
from sumsystems.shape import (
    CapExceeded,
    infer_parts,
    jof_to_pairs,
    jof_to_text,
    parse_jof_text,
    validate,
)

from oracles import (
    cartesian_tuple_count,
    egf_convolution_tuple_count,
    naive_ordered_factorisations,
    seed_enumerate_jofs,
)

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


# Tuples with JOF counts at and around multiples of jof._CHUNK (256), as
# counts are sparse: no tuple with N <= 256 has from 253 to 279 JOFs, or
# from 505 to 559, and no tuple of 2, 3, 4 or 5 parts below 1200, 150, 40
# or 16 has 255, 257 or 511.
CHUNK_EDGES = {
    (6, 240): 250, (4, 960): 252, (8, 210): 256, (210, 8): 256, (4, 720): 270,
    (6, 840): 508, (30, 128): 512, (128, 30): 512, (16, 72): 525,
}


class TestWalkAgainstSeed:
    """The pruned, chunked walk gives the seed walk's lists, in order."""

    def test_every_ordered_tuple_up_to_256(self):
        for n in range(2, 257):
            for m in range(1, 9):
                for parts in ordered_factorisations(n, m):
                    assert enumerate_jofs(parts) == seed_enumerate_jofs(parts), parts

    @pytest.mark.parametrize("parts", list(CHUNK_EDGES), ids=str)
    def test_at_chunk_edges(self, parts):
        found = enumerate_jofs(parts)
        assert len(found) == CHUNK_EDGES[parts] == count_for_tuple(parts)
        assert found == seed_enumerate_jofs(parts)

    @pytest.mark.parametrize("parts", list(CHUNK_EDGES), ids=str)
    def test_chunks_are_full_but_the_last(self, parts):
        sizes = []
        jof._walk(parts, lambda chunk: sizes.append(len(chunk)))
        full, rest = divmod(CHUNK_EDGES[parts], jof._CHUNK)
        assert sizes == [jof._CHUNK] * full + ([rest] if rest else [])


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

    def test_matches_naive_enumeration(self):
        for n in range(1, 513):
            for m in range(1, 11):
                assert ordered_factorisations(n, m) == naive_ordered_factorisations(n, m), (n, m)

    def test_more_parts_than_prime_factors_in_bounded_time(self):
        # the walk used to try every ordered factorisation into fewer parts
        # first: 2^25 into 26 parts took 16.8 s to return []
        start = time.perf_counter()
        assert ordered_factorisations(2**62, 63) == []
        assert time.perf_counter() - start < 1
        start = time.perf_counter()
        assert brute_force_count(2**62, 63).value == 0
        assert time.perf_counter() - start < 1

    def test_as_many_parts_as_prime_factors(self):
        assert ordered_factorisations(2**62, 62) == [(2,) * 62]


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

    def test_matches_cartesian_sum_exhaustively(self):
        # every part's series is read from its largest exponent to Omega only
        pairs = [(a, b) for a in range(2, 37) for b in range(2, 37)]
        triples = [(a, b, c) for a in range(2, 17) for b in range(2, 17) for c in range(2, 17)]
        for parts in pairs + triples:
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


WORST = 8677099422351360000  # signature (25, 10, 4, 2, 1, 1), Omega 43
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def partitions(total, largest):
    """Partitions of total into parts <= largest, in descending order."""
    if total == 0:
        yield ()
        return
    for e in range(min(total, largest), 0, -1):
        for rest in partitions(total - e, e):
            yield (e,) + rest


# 40 values of Omega 16 with distinct signatures, none a prime power
DISTINCT = [
    prod(p**e for p, e in zip(PRIMES, signature))
    for signature in partitions(16, 15)
    if len(signature) <= len(PRIMES)
][:40]


def recording_power_product(monkeypatch):
    """Patch the power recurrence with one that records the copies of each
    signature it is given."""
    calls = []
    power = jof._power_product

    def recorded(groups):
        calls.append(sorted(k for _, k in groups))
        return power(groups)

    monkeypatch.setattr(jof, "_power_product", recorded)
    return calls


class TestCountRoutes:
    """count_for_tuple from scaled integer series, against the binomial EGF
    convolution it replaced: plain products, the power recurrence for
    signatures with many copies, and the multinomial of prime powers."""

    def test_matches_the_convolution_oracle(self):
        pool = [2, 4, 6, 12, 30, 64, 360, 720720, 3**39, 2**62,
                97772875200, WORST, 2 * 3**30, 6**20]
        rng = random.Random(211)
        for _ in range(150):
            parts = tuple(rng.choice(pool) for _ in range(rng.randrange(1, 8)))
            assert count_for_tuple(parts) == egf_convolution_tuple_count(parts), parts

    def test_matches_the_cartesian_sum_with_repeats(self):
        # up to 3 values, each repeated up to 2 * _SPLIT + 1 times
        rng = random.Random(223)
        for _ in range(40):
            values = rng.sample([4, 6, 8, 10, 12, 18], rng.randrange(1, 4))
            parts = [n for n in values for _ in range(rng.randrange(1, 2 * jof._SPLIT + 2))]
            rng.shuffle(parts)
            parts = tuple(parts[:8])
            assert count_for_tuple(parts) == cartesian_tuple_count(parts), parts

    @pytest.mark.parametrize("value", [12, 720720, 97772875200, WORST])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_one_signature_around_the_split(self, monkeypatch, value, offset):
        copies = jof._SPLIT + offset
        parts = (value,) * copies + (6, 2**62, 10)
        calls = recording_power_product(monkeypatch)
        assert count_for_tuple(parts) == egf_convolution_tuple_count(parts)
        assert calls == ([[copies]] if copies >= jof._SPLIT else [])

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_two_signatures_around_the_split(self, monkeypatch, offset):
        # the second signature takes the recurrence from 2 * _SPLIT copies
        copies = 2 * jof._SPLIT + offset
        parts = (720720, 97772875200) * copies + (12,)
        calls = recording_power_product(monkeypatch)
        assert count_for_tuple(parts) == egf_convolution_tuple_count(parts)
        assert calls == ([[copies, copies]] if offset == 0 else [[copies]])

    def test_prime_powers_are_a_multinomial(self, monkeypatch):
        def no_polynomial(*args):
            raise AssertionError("a prime-power tuple multiplied polynomials")

        monkeypatch.setattr(jof, "_product", no_polynomial)
        monkeypatch.setattr(jof, "_power_product", no_polynomial)
        rng = random.Random(227)
        for _ in range(100):
            omegas = [rng.randrange(1, 63) for _ in range(rng.randrange(1, 9))]
            parts = tuple(rng.choice((2, 3, 5)) ** e if e <= 27 else 2**e for e in omegas)
            expected = factorial(sum(omegas)) // prod(map(factorial, omegas))
            assert count_for_tuple(parts) == expected
        assert count_for_tuple((2**62,) * 3) == egf_convolution_tuple_count((2**62,) * 3)

    def test_long_tuples(self):
        # linear in the number of parts: n! for n parts of 2, and one
        # recurrence for many copies of the worst signature
        assert count_for_tuple((2,) * 3000) == factorial(3000)
        parts = (WORST,) * 24
        assert count_for_tuple(parts) == egf_convolution_tuple_count(parts)

    @pytest.mark.parametrize("groups, copies", [(40, 1), (40, 2), (40, 3), (20, 4)])
    def test_no_slower_than_the_convolution(self, monkeypatch, groups, copies):
        # Many distinct signatures with few copies each.  Sending every
        # repeated signature through the recurrence took up to 3 times the
        # oracle's time here, and plain products about a fifth of it
        # (Python 3.11)
        calls = recording_power_product(monkeypatch)
        parts = tuple(n for n in DISTINCT[:groups] for _ in range(copies))
        start = time.perf_counter()
        expected = egf_convolution_tuple_count(parts)
        oracle = time.perf_counter() - start
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            assert count_for_tuple(parts) == expected
            best = min(best, time.perf_counter() - start)
        assert best <= oracle, (best, oracle)
        assert calls == ([[copies]] * 3 if copies >= jof._SPLIT else [])


class TestCapByOrders:
    def test_refused_by_m_factorial_before_counting(self, monkeypatch):
        def no_count(parts):
            raise AssertionError("counted")

        monkeypatch.setattr(jof, "count_for_tuple", no_count)
        with pytest.raises(CapExceeded):
            enumerate_jofs([2] * 20)  # 20! > 10^6
        with pytest.raises(CapExceeded):
            enumerate_jofs((2, 2, 2), cap=5)
        with pytest.raises(CapExceeded):
            enumerate_jofs((WORST,) * 10**5, cap=10**9)

    def test_m_factorial_at_the_cap_enumerates(self):
        assert len(enumerate_jofs((2, 2, 2), cap=6)) == 6


class TestDepthRefusal:
    """_walk recurses once per JOF entry, so a tuple whose JOFs may have more
    entries than half the recursion limit is refused, after the caps."""

    def test_refused_before_any_jof(self):
        depth = sys.getrecursionlimit() // 2
        with pytest.raises(ValueError, match=f"more than {depth} entries"):
            enumerate_jofs([2**62] * (depth // 62 + 1), cap=10**5000)

    def test_bound_is_half_the_recursion_limit(self):
        depth = sys.getrecursionlimit() // 2
        parts = (2**62,) * (depth // 62) + (2 ** (depth % 62),) * (depth % 62 > 0)
        assert jof._counted(parts, 10**5000)[0] == parts
        with pytest.raises(ValueError):
            jof._counted(parts + (2,), 10**5000)

    def test_caps_are_checked_first(self):
        # 9! is below the default cap and the count is not; the JOFs may
        # have 558 entries, past half the default recursion limit of 1000
        with pytest.raises(CapExceeded):
            enumerate_jofs([2**62] * 9)


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
