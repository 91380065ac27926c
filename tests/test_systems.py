"""Construction, centring, verification and the two invariant statistics."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumsystems import systems, verify
from sumsystems.invariants import sigma_a, tau_c
from sumsystems.systems import (
    CentredSumSystem,
    SumAndDistanceSystem,
    SumSystem,
    build_centred,
    build_sum_system,
    centre,
    from_sum_and_distance,
    jof_of_system,
    system_from_json,
    system_to_json,
    to_sum_and_distance,
)
from sumsystems.shape import validate
from sumsystems.verify import verify_centred, verify_sum_system

from oracles import (
    all_jofs_up_to,
    brute_minkowski,
    seed_blow_up,
    seed_centre,
    seed_centred_fault,
    seed_certified,
    seed_symmetric,
    set_fold_verify,
)

# two three-part systems for 270, from the same cardinalities (9, 5, 6)
JOF_A = ((1, 3), (3, 3), (1, 3), (3, 2), (2, 5))
JOF_B = ((1, 3), (2, 5), (3, 3), (1, 3), (3, 2))

SYSTEM_A = (
    (0, 1, 2, 9, 10, 11, 18, 19, 20),
    (0, 54, 108, 162, 216),
    (0, 3, 6, 27, 30, 33),
)
CENTRED_A = (
    (-20, -18, -16, -2, 0, 2, 16, 18, 20),
    (-216, -108, 0, 108, 216),
    (-33, -27, -21, 21, 27, 33),
)
CENTRED_B = (
    (-92, -90, -88, -2, 0, 2, 88, 90, 92),
    (-12, -6, 0, 6, 12),
    (-165, -135, -105, 105, 135, 165),
)


class TestBuild:
    def test_worked_example_components(self):
        assert build_sum_system(JOF_A).components == SYSTEM_A

    def test_worked_example_centred(self):
        assert build_centred(JOF_A).components == CENTRED_A

    def test_second_system_centred(self):
        assert build_centred(JOF_B).components == CENTRED_B

    def test_half_integer_flags(self):
        assert build_centred(JOF_A).half_integer == (False, False, True)
        assert build_centred(JOF_B).half_integer == (False, False, True)

    def test_single_entry_jof(self):
        assert build_sum_system(((1, 5),)).components == ((0, 1, 2, 3, 4),)
        assert build_centred(((1, 5),)).components == ((-4, -2, 0, 2, 4),)

    def test_cardinalities_and_n(self):
        s = build_sum_system(JOF_A)
        assert s.cardinalities == (9, 5, 6)
        assert s.N == 270

    def test_centre_equals_direct_build(self):
        for jof in (JOF_A, JOF_B, ((1, 5),), ((1, 2), (2, 2), (1, 3))):
            assert centre(build_sum_system(jof)) == build_centred(jof)

    def test_centre_rejects_non_palindromic(self):
        with pytest.raises(ValueError, match="symmetric about 0"):
            centre(SumSystem(((0, 1, 3),)))
        with pytest.raises(ValueError, match="symmetric about 0"):
            centre(SumSystem(((0, 1), (1, 2))))

    def test_round_trip_exhaustive_small(self):
        # the builders and centre skip validation; the validating
        # constructors must accept what they make, unchanged
        for jof in all_jofs_up_to(96):
            s, c = build_sum_system(jof), build_centred(jof)
            from_s = centre(s)
            assert from_s == c
            assert SumSystem(s.components) == s
            assert CentredSumSystem(c.components) == c
            assert CentredSumSystem(from_s.components) == from_s
            b = to_sum_and_distance(c)
            assert SumAndDistanceSystem(b.N, b.components, b.even_parts, b.odd_parts) == b

    def test_rejects_invalid_jof(self):
        with pytest.raises(ValueError):
            build_sum_system(((1, 2), (1, 2)))
        with pytest.raises(ValueError):
            build_centred(((1, 2), (3, 2)))
        # products are kept by part: a huge part index allocates nothing
        for build in (build_sum_system, build_centred):
            with pytest.raises(ValueError) as info:
                build(((10**12, 2),))
            assert str(info.value) == "part 1 never appears (parts run 1..1000000000000)"


@settings(max_examples=300, deadline=None)
@given(
    half=st.lists(st.integers(-10**6, 10**6), max_size=8),
    middle=st.one_of(st.none(), st.just(0), st.integers(-3, 3)),
    off=st.one_of(st.none(), st.tuples(st.integers(0, 16), st.sampled_from((-1, 1)))),
)
def test_symmetric_as_the_seed_near_symmetric(half, middle, off):
    """_symmetric, which sums each value with its mirror, against the former
    negated-reverse test: symmetric tuples of odd and even length, empty
    ones, a middle 0 or another middle, each as built or with one value
    off by 1."""
    comp = [-v for v in reversed(half)] + ([] if middle is None else [middle]) + half
    if off is not None and comp:
        comp[off[0] % len(comp)] += off[1]
    assert systems._symmetric(tuple(comp)) == seed_symmetric(tuple(comp))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2, 2), max_size=7))
def test_symmetric_as_the_seed_at_random(comp):
    assert systems._symmetric(tuple(comp)) == seed_symmetric(tuple(comp))


def centred_fault(comp):
    """The message CentredSumSystem raises on this component after a
    genuine one, or None when it accepts them."""
    try:
        CentredSumSystem([(-1, 1), comp])
    except ValueError as fault:
        return str(fault)
    return None


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    positives=st.sets(st.integers(1, 40), min_size=1, max_size=8),
    parity=st.sampled_from((0, 1)),
    off=st.sampled_from((None, 0, -1, "any")),
    where=st.integers(0, 7),
    middle=st.sampled_from((None, 0, -3, -1, 1, 3)),
)
def test_centred_parity_on_half_as_the_full_check(positives, parity, off, where, middle):
    """CentredSumSystem checks parity on the first ceil(len/2) values once
    symmetry holds; its message must be that of the former check over every
    value, oracles.seed_centred_fault, on symmetric tuples of odd and even
    length, one mirror pair off parity (the outermost, the innermost, or any),
    and a middle 0 or an odd middle."""
    values = sorted(2 * v + parity for v in positives)
    if off is not None:
        i = where % len(values) if off == "any" else off
        values[i] += 1
    half = sorted(set(values))
    comp = [-v for v in reversed(half)] + ([] if middle is None else [middle]) + half
    assert centred_fault(comp) == seed_centred_fault(comp), comp


@pytest.mark.parametrize(
    "comp",
    [
        (-3, -1, 0, 1, 3),  # all odd but the middle 0, the last of the first half
        (-4, -1, 1, 4),  # the innermost pair off parity
        (-5, -2, 2, 5),  # the outermost pair off parity
        (-4, -2, 0, 2, 4),
        (-3, -1, 1, 3),
        (-2, 1, 2),  # an odd middle: not symmetric
        (-5, -3, 0, 3, 5),
        (0,),
    ],
)
def test_centred_parity_on_half_at_the_edges(comp):
    assert centred_fault(comp) == seed_centred_fault(comp)


MEMOS = (systems._progressions, systems._centred_component, verify._bitset)


def certified_as_the_seed(plain, centred):
    """Whether the certificate of both forms is the seed certificate's."""
    n = plain.N
    return all(
        verify._certified(comps, n, step) == seed_certified(comps, n, step)
        for comps, step in ((plain.components, 1), (centred.components, 2))
    )


def seed_system(jof) -> SumSystem:
    """The system of a JOF as oracles.seed_blow_up builds it."""
    return tuple.__new__(SumSystem, (seed_blow_up(jof, max(p for p, _ in jof)),))


class TestAgainstSeedPaths:
    """The blow-up from per-part progressions, and centre and the
    certificate with their per-component memos, against their former forms:
    oracles.seed_blow_up, oracles.seed_centre and oracles.seed_certified."""

    def test_every_jof_up_to_128(self):
        # from empty memos, then again with them filled
        for memo in MEMOS:
            memo.cache_clear()
        for _ in ("cold", "warm"):
            for jof in all_jofs_up_to(128):
                seed = seed_system(jof)
                built = build_sum_system(jof)
                assert built == seed, jof
                centred = centre(built)
                assert centred == seed_centre(seed) == build_centred(jof), jof
                assert certified_as_the_seed(built, centred), jof
            # the brute force meets each component again: the memos engage
            assert all(memo.cache_info().hits > memo.cache_info().misses for memo in MEMOS)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sets(st.integers(0, 12), min_size=1, max_size=6), st.booleans()),
            min_size=1,
            max_size=4,
        )
    )
    def test_centre_raises_as_the_seed(self, drawn):
        # a drawn set, or the set with its mirror image about its maximum
        comps = [
            sorted(values | {max(values) - v for v in values}) if mirrored else sorted(values)
            for values, mirrored in drawn
        ]
        system = SumSystem(comps)
        try:
            want = seed_centre(system)
        except ValueError as fault:
            with pytest.raises(ValueError, match=f"^{fault}$"):
                centre(system)
        else:
            assert centre(system) == want


# the forms a JOF arrives in: the enumeration's tuples, lists, and pairs
# read from a JSON document
JOF_FORMS = {
    "tuples": lambda jof: jof,
    "lists": lambda jof: [list(entry) for entry in jof],
    "json": lambda jof: json.loads(json.dumps(jof)),
}


class TestProgressionsMemo:
    """The builders key systems._progressions by each part's run of ints,
    made only once the JOF has passed its check, so no form of a JOF, nor
    a malformed JOF, can reach another JOF's entry."""

    @pytest.mark.parametrize("first", list(JOF_FORMS))
    def test_every_form_builds_alike_cold_and_warm(self, first):
        # the first form builds from empty memos, the others from the
        # entries it left
        jofs = list(all_jofs_up_to(64))
        for memo in MEMOS:
            memo.cache_clear()
        for form in [first] + [form for form in JOF_FORMS if form != first]:
            for jof in jofs:
                given = JOF_FORMS[form](jof)
                seed = seed_system(jof)
                assert build_sum_system(given) == seed, (form, jof)
                assert build_centred(given) == seed_centre(seed), (form, jof)

    @pytest.mark.parametrize(
        "jof, message",
        [
            (((True, 2),), "entry 1 is not a (part, factor) pair of integers"),
            (((1, True),), "entry 1 is not a (part, factor) pair of integers"),
            (((2, 2), (True, 2)), "entry 2 is not a (part, factor) pair of integers"),
            (((1, 2), (2, 2.0)), "entry 2 is not a (part, factor) pair of integers"),
            (((1, 1),), "entry 1 has factor 1; factors must be >= 2"),
            (((1, 2), (2, 1)), "entry 2 has factor 1; factors must be >= 2"),
        ],
    )
    def test_malformed_jofs_raise_before_any_lookup(self, jof, message):
        # True and 2.0 equal and hash as 1 and 2, so each of these would
        # alias a genuine key, and a factor 1 would make a one-value
        # component; the memos hold the genuine keys first
        for genuine in (((1, 2),), ((1, 2), (2, 2)), ((2, 2), (1, 2))):
            build_sum_system(genuine)
        before = [memo.cache_info() for memo in MEMOS]
        for build in (build_sum_system, build_centred):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(jof)
        assert [memo.cache_info() for memo in MEMOS] == before


class TestConstructors:
    def test_sum_system_needs_sorted_distinct_nonnegative(self):
        with pytest.raises(ValueError):
            SumSystem(((1, 0),))
        with pytest.raises(ValueError):
            SumSystem(((0, 0, 1),))
        with pytest.raises(ValueError):
            SumSystem(((-1, 0, 1),))
        with pytest.raises(ValueError):
            SumSystem(())
        with pytest.raises(ValueError):
            SumSystem(((),))

    def test_centred_needs_symmetry_and_parity(self):
        with pytest.raises(ValueError):
            CentredSumSystem(((-2, 0, 1),))
        with pytest.raises(ValueError):
            CentredSumSystem(((-2, 1, 2),))
        with pytest.raises(ValueError):
            CentredSumSystem(((0, 2),))
        CentredSumSystem(((-2, 0, 2),))  # fine

    def test_sum_and_distance_parity_partition(self):
        with pytest.raises(ValueError):
            SumAndDistanceSystem(2, ((2,),), (1,), (1,))
        with pytest.raises(ValueError):
            SumAndDistanceSystem(5, ((2,),), (1,), ())
        SumAndDistanceSystem(2, ((2,),), (1,), ())
        SumAndDistanceSystem(3, ((2,),), (), (1,))

    def test_every_kind_needs_a_component(self):
        for build, kind in (
            (lambda: SumSystem(()), "a sum system"),
            (lambda: CentredSumSystem(()), "a centred sum system"),
            (lambda: SumAndDistanceSystem(1, (), (), ()), "a sum-and-distance system"),
        ):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == f"{kind} needs at least one component"

    def test_values_must_be_integers(self):
        # every constructor checks the type of every value first, booleans
        # included, so no bad value reaches the verifiers or the bitsets
        for build in (
            lambda: SumSystem([[0, 0.5, 1]]),
            lambda: SumSystem([[False, True]]),
            lambda: SumSystem([[1, 0], [0, "x"]]),
            lambda: CentredSumSystem([[-1.0, 1.0]]),
            lambda: SumAndDistanceSystem(2, ((2.0,),), (1,), ()),
        ):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == "component values must be integers"

    def test_sum_and_distance_fields_must_be_integers(self):
        # N and the part indices are written to JSON as given, so a float or a
        # boolean among them would reach the document
        for build in (
            lambda: SumAndDistanceSystem(2.0, ((1,),), (1,), ()),
            lambda: SumAndDistanceSystem(2, ((1,),), (True,), ()),
            lambda: SumAndDistanceSystem(2, ((1,),), (1.0,), ()),
        ):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == "N and part indices must be integers"


class TestVerify:
    def test_worked_example_passes(self):
        assert verify_sum_system(build_sum_system(JOF_A)) == (True, None)
        assert verify_centred(build_centred(JOF_A)) == (True, None)
        assert verify_sum_system(build_sum_system(JOF_B)) == (True, None)
        assert verify_centred(build_centred(JOF_B)) == (True, None)

    def test_missing_zero(self):
        ok, reason = verify_sum_system(SumSystem(((1, 2),)))
        assert not ok and "0" in reason

    def test_not_palindromic(self):
        comps = ((0, 1, 2, 9, 10, 11, 18, 19, 20), (0, 54, 108, 162, 216),
                 (0, 3, 7, 27, 30, 33))
        ok, reason = verify_sum_system(SumSystem(comps))
        assert not ok and "palindromic" in reason

    def test_collision(self):
        ok, reason = verify_sum_system(SumSystem(((0, 1), (0, 1))))
        assert not ok and "collide" in reason

    def test_wrong_coverage(self):
        ok, reason = verify_sum_system(SumSystem(((0, 2),)))
        assert not ok and "cover" in reason

    def test_too_small_component(self):
        ok, reason = verify_sum_system(SumSystem(((0,), (0, 1))))
        assert not ok and "fewer than 2" in reason

    def test_centred_collision(self):
        ok, reason = verify_centred(CentredSumSystem(((-2, 0, 2), (-4, 0, 4))))
        assert not ok and "collide" in reason

    def test_centred_wrong_coverage(self):
        ok, reason = verify_centred(CentredSumSystem(((-4, 0, 4),)))
        assert not ok and "cover" in reason

    def test_every_built_system_verifies(self):
        for jof in all_jofs_up_to(64):
            plain, centred = build_sum_system(jof), build_centred(jof)
            assert verify_sum_system(plain) == (True, None)
            assert verify_centred(centred) == (True, None)
            assert set_fold_verify(plain.components, centred=False) == (True, None)
            assert set_fold_verify(centred.components, centred=True) == (True, None)

    def test_verification_matches_brute_minkowski(self):
        s = build_sum_system(JOF_A)
        assert brute_minkowski(s.components) == list(range(270))
        c = build_centred(JOF_A)
        assert brute_minkowski(c.components) == list(range(-269, 270, 2))


class TestJofOfSystem:
    def test_inverts_the_builder_exhaustive_small(self):
        for jof in all_jofs_up_to(96):
            assert jof_of_system(build_sum_system(jof)) == jof

    def test_inverts_the_centred_builder_exhaustive_small(self):
        for jof in all_jofs_up_to(96):
            assert jof_of_system(build_centred(jof)) == jof

    def test_worked_example(self):
        assert jof_of_system(SumSystem(SYSTEM_A)) == JOF_A
        assert jof_of_system(centre(SumSystem(SYSTEM_A))) == JOF_A
        assert jof_of_system(CentredSumSystem(CENTRED_A)) == JOF_A

    # the read takes each factor as the longest progression its component
    # holds, so no part follows itself in the chain it reads: the shape
    # checker must accept every JOF it returns
    def test_read_of_every_shuffled_small_system_is_a_valid_jof(self):
        rng = random.Random(64)
        for jof in all_jofs_up_to(64):
            comps = list(build_sum_system(jof).components)
            rng.shuffle(comps)
            read = systems._read_jof(comps)
            assert read is not None, jof
            assert validate(read, tuple(map(len, comps))) == (True, None), jof

    # random small components, and the blow-ups of random entry lists, in
    # which a part may follow itself (its two factors then read as one)
    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(
        st.one_of(
            st.lists(
                st.sets(st.integers(1, 15), max_size=5).map(lambda values: tuple(sorted({0, *values}))),
                min_size=1,
                max_size=4,
            ),
            st.lists(st.tuples(st.integers(1, 3), st.integers(2, 4)), min_size=1, max_size=6).map(
                lambda entries: seed_blow_up(entries, max(part for part, _ in entries))
            ),
        )
    )
    def test_read_of_random_components_is_none_or_a_valid_jof(self, comps):
        read = systems._read_jof(comps)
        assert read is None or validate(read, tuple(map(len, comps))) == (True, None)

    def test_reads_permuted_components(self):
        # {0, 2} + {0, 1} tiles 0..3: part 2 takes the first factor
        assert jof_of_system(SumSystem([[0, 2], [0, 1]])) == ((2, 2), (1, 2))

    @pytest.mark.parametrize(
        "comps",
        [
            # SYSTEM_A with the symmetric pair (1, 19) moved to (3, 17)
            ((0, 2, 3, 9, 10, 11, 17, 18, 20),) + SYSTEM_A[1:],
            # SYSTEM_A with its third component doubled
            SYSTEM_A[:2] + (tuple(2 * v for v in SYSTEM_A[2]),),
            [[0], [0, 1]],
            [[0, 2], [0, 2]],
            [[1, 2], [0, 2]],
        ],
        ids=["moved-pair", "scaled", "one-value", "collision", "no-zero"],
    )
    def test_no_jof_builds_it(self, comps):
        with pytest.raises(ValueError, match="no JOF builds this system"):
            jof_of_system(SumSystem(comps))

    @pytest.mark.parametrize(
        "comps",
        [
            ((-2, 0, 2), (-2, 0, 2)),
            # unvalidated: its image (v + 2) // 2 is {0, 1, 2}, built by
            # ((1, 3),), but that JOF doubled is {-2, 0, 2}
            ((-2, 1, 2),),
            # unvalidated: the image of both components is built by
            # ((1, 2), (2, 4)), whose doubled form has -1 and -2 where
            # these have 0 and -1
            ((0, 1), (-6, -1, 2, 6)),
            # unvalidated: an empty component has no image
            ((), (-1, 1)),
        ],
        ids=["collision", "mixed-parity", "mixed-parity-twice", "empty"],
    )
    def test_no_jof_builds_the_centred_system(self, comps):
        with pytest.raises(ValueError, match="no JOF builds this system"):
            jof_of_system(tuple.__new__(CentredSumSystem, (comps,)))

    @pytest.mark.parametrize(
        "arg",
        [[[0, 1]], ((0, 1),), None, to_sum_and_distance(build_centred(JOF_A))],
        ids=["list", "tuple", "none", "sum-and-distance"],
    )
    def test_refuses_what_is_not_a_system(self, arg):
        with pytest.raises(TypeError):
            jof_of_system(arg)


class TestStatistics:
    def test_sigma_on_both_systems(self):
        assert sigma_a(build_sum_system(JOF_A)) == 36315
        assert sigma_a(build_sum_system(JOF_B)) == 36315
        assert 36315 == 270 * 269 // 2

    def test_tau_on_both_systems(self):
        expected = Fraction(3280455, 2)
        assert tau_c(build_centred(JOF_A)) == expected
        assert tau_c(build_centred(JOF_B)) == expected
        assert expected == Fraction(270 * (270**2 - 1), 12)

    def test_closed_forms_small_sweep(self):
        for jof in all_jofs_up_to(60):
            s = build_sum_system(jof)
            n = s.N
            assert sigma_a(s) == n * (n - 1) // 2
            value = tau_c(centre(s))
            assert value == Fraction(n * (n * n - 1), 12)
            assert value.denominator in (1, 2)


class TestSumAndDistance:
    def test_worked_example(self):
        b = to_sum_and_distance(build_centred(JOF_A))
        assert b.components == ((2, 16, 18, 20), (108, 216), (21, 27, 33))
        assert b.even_parts == (3,)
        assert b.odd_parts == (1, 2)
        assert b.N == 270

    def test_cardinality_relation(self):
        for jof in (JOF_A, JOF_B, ((1, 4), (2, 3)), ((1, 2), (2, 2), (3, 2))):
            c = build_centred(jof)
            b = to_sum_and_distance(c)
            for j, comp in enumerate(b.components, start=1):
                n_j = c.cardinalities[j - 1]
                if j in b.odd_parts:
                    assert n_j == 2 * len(comp) + 1
                else:
                    assert n_j == 2 * len(comp)

    def test_needs_positive_values(self):
        with pytest.raises(ValueError):
            to_sum_and_distance(CentredSumSystem(((0,),)))

    def test_from_sum_and_distance_inverts_every_small_system(self):
        count = 0
        for jof in all_jofs_up_to(96):
            c = build_centred(jof)
            back = from_sum_and_distance(to_sum_and_distance(c))
            assert type(back) is CentredSumSystem and back == c, jof
            count += 1
        assert count > 1000


class TestJson:
    def test_sum_system_document(self):
        doc = system_to_json(build_sum_system(JOF_A))
        assert doc == {
            "N": 270,
            "components": [list(c) for c in SYSTEM_A],
            "doubled": False,
        }

    def test_centred_document_and_round_trip(self):
        c = build_centred(JOF_A)
        doc = system_to_json(c)
        assert doc["doubled"] is True
        assert system_from_json(doc) == c
        s = build_sum_system(JOF_A)
        assert system_from_json(system_to_json(s)) == s

    def test_sum_and_distance_document(self):
        doc = system_to_json(to_sum_and_distance(build_centred(JOF_A)))
        assert doc["even_parts"] == [3]
        assert doc["odd_parts"] == [1, 2]
        assert system_from_json(doc) == build_centred(JOF_A)

    @pytest.mark.parametrize("mutate, reason", [
        (lambda d: d.pop("odd_parts"), "system document lacks 'odd_parts'"),
        (lambda d: d.update(doubled=False), "a sum-and-distance document must be doubled"),
        (lambda d: d.update(even_parts=3), "even_parts and odd_parts must be lists"),
        (lambda d: d.update(even_parts=[], odd_parts=[1, 2, 3]),
         "cardinalities are inconsistent with N"),
        # an odd part's middle 0 is even, its halves odd
        (lambda d: d.update(even_parts=[1], odd_parts=[2, 3], N=280),
         "values within a centred component must share parity"),
    ])
    def test_sum_and_distance_document_rejections(self, mutate, reason):
        doc = system_to_json(to_sum_and_distance(build_centred(JOF_A)))
        mutate(doc)
        with pytest.raises(ValueError, match=reason):
            system_from_json(doc)

    def test_rejections(self):
        for good in (
            system_to_json(build_sum_system(JOF_A)),
            system_to_json(build_centred(JOF_A)),
        ):
            for mutate in (
                lambda d: d.pop("N"),
                lambda d: d.update(N=271),
                lambda d: d.update(doubled="no"),
                lambda d: d.update(components="nope"),
                lambda d: d["components"][0].append("x"),
            ):
                doc = {
                    k: (v.copy() if isinstance(v, list) else v) for k, v in good.items()
                }
                doc["components"] = [c[:] for c in good["components"]]
                mutate(doc)
                with pytest.raises(ValueError):
                    system_from_json(doc)
        with pytest.raises(ValueError):
            system_from_json([1, 2, 3])

    @pytest.mark.parametrize("n", ["12", True, 12.0, None])
    def test_n_must_be_an_int(self, n):
        doc = system_to_json(build_sum_system(JOF_A))
        doc["N"] = n
        with pytest.raises(ValueError, match="^N must be an integer$"):
            system_from_json(doc)

    def test_only_systems_serialise(self):
        with pytest.raises(TypeError, match="^cannot serialise list$"):
            system_to_json([list(c) for c in SYSTEM_A])
