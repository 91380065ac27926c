"""The Minkowski fold behind both verifiers, against the set fold, and the
JOF read-back that spares a genuine system the fold.

oracles.set_fold_verify is the verifiers' original route.  Verdicts must
always agree.  Reasons must agree whenever sum of max A_j <= N - 1; above
that the fold reports non-coverage before it looks for collisions.  The
fold multiplies bitsets on dense stages and adds sets on sparse ones, so
systems whose stages switch between the two are checked as well.  A system
past the certificate is read back first and folded only when the read
fails; the verdicts and reasons must be those of the fold alone, got with
the certificate and the read patched to fail.  Centre and the certificate
reuse each component's work from a memo, whichever system put it there, so
genuine and corrupted systems sharing components are run in both orders.
"""

import json
import math
import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from sumsystems import systems, verify
from sumsystems.cli import run
from sumsystems.systems import (
    CentredSumSystem,
    SumSystem,
    build_centred,
    build_sum_system,
    centre,
    jof_of_system,
    system_from_json,
    system_to_json,
)
from sumsystems.verify import verify_centred, verify_sum_system

from oracles import all_jofs_up_to, seed_bitset, seed_centre, seed_certified, set_fold_verify

PLAIN_COVER = "sums do not cover 0..1"
CENTRED_COVER = "doubled sums do not cover -(N-1)..N-1 in steps of 2"
COLLIDE_3 = "sums collide when component 3 is added"

# N = 2^38 passes every per-component check and the guard (the maxima sum
# to 2^36 + 37), but the third component already collides; only sparse
# sets of up to 8 sums may be built before that shows.
WIDE_N_PLAIN = {
    "N": 2**38,
    "components": [[0, 2**36]] + [[0, 1]] * 37,
    "doubled": False,
}
WIDE_N_CENTRED = {
    "N": 2**38,
    "components": [[-(2**36), 2**36]] + [[-1, 1]] * 37,
    "doubled": True,
}


def check_against_oracle(system):
    """Verdict of the package's verifier, after comparing it with the oracle."""
    centred = isinstance(system, CentredSumSystem)
    got = (verify_centred if centred else verify_sum_system)(system)
    want = set_fold_verify(system.components, centred)
    assert got[0] == want[0], system
    if sum(comp[-1] for comp in system.components) <= system.N - 1:
        assert got == want, system
    return got


def patch_read(monkeypatch, read):
    """Patch the JOF read where the verifiers call it: verify_sum_system
    directly, verify_centred through systems._read_centred."""
    for module in (systems, verify):
        monkeypatch.setattr(module, "_read_jof", read)


def by_the_fold_alone(cases):
    """Verdicts (plain, centred) on (plain, centred) cases when the
    certificate and the JOF read both fail, so the fold decides alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_certified", lambda *args: False)
        patch_read(patch, lambda components: None)
        return [(verify_sum_system(p), verify_centred(c)) for p, c in cases]


def blow_up(jof, m):
    """Components of a JOF-like entry list by the factor-by-factor blow-up,
    with no check that consecutive entries lie in different parts."""
    comps = [[0] for _ in range(m)]
    partial = 1
    for part, factor in jof:
        comps[part - 1] = sorted(
            a + partial * k for k in range(factor) for a in comps[part - 1]
        )
        partial *= factor
    return tuple(tuple(c) for c in comps)


def move_symmetric_pair(comp, rng):
    """comp with an interior pair (v, max - v) moved to (v + d, max - v - d),
    so it stays palindromic; None when comp has no such pair or the move
    would leave (0, max) or merge values."""
    k = len(comp)
    if k < 4:
        return None
    i = rng.randrange(1, k // 2)
    d = rng.choice((-3, -2, -1, 1, 2, 3))
    moved = set(comp) - {comp[i], comp[k - 1 - i]}
    pair = {comp[i] + d, comp[k - 1 - i] - d}
    if len(pair) < 2 or pair & moved or min(pair) <= 0 or max(pair) >= comp[-1]:
        return None
    return tuple(sorted(moved | pair))


def corruptions(jof, rng):
    """Plain component tuples derived from one JOF's system, each corrupted
    in one seeded way: a symmetric value move, a scaled component, or two
    entries of the JOF with their parts swapped."""
    comps = build_sum_system(jof).components
    m = len(comps)
    j = rng.randrange(m)
    moved = move_symmetric_pair(comps[j], rng)
    if moved is not None:
        yield comps[:j] + (moved,) + comps[j + 1:]
    scale = rng.choice((2, 3))
    yield comps[:j] + (tuple(scale * v for v in comps[j]),) + comps[j + 1:]
    if m > 1:
        a, b = rng.sample(range(len(jof)), 2)
        if jof[a][0] != jof[b][0]:
            swapped = list(jof)
            swapped[a] = (jof[b][0], jof[a][1])
            swapped[b] = (jof[a][0], jof[b][1])
            yield blow_up(swapped, m)


# Doubled components the constructor would refuse, and their reasons.
UNVALIDATED_CENTRED = [
    (((-2, 0, 1),), "component 1 is not symmetric about 0"),
    (((-3, -1, 1, 3), (-2, 0, 1)), "component 2 is not symmetric about 0"),
    (((-2, 0, 2), (-3, 0, 3)), "component 2 mixes parities"),
    (((-1, 1), (-3, -2, 2, 3)), "component 2 mixes parities"),
]


class TestAgainstSetFold:
    def test_seeded_corruptions(self):
        rng = random.Random(20230321)
        verdicts = {True: 0, False: 0}
        for jof in all_jofs_up_to(64):
            for comps in corruptions(jof, rng):
                system = SumSystem(comps)
                ok, _ = check_against_oracle(system)
                assert check_against_oracle(centre(system))[0] == ok
                verdicts[ok] += 1
        # the corruptions reach both verdicts, not only rejections
        assert verdicts[True] > 0 and verdicts[False] > 0

    @pytest.mark.parametrize("comps, reason", UNVALIDATED_CENTRED)
    def test_unvalidated_centred_components(self, comps, reason):
        # the builders and centre skip the constructors' checks, so the
        # verifier must still catch what those checks would have refused
        assert verify_centred(tuple.__new__(CentredSumSystem, (comps,))) == (False, reason)
        assert set_fold_verify(comps, centred=True) == (False, reason)

    @pytest.mark.parametrize(
        "exponents",
        [
            # sparse stages on sets, then dense ones on bitsets
            tuple(range(15, -1, -1)),
            # dense, sparse from the wide third component, dense again
            (0, 1, 15) + tuple(range(2, 15)),
        ],
    )
    def test_stages_switch_between_sets_and_bitsets(self, exponents):
        binary = tuple((0, 1 << k) for k in exponents)
        assert check_against_oracle(SumSystem(binary)) == (True, None)
        assert check_against_oracle(centre(SumSystem(binary))) == (True, None)
        # 2^15 replaced by a second 2^3 collides where the oracle says
        repeated = tuple((0, 8) if c == (0, 1 << 15) else c for c in binary)
        ok, reason = check_against_oracle(SumSystem(repeated))
        assert not ok and "collide" in reason


@st.composite
def palindromic(draw):
    """A small component containing 0 and symmetric about half its maximum,
    sometimes scaled up so that the fold adds it on a sparse set."""
    top = draw(st.integers(1, 24))
    half = draw(st.sets(st.integers(0, top // 2), max_size=6))
    scale = draw(st.sampled_from((1, 1, 1, 50)))
    return tuple(scale * v for v in sorted({0, top} | half | {top - v for v in half}))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.lists(palindromic(), min_size=1, max_size=4))
def test_random_palindromic_components(comps):
    plain = SumSystem(tuple(comps))
    ok, _ = check_against_oracle(plain)
    assert check_against_oracle(centre(plain))[0] == ok


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.lists(palindromic(), min_size=1, max_size=4))
def test_read_route_on_random_palindromic_components(comps):
    plain = SumSystem(tuple(comps))
    centred = centre(plain)
    want = by_the_fold_alone([(plain, centred)])
    assert [(verify_sum_system(plain), verify_centred(centred))] == want


@st.composite
def shuffled_systems(draw):
    """A sum system with N up to 16384 from random (part, factor) entries,
    its components in random order, so a wide component early on makes
    sparse stages; sometimes one symmetric pair is moved."""
    m = draw(st.integers(2, 5))
    factors = st.integers(2, 6)
    entries = [(part, draw(factors)) for part in range(1, m + 1)]
    for part, factor in draw(st.lists(st.tuples(st.integers(1, m), factors))):
        if prod(f for _, f in entries) * factor <= 16384:
            entries.append((part, factor))
    comps = blow_up(draw(st.permutations(entries)), m)
    comps = tuple(draw(st.permutations(comps)))
    if draw(st.booleans()):
        j = draw(st.integers(0, m - 1))
        rng = draw(st.randoms(use_true_random=False))
        moved = move_symmetric_pair(comps[j], rng)
        if moved is not None:
            comps = comps[:j] + (moved,) + comps[j + 1:]
    return comps


@settings(max_examples=200, derandomize=True, deadline=None)
@given(shuffled_systems())
def test_shuffled_systems(comps):
    plain = SumSystem(comps)
    ok, _ = check_against_oracle(plain)
    assert check_against_oracle(centre(plain))[0] == ok


class TestHostileValues:
    def test_wide_plain_value_is_not_covering(self):
        assert verify_sum_system(SumSystem(((0, 10**18),))) == (False, PLAIN_COVER)

    def test_wide_centred_value_is_not_covering(self):
        system = CentredSumSystem(((-(10**18), 10**18),))
        assert verify_centred(system) == (False, CENTRED_COVER)

    @pytest.mark.parametrize("doc", [WIDE_N_PLAIN, WIDE_N_CENTRED])
    def test_wide_value_under_huge_n_collides(self, doc):
        assert check_against_oracle(system_from_json(doc)) == (False, COLLIDE_3)

    @pytest.mark.parametrize(
        "doc, reason",
        [
            ({"N": 2, "components": [[0, 10**18]], "doubled": False}, PLAIN_COVER),
            (
                {"N": 2, "components": [[-(10**18), 10**18]], "doubled": True},
                CENTRED_COVER,
            ),
            (WIDE_N_PLAIN, COLLIDE_3),
            (WIDE_N_CENTRED, COLLIDE_3),
        ],
    )
    def test_cli_verify_exits_1(self, capsys, tmp_path, doc, reason):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code = run(["verify", "--file", str(path)])
        verdict = json.loads(capsys.readouterr().out)
        assert code == 1
        assert verdict["ok"] is False and verdict["reason"] == reason

    def test_cover_precedes_collision_past_the_top(self):
        # {0,2} + {0,2} collides at 2, but 2 + 2 > N - 1 = 3 is reported first
        assert verify_sum_system(SumSystem(((0, 2), (0, 2)))) == (
            False, "sums do not cover 0..3",
        )
        assert set_fold_verify(((0, 2), (0, 2)), centred=False) == (
            False, "sums collide when component 2 is added",
        )


# N = 3 * 9! = 1088640, about 2^20, from components of 252, 90 and 48 values
LARGE_JOF = (
    (1, 3), (2, 5), (3, 4), (1, 7), (2, 2), (3, 6), (1, 4), (2, 9), (3, 2), (1, 3),
)


def systems_up_to_96():
    """(plain, centred) for every JOF with N <= 96: as built, with its
    components reversed, and with one seeded symmetric value move."""
    rng = random.Random(20231018)
    for jof in all_jofs_up_to(96):
        comps = build_sum_system(jof).components
        variants = [comps, comps[::-1]]
        j = rng.randrange(len(comps))
        moved = move_symmetric_pair(comps[j], rng)
        if moved is not None:
            variants.append(comps[:j] + (moved,) + comps[j + 1:])
        for variant in variants:
            plain = SumSystem(variant)
            yield plain, centre(plain)


@pytest.fixture(scope="module")
def small_systems():
    """systems_up_to_96() and their verdicts by the fold alone."""
    cases = list(systems_up_to_96())
    return cases, by_the_fold_alone(cases)


def recording_fold(monkeypatch):
    """Patch the verifiers' fold with one that keeps each verdict it gives."""
    verdicts = []
    fold = verify._fold

    def recorded(*args):
        verdicts.append(fold(*args))
        return verdicts[-1]

    monkeypatch.setattr(verify, "_fold", recorded)
    return verdicts


def no_fold(*args):
    raise AssertionError("the fold ran")


class TestReadRoute:
    def test_every_small_system_as_by_the_fold_alone(self, monkeypatch, small_systems):
        cases, fold_alone = small_systems
        folded = recording_fold(monkeypatch)
        assert [(verify_sum_system(p), verify_centred(c)) for p, c in cases] == fold_alone
        # every genuine system was certified or read back: the fold only rejected
        assert folded and not any(ok for ok, _ in folded)
        verdicts = {ok for pair in fold_alone for ok, _ in pair}
        assert verdicts == {True, False}

    def test_genuine_system_of_many_values_skips_the_fold(self, monkeypatch):
        # N = 2048 is only 21 times its 96 values: the read decides it too
        monkeypatch.setattr(verify, "_fold", no_fold)
        system = build_sum_system(((1, 32), (2, 64)))
        assert system.N == 2048 and sum(system.cardinalities) == 96
        assert verify_sum_system(system) == (True, None)
        assert verify_centred(centre(system)) == (True, None)

    def test_genuine_large_system_skips_the_fold(self, monkeypatch):
        monkeypatch.setattr(verify, "_fold", no_fold)
        system = build_sum_system(LARGE_JOF)
        assert system.N == 3 * math.factorial(9)
        assert verify_sum_system(system) == (True, None)
        assert verify_centred(centre(system)) == (True, None)

    @pytest.mark.parametrize("centred", [False, True])
    def test_cli_verify_of_genuine_large_document_skips_the_fold(
        self, monkeypatch, capsys, tmp_path, centred
    ):
        system = build_sum_system(LARGE_JOF)
        path = tmp_path / "large.json"
        path.write_text(json.dumps(system_to_json(centre(system) if centred else system)))
        monkeypatch.setattr(verify, "_fold", no_fold)
        code = run(["verify", "--file", str(path)])
        verdict = json.loads(capsys.readouterr().out)
        assert code == 0
        assert verdict["ok"] is True and verdict["reason"] is None

    def test_value_corrupted_large_system_still_folds(self, monkeypatch):
        comps = build_sum_system(LARGE_JOF).components
        rng = random.Random(1)
        moved = None
        while moved is None:
            moved = move_symmetric_pair(comps[0], rng)
        corrupted = SumSystem((moved,) + comps[1:])
        folded = recording_fold(monkeypatch)
        plain = verify_sum_system(corrupted)
        doubled = verify_centred(centre(corrupted))
        assert folded == [plain, doubled]
        assert plain[0] is False and plain[1].startswith("sums collide when component")
        assert doubled == plain


UNBUILT = "no JOF builds these components"


def distinct_until_last(k, centred=False):
    """Components {0, 2^i} for i < k - 1, then {0, 2^(k-1) - 1}: N = 2^k,
    and the sums stay distinct until the last component is added."""
    comps = [(0, 1 << i) for i in range(k - 1)] + [(0, (1 << (k - 1)) - 1)]
    plain = SumSystem(tuple(comps))
    return centre(plain) if centred else plain


def counting_reads(monkeypatch):
    """Patch the JOF read with one that counts its calls."""
    reads = []
    read = systems._read_jof

    def counted(components):
        reads.append(components)
        return read(components)

    patch_read(monkeypatch, counted)
    return reads


def refused_as_unbuilt(cases, fold_alone):
    """Verify every (plain, centred) case and return how many verdicts
    differ from the fold alone's; each may differ only by a rejection
    refused as unbuilt."""
    changed = 0
    for want_pair, (plain, centred) in zip(fold_alone, cases):
        for want, got in zip(want_pair, (verify_sum_system(plain), verify_centred(centred))):
            assert got[0] == want[0]
            if got != want:
                assert got == (False, UNBUILT), (want, got)
                changed += 1
    return changed


class TestFoldBudget:
    """A fold stage past verify._BUDGET bits is not folded: the JOF read
    has failed before the fold, and each sum system is the blow-up of
    exactly one JOF, so the components are refused."""

    def test_last_stage_within_the_budget_names_the_collision(self):
        assert verify._BUDGET == 1 << 24
        for centred in (False, True):
            system = distinct_until_last(24, centred)
            verifier = verify_centred if centred else verify_sum_system
            assert verifier(system) == (False, "sums collide when component 24 is added")

    # larger k run only in a memory-limited subprocess (tests/test_cli.py),
    # as a fold without the budget would grow with 2^k
    @pytest.mark.parametrize("k", [25, 27])
    def test_past_the_budget_the_read_decides_once(self, monkeypatch, k):
        reads = counting_reads(monkeypatch)
        assert verify_sum_system(distinct_until_last(k)) == (False, UNBUILT)
        assert verify_centred(distinct_until_last(k, centred=True)) == (False, UNBUILT)
        assert len(reads) == 2

    @pytest.mark.parametrize("budget", [1 << 4, 1 << 6])
    def test_every_small_system_keeps_its_verdict(self, monkeypatch, small_systems, budget):
        # under a small budget a rejection the fold would name is refused
        # as unbuilt instead, and no verdict changes
        monkeypatch.setattr(verify, "_BUDGET", budget)
        assert refused_as_unbuilt(*small_systems)  # the budget was reached on rejected systems

    def test_every_small_system_keeps_its_verdict_under_a_low_price(
        self, monkeypatch, small_systems
    ):
        # a dense stage priced past verify._PRICE is refused as unbuilt
        # instead of multiplied, and no verdict changes
        monkeypatch.setattr(verify, "_PRICE", 1 << 6)
        assert refused_as_unbuilt(*small_systems)  # the price was reached on rejected systems


@settings(max_examples=300, derandomize=True, deadline=None)
@given(shuffled_systems())
def test_every_genuine_shuffled_system_is_read_back(comps):
    if not set_fold_verify(comps, centred=False)[0]:
        return
    system = SumSystem(comps)
    assert build_sum_system(jof_of_system(system)) == system


def no_read(*args):
    raise AssertionError("the JOF read ran")


def unchecked(cls, comps):
    """A system of these components, past its constructor's checks."""
    return tuple.__new__(cls, (comps,))


class TestCertificate:
    """verify._certified: one bitset product proves a system with
    N <= systems._NARROW genuine, before any per-component check."""

    def test_every_genuine_small_system_is_certified(self, monkeypatch):
        monkeypatch.setattr(verify, "_fold", no_fold)
        patch_read(monkeypatch, no_read)
        for jof in all_jofs_up_to(96):
            plain = build_sum_system(jof)
            assert verify_sum_system(plain) == (True, None), jof
            assert verify_centred(centre(plain)) == (True, None), jof

    @pytest.mark.parametrize(
        "system, reason",
        [
            # {0} times {0, 1} tiles 0..1 in one product
            (SumSystem(((0,), (0, 1))), "component 1 has fewer than 2 values"),
            (CentredSumSystem(((-1, 1), (0,))), "component 2 has fewer than 2 values"),
            # shifted to start at 0, {1, 3} and {0, 1} would tile 0..3
            (SumSystem(((1, 3), (0, 1))), "component 1 does not contain 0"),
            # shifted by their minima, {0, 4} and {0, 2} would tile 0..6 by 2
            (unchecked(CentredSumSystem, ((0, 4), (-1, 1))),
             "component 1 is not symmetric about 0"),
            # the maxima are summed before any bitset is made
            (SumSystem(((0, 2**60), (0, 1))), "sums do not cover 0..3"),
            (CentredSumSystem(((-(2**60), 2**60), (-1, 1))), CENTRED_COVER),
        ]
        + [(unchecked(CentredSumSystem, comps), reason) for comps, reason in UNVALIDATED_CENTRED]
        + [
            # a component's span is checked before that component is
            # shifted, wherever it stands
            (SumSystem(((0, 1), (0, 2**60), (0, 1))), "sums do not cover 0..7"),
            (SumSystem(((0, 1), (0, 1), (0, 2**60))), "sums do not cover 0..7"),
            (CentredSumSystem(((-1, 1), (-(2**60), 2**60), (-1, 1))), CENTRED_COVER),
            (CentredSumSystem(((-1, 1), (-1, 1), (-(2**60), 2**60))), CENTRED_COVER),
        ],
    )
    def test_refused_with_the_reason_of_the_checks(self, system, reason):
        step = 2 if isinstance(system, CentredSumSystem) else 1
        assert not verify._certified(system.components, system.N, step)
        verifier = verify_centred if step == 2 else verify_sum_system
        assert verifier(system) == (False, reason)


@st.composite
def small_candidates(draw):
    """(components, step): a blow-up with N <= 1024 in shuffled order,
    sometimes with one component replaced by random values, plain (step 1)
    or doubled by 2a - max, or by 2a - max + 1 on one component (step 2)."""
    m = draw(st.integers(1, 4))
    entries = [(part, draw(st.integers(2, 6))) for part in range(1, m + 1)]
    for part, factor in draw(st.lists(st.tuples(st.integers(1, m), st.integers(2, 6)))):
        if prod(f for _, f in entries) * factor <= 1024:
            entries.append((part, factor))
    comps = list(draw(st.permutations(blow_up(draw(st.permutations(entries)), m))))
    j = draw(st.integers(0, m - 1))
    if draw(st.booleans()):
        comps[j] = tuple(sorted(draw(st.sets(st.integers(-4, 40), min_size=1, max_size=8))))
    if draw(st.booleans()):
        return tuple(comps), 1
    doubled = [tuple(2 * a - comp[-1] for a in comp) for comp in comps]
    if draw(st.booleans()):
        doubled[j] = tuple(v + 1 for v in doubled[j])
    return tuple(doubled), 2


@settings(max_examples=500, derandomize=True, deadline=None)
@given(small_candidates())
def test_certified_only_what_the_set_fold_accepts(candidate):
    comps, step = candidate
    if verify._certified(comps, prod(map(len, comps)), step):
        assert set_fold_verify(comps, centred=step == 2) == (True, None)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(small_candidates())
def test_certified_as_the_seed_certificate(candidate):
    comps, step = candidate
    n = prod(map(len, comps))
    assert verify._certified(comps, n, step) == seed_certified(comps, n, step)


class TestBitset:
    """verify._bitset, the one bitset builder of the certificate (memoised)
    and the fold (unmemoised, on lists), against the sum of shifts
    oracles.seed_bitset."""

    def test_every_component_of_every_genuine_system_up_to_64(self):
        comps = {
            comp
            for jof in all_jofs_up_to(64)
            for system in (build_sum_system(jof), build_centred(jof))
            for comp in system.components
        }
        for comp in comps:
            assert verify._bitset(comp) == seed_bitset(comp), comp
            assert verify._bitset.__wrapped__(list(comp)) == seed_bitset(comp), comp

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.one_of(st.integers(-10**6, -1), st.just(0), st.integers(1, 10**6)),
        st.lists(st.integers(1, 100), max_size=30),
    )
    def test_drawn_ascending_tuples(self, first, gaps):
        comp = (first, *(first + sum(gaps[:i + 1]) for i in range(len(gaps))))
        assert verify._bitset(comp) == seed_bitset(comp)
        assert verify._bitset.__wrapped__(list(comp)) == seed_bitset(comp)


def off_the_route(*args):
    raise AssertionError("a step off the accepting route ran")


def seeded_jof(rng, low, high):
    """A JOF of 2 to 4 parts with low <= N <= high, drawn from rng."""
    while True:
        m = rng.randint(2, 4)
        jof, n = [], 1
        while n * 2 <= high and (n < low or len({p for p, _ in jof}) < m):
            part = rng.choice([p for p in range(1, m + 1) if not jof or p != jof[-1][0]])
            factor = rng.randint(2, min(6, high // n))
            jof.append((part, factor))
            n *= factor
        if n >= low and len({p for p, _ in jof}) == m:
            return tuple(jof)


class TestOneDeciderPerSize:
    """Each verifier accepts through one decider: the certificate for
    N <= systems._NARROW, the JOF read past it.  The per-component checks
    and the fold run only on a rejection, to name its reason."""

    def test_no_read_up_to_the_bound(self, monkeypatch, small_systems):
        cases, fold_alone = small_systems
        edge = [build_sum_system(((1, 32), (2, 32))), distinct_until_last(10)]
        edge_verdicts = [(verify_sum_system(p), verify_centred(centre(p))) for p in edge]
        patch_read(monkeypatch, no_read)
        assert [(verify_sum_system(p), verify_centred(c)) for p, c in cases] == fold_alone
        assert [p.N for p in edge] == [systems._NARROW] * 2
        assert [(verify_sum_system(p), verify_centred(centre(p))) for p in edge] == edge_verdicts
        assert [ok for ok, _ in edge_verdicts[0] + edge_verdicts[1]] == [True, True, False, False]
        for comps, reason in UNVALIDATED_CENTRED:
            assert verify_centred(unchecked(CentredSumSystem, comps)) == (False, reason)

    @pytest.mark.parametrize("jof", [((1, 32), (2, 33)), LARGE_JOF], ids=["2112", "1088640"])
    def test_genuine_system_past_the_bound_is_read_once(self, monkeypatch, jof):
        plain = build_sum_system(jof)
        centred = centre(plain)
        assert plain.N > systems._NARROW
        reads = counting_reads(monkeypatch)
        monkeypatch.setattr(verify, "_fold", no_fold)
        monkeypatch.setattr(verify, "_symmetric", off_the_route)
        monkeypatch.setattr(verify, "_certified", off_the_route)
        assert verify_sum_system(plain) == (True, None)
        assert len(reads) == 1
        assert verify_centred(centred) == (True, None)
        assert len(reads) == 2

    @pytest.mark.parametrize("low, high", [(65, 1024), (1025, 4096)])
    def test_seeded_corruptions_on_each_side_of_the_bound(self, low, high):
        rng = random.Random(20261019 + high)
        verdicts = {True: 0, False: 0}
        for _ in range(100):
            jof = seeded_jof(rng, low, high)
            genuine = build_sum_system(jof).components
            for comps in (genuine, *corruptions(jof, rng)):
                plain = SumSystem(comps)
                assert low <= plain.N <= high
                for system in (plain, centre(plain)):
                    ok, _ = check_against_oracle(system)
                    try:
                        jof_of_system(system)
                    except ValueError:
                        read = False
                    else:
                        read = True
                    assert ok == read, system
                    verdicts[ok] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0


def as_the_seed_paths(plain):
    """Whether centre and the certificate, plain and doubled, give the seed
    paths' results on this system; centre must raise where the seed does."""
    n = plain.N
    if verify._certified(plain.components, n, 1) != seed_certified(plain.components, n, 1):
        return False
    try:
        want = seed_centre(plain)
    except ValueError:
        with pytest.raises(ValueError, match="^centred components must be symmetric about 0$"):
            centre(plain)
        return True
    got = centre(plain)
    return got == want and (
        verify._certified(got.components, n, 2) == seed_certified(got.components, n, 2)
    )


class TestComponentMemos:
    """centre and the certificate take each component's doubled form and
    bitset from the memos systems._centred_component and
    verify._bitset, whatever system put it there."""

    @pytest.mark.parametrize("genuine_first", [True, False], ids=["genuine", "corrupted"])
    def test_seeded_corruptions_cold_then_warm(self, genuine_first):
        # the same 100 JOFs in either order: a corrupted system shares all
        # but one component with its genuine one, and may fill the memos
        # with them first
        rng = random.Random(20261019)
        cases = []
        for _ in range(100):
            jof = seeded_jof(rng, 65, 1024)
            genuine = build_sum_system(jof).components
            corrupted = list(corruptions(jof, rng))
            cases += [genuine, *corrupted] if genuine_first else [*corrupted, genuine]
        memos = (systems._centred_component, verify._bitset)
        for memo in memos:
            memo.cache_clear()
        for _ in ("cold", "warm"):
            for comps in cases:
                assert as_the_seed_paths(SumSystem(comps)), comps
        assert all(memo.cache_info().hits for memo in memos)
