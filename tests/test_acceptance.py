"""Acceptance suite: eight criteria, one printed pass/fail line each.

Every comparison is exact; there are no tolerances anywhere.  Expected
values are frozen from the independent oracles in oracles.py or from the
worked three-part systems for 270.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from sumsystems.arith import (
    associated_divisor,
    big_omega,
    classical_divisor,
    mobius,
    modified_mobius,
)
from sumsystems.counting import (
    brute_force_count,
    count_m_part,
    count_two_part,
    count_unordered,
    divisor_sum_check,
    two_dim_fixed_tuple,
)
from sumsystems.invariants import sigma_a, tau_c
from sumsystems.jof import count_for_tuple, enumerate_jofs, ordered_factorisations
from sumsystems.shape import parse_jof_text
from sumsystems.systems import (
    build_centred,
    build_sum_system,
    centre,
    to_sum_and_distance,
)
from sumsystems.verify import verify_centred, verify_sum_system

from oracles import binomial_inversion, binomial_transform, dirichlet


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"criterion {number}: PASS - {description} ({elapsed:.2f}s)")


# counts of m-part systems for N = 1..32, rows m = 1..4
EXPECTED_TABLE = {
    1: [0] + [1] * 31,
    2: [0, 0, 0, 2, 0, 4, 0, 6, 2, 4, 0, 14, 0, 4, 4, 14,
        0, 14, 0, 14, 4, 4, 0, 38, 2, 4, 6, 14, 0, 24, 0, 30],
    3: [0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 18, 0, 0, 0, 36,
        0, 18, 0, 18, 0, 0, 0, 126, 0, 0, 6, 18, 0, 36, 0, 150],
    4: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 24,
        0, 0, 0, 0, 0, 0, 0, 96, 0, 0, 0, 0, 0, 0, 0, 240],
}

WORKED_TEXT = "1:3,3:3,1:3,3:2,2:5"
SECOND_TEXT = "1:3,2:5,3:3,1:3,3:2"


def test_criterion_1_table_reproduction():
    with criterion(1, "count table for N <= 32, m <= 4 matches exactly"):
        for m, row in EXPECTED_TABLE.items():
            got = [count_m_part(n, m).value for n in range(1, 33)]
            assert got == row, f"m = {m}"
        assert count_m_part(24, 2).value == 38
        assert count_m_part(32, 3).value == 150
        assert count_m_part(32, 4).value == 240


def test_criterion_2_worked_system_round_trip():
    with criterion(2, "three-part system for 270 rebuilt and verified exactly"):
        jof = parse_jof_text(WORKED_TEXT)
        system = build_sum_system(jof)
        assert system.components == (
            (0, 1, 2, 9, 10, 11, 18, 19, 20),
            (0, 54, 108, 162, 216),
            (0, 3, 6, 27, 30, 33),
        )
        centred = build_centred(jof)
        assert centred == centre(system)
        assert centred.components == (
            (-20, -18, -16, -2, 0, 2, 16, 18, 20),
            (-216, -108, 0, 108, 216),
            (-33, -27, -21, 21, 27, 33),
        )
        distance = to_sum_and_distance(centred)
        assert distance.components == ((2, 16, 18, 20), (108, 216), (21, 27, 33))
        assert distance.even_parts == (3,)
        assert distance.odd_parts == (1, 2)
        assert verify_sum_system(system) == (True, None)
        assert verify_centred(centred) == (True, None)
        folded = {0}
        for comp in centred.components:
            folded = {a + b for a in folded for b in comp}
        assert folded == set(range(-269, 270, 2))


def test_criterion_3_invariant_statistics():
    with criterion(3, "sum and sum-of-squares invariants hold for every system, N <= 200"):
        for text in (WORKED_TEXT, SECOND_TEXT):
            jof = parse_jof_text(text)
            assert sigma_a(build_sum_system(jof)) == 36315
            assert tau_c(build_centred(jof)) == Fraction(3280455, 2)
        for n in range(2, 201):
            expected_sigma = n * (n - 1) // 2
            expected_tau = Fraction(n * (n * n - 1), 12)
            for m in range(1, big_omega(n) + 1):
                for parts in ordered_factorisations(n, m):
                    for jof in enumerate_jofs(parts):
                        system = build_sum_system(jof)
                        assert sigma_a(system) == expected_sigma
                        assert tau_c(centre(system)) == expected_tau


def test_criterion_4_closed_form_equals_enumeration():
    with criterion(4, "closed-form counts equal brute-force counts, N <= 128, m <= 5"):
        for n in range(1, 129):
            for m in range(1, 6):
                assert (
                    count_m_part(n, m).value == brute_force_count(n, m).value
                ), (n, m)


def test_criterion_5_divisor_sum_identities():
    with criterion(5, "all four divisor-sum residuals are zero, N <= 512, m <= 4"):
        for n in range(1, 513):
            for m in range(1, 5):
                report = divisor_sum_check(n, m)
                assert report.ok, (n, m, report)
        # worked decomposition at 12: count = (2 d_2 - 4) + proper-divisor sum
        first = 2 * classical_divisor(2, 12) - 4
        rest = sum(count_m_part(d, 2).value for d in (1, 2, 3, 4, 6))
        assert first == 8 and rest == 6
        assert count_m_part(12, 2).value == first + rest == 14


def test_criterion_6_two_part_shortcut():
    with criterion(6, "two-part shortcut equals the general count, N <= 10000"):
        for n in range(1, 10001):
            assert count_two_part(n).value == count_m_part(n, 2).value, n


def test_criterion_7_algebra_laws_randomised():
    with criterion(7, "algebra laws hold on 100+ random cases each"):
        rng = random.Random(2026)
        # e, 1, mu, 1 - e and e - mu
        named = [
            lambda n: 1 if n == 1 else 0,
            lambda n: 1,
            mobius,
            lambda n: 0 if n == 1 else 1,
            lambda n: -modified_mobius(n),
        ]
        e, one = named[:2]

        for _ in range(120):  # commutativity
            f, g = rng.choice(named), rng.choice(named)
            n = rng.randrange(1, 800)
            assert dirichlet(f, g, n) == dirichlet(g, f, n)

        for _ in range(120):  # associativity
            f, g, h = (rng.choice(named) for _ in range(3))
            n = rng.randrange(1, 500)
            assert dirichlet(lambda k: dirichlet(f, g, k), h, n) == dirichlet(
                f, lambda k: dirichlet(g, h, k), n
            )

        for _ in range(120):  # mu inverts 1
            n = rng.randrange(1, 10**6)
            assert dirichlet(mobius, one, n) == e(n)

        for _ in range(120):  # three-term recurrence in (j, r)
            n = rng.randrange(1, 500)
            k = rng.randrange(0, 5)
            r = rng.randrange(-5, 5)
            assert associated_divisor(k + 1, r, n) == associated_divisor(
                k, r + 1, n
            ) - associated_divisor(k, r, n)

        for _ in range(120):  # binomial expansion of the upper index
            n = rng.randrange(1, 500)
            j = rng.randrange(0, 5)
            r = rng.randrange(0, 5)
            assert associated_divisor(j, r, n) == sum(
                comb(r, i) * associated_divisor(j + i, 0, n) for i in range(r + 1)
            )

        for _ in range(120):  # binomial transform round trip
            seq = [rng.randrange(-10**6, 10**6) for _ in range(rng.randrange(1, 12))]
            assert binomial_inversion(binomial_transform(seq)) == seq
            assert binomial_transform(binomial_inversion(seq)) == seq


def test_criterion_8_fixed_tuple_two_part_formula():
    with criterion(8, "fixed-tuple two-part formula is half the tuple count, n <= 64"):
        assert two_dim_fixed_tuple(1).value == 0
        for n in range(2, 65):
            assert 2 * two_dim_fixed_tuple(n).value == count_for_tuple((n, n)), n
        # the formula counts (n, n) systems only: at n = 4 it gives 3, while
        # half the all-tuples count for 16 is 7 (enumeration agrees)
        assert two_dim_fixed_tuple(4).value == 3
        assert brute_force_count(16, 2).value == count_m_part(16, 2).value == 14
        assert count_unordered(16, 2).value == 7
        assert two_dim_fixed_tuple(4).value != count_unordered(16, 2).value
