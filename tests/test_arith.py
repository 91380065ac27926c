"""Divisor-function algebra against naive oracles and frozen values."""

import json
import random
import sys
import time
from functools import cache
from math import comb, gcd

import pytest

from sumsystems import arith
from sumsystems.arith import (
    _difference_table,
    _is_prime,
    associated_divisor,
    big_omega,
    classical_divisor,
    divisors,
    factorise,
    mobius,
    modified_mobius,
    nontrivial_divisor,
    squarefree_ordered_count,
)
from sumsystems.counting import stirling2

import fresh
from oracles import (
    binomial_d_sum,
    count_first_block_nontrivial,
    count_tuples,
    dirichlet,
    dirichlet_power,
    generalised_d,
    naive_convolve,
    naive_factorise,
    naive_mobius,
    naive_mobius_power,
    naive_omega,
    signed_squarefree_count,
)


# e, 1, 1 - e and e - mu beside the package's mobius, for the oracle's
# convolutions
def e(n):
    return 1 if n == 1 else 0


def one(n):
    return 1


def one_minus_e(n):
    return 0 if n == 1 else 1


def e_minus_mu(n):
    return -modified_mobius(n)


class TestFactorise:
    def test_small_values(self):
        assert factorise(1).factors == ()
        assert factorise(2).factors == ((2, 1),)
        assert factorise(12).factors == ((2, 2), (3, 1))
        assert factorise(270).factors == ((2, 1), (3, 3), (5, 1))
        assert factorise(97).factors == ((97, 1),)

    def test_product_reconstructs(self):
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randrange(1, 10**6)
            pf = factorise(n)
            rebuilt = 1
            for p, e in pf.factors:
                rebuilt *= p**e
            assert rebuilt == n
            assert pf.big_omega == naive_omega(n)

    def test_primes_ascending(self):
        primes = [p for p, _ in factorise(2 * 3 * 25 * 49 * 11).factors]
        assert primes == sorted(primes)

    def test_rejects_bad_input(self):
        for bad in (0, -5, 1.5, "12", True):
            with pytest.raises(ValueError):
                factorise(bad)

    def test_input_cap(self):
        top = 2**63 - 1
        pf = factorise(top)
        rebuilt = 1
        for p, e in pf.factors:
            rebuilt *= p**e
        assert rebuilt == top
        with pytest.raises(ValueError):
            factorise(2**63)

    # at a trial bound of 41 every n <= 10^5 with a cofactor past 41^2 goes
    # to Miller-Rabin and rho: 43 * 47, 43^2 * 47, 41^3, ...
    @pytest.mark.parametrize("trial", [arith._TRIAL, 41])
    def test_every_n_to_1e5_as_by_trial_division(self, monkeypatch, trial):
        monkeypatch.setattr(arith, "_TRIAL", trial)
        factorise.cache_clear()
        try:
            for n in range(1, 10**5 + 1):
                assert factorise(n).factors == naive_factorise(n), n
        finally:
            factorise.cache_clear()

    # prime, balanced semiprimes, prime powers near the cap, Carmichael
    # numbers, and a strong pseudoprime to bases 2, 3, 5 and 7
    FROZEN = {
        2**63 - 25: ((2**63 - 25, 1),),
        2147483629 * 2147483647: ((2147483629, 1), (2147483647, 1)),
        3037000453 * 3037000493: ((3037000453, 1), (3037000493, 1)),
        3037000493**2: ((3037000493, 2),),
        2097143**3: ((2097143, 3),),
        2 * 1518500213**2: ((2, 1), (1518500213, 2)),
        561: ((3, 1), (11, 1), (17, 1)),
        41041: ((7, 1), (11, 1), (13, 1), (41, 1)),
        825265: ((5, 1), (7, 1), (17, 1), (19, 1), (73, 1)),
        3215031751: ((151, 1), (751, 1), (28351, 1)),
        3825123056546413051: ((149491, 1), (747451, 1), (34233211, 1)),
        # at the trial bound 1024: the primes either side of it, squared,
        # multiplied together, doubled, and after three smaller primes
        1021**2: ((1021, 2),),
        1031**2: ((1031, 2),),
        1021 * 1031: ((1021, 1), (1031, 1)),
        1031 * 1033: ((1031, 1), (1033, 1)),
        2 * 1031**2: ((2, 1), (1031, 2)),
        1023 * 1031: ((3, 1), (11, 1), (31, 1), (1031, 1)),
    }

    def test_frozen_in_bounded_time(self):
        # a new process, so that no cached factorisation is reused
        code = ("import json, sys; from sumsystems.arith import factorise; "
                "print(json.dumps([factorise(n).factors for n in json.loads(sys.argv[1])]))")
        proc = fresh.run([sys.executable, "-c", code, json.dumps(list(self.FROZEN))], timeout=5)
        assert proc.returncode == 0, proc.stderr
        got = [tuple(map(tuple, factors)) for factors in json.loads(proc.stdout)]
        assert got == list(self.FROZEN.values())

    def test_products_of_two_primes_past_trial_division(self):
        # rho from x = 2 with c = 1 closes both prime factors' cycles at the
        # same step on 26 of these products, 1031 * 1223 among them, so
        # their split needs the next c
        primes = [p for p in range(1031, 1400) if naive_factorise(p) == ((p, 1),)]
        for i, p in enumerate(primes):
            for q in primes[i:]:
                for n in (p * q, (p * q) ** 2):
                    assert factorise.__wrapped__(n).factors == naive_factorise(n), n

    @pytest.mark.parametrize(
        "n, prime",
        [
            (561, False),
            (41041, False),
            (825265, False),
            (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
            (3825123056546413051, False),  # and to every prime base up to 23
            (2**61 - 1, True),
            (2**63 - 25, True),
            (3037000493, True),
        ],
    )
    def test_miller_rabin(self, n, prime):
        assert _is_prime(n) is prime


class TestDivisors:
    def test_frozen(self):
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(1) == (1,)
        assert divisors(13) == (1, 13)

    def test_pairing(self):
        for n in (36, 97, 360, 1024):
            ds = divisors(n)
            assert ds == tuple(sorted(ds))
            assert all(n % d == 0 for d in ds)
            assert {n // d for d in ds} == set(ds)


@pytest.mark.parametrize("cached", [factorise, divisors])
def test_caches_keyed_by_n_are_bounded(cached):
    for n in range(10**6, 10**6 + 5000):
        cached(n)
    assert cached.cache_info().currsize <= 4096


class TestMobius:
    def test_frozen_prefix(self):
        expected = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]
        assert [mobius(n) for n in range(1, 21)] == expected

    def test_against_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(1, 5000)
            assert mobius(n) == naive_mobius(n)

    def test_modified_drops_value_at_one(self):
        assert modified_mobius(1) == 0
        for n in range(2, 200):
            assert modified_mobius(n) == mobius(n)

    def test_modified_sign_on_squarefree(self):
        assert modified_mobius(30) == -1  # three prime factors
        assert modified_mobius(6) == 1
        assert modified_mobius(4) == 0

    # n built from primes past trial division, so factorise splits them by
    # Miller-Rabin and rho; 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657
    @pytest.mark.parametrize(
        "n, mu",
        [
            (2_147_483_647, -1),
            (2_147_483_647 * 2_147_483_629, 1),
            (1_000_000_007**2, 0),
            (1_000_003 * 999_983 * 1_000_033, -1),
            (2 * 1_000_003 * 999_983 * 1_000_033, 1),
            (2**62, 0),
            (2**63 - 1, 0),
        ],
    )
    def test_past_trial_division(self, n, mu):
        assert mobius(n) == modified_mobius(n) == mu

    @pytest.mark.parametrize("n", [0, -1, True, 1.0, 2**63])
    def test_errors_are_factorise_s(self, n):
        with pytest.raises(ValueError) as expected:
            factorise.__wrapped__(n)
        for f in (mobius, modified_mobius):
            with pytest.raises(ValueError) as got:
                f(n)
            assert str(got.value) == str(expected.value)


class TestConvolution:
    def test_mu_inverts_one(self):
        for n in range(1, 200):
            assert dirichlet(mobius, one, n) == e(n)

    def test_identity_element(self):
        for f in (one, mobius, one_minus_e):
            for n in (1, 2, 12, 97, 360):
                assert dirichlet(f, e, n) == f(n)

    def test_power_matches_repeated_convolve(self):
        for n in range(1, 100):
            threefold = dirichlet(one, lambda k: dirichlet(one, one, k), n)
            assert dirichlet_power(one, 3, n) == threefold

    def test_deep_power_does_not_recurse(self):
        assert dirichlet_power(one, 3000, 12) == classical_divisor(3000, 12)
        assert dirichlet_power(mobius, 2500, 12) == generalised_d(-2500, 12)

    @pytest.mark.parametrize("j", [2, 3, 7, 10**6, 2**100 - 1, 10**80])
    def test_power_by_squaring_in_bounded_time(self, j):
        start = time.perf_counter()
        for n in (1, 12, 720, 30030):
            assert dirichlet_power(one, j, n) == classical_divisor(j, n), n
            assert dirichlet_power(mobius, j, n) == generalised_d(-j, n), n
        assert time.perf_counter() - start < 2

    def test_power_past_the_decimal_digit_cap(self):
        j = 10**5000
        start = time.perf_counter()
        assert dirichlet_power(one, j, 1) == classical_divisor(j, 1)
        assert dirichlet_power(one, j, 2) == classical_divisor(j, 2)
        assert time.perf_counter() - start < 2


class TestClassicalDivisor:
    def test_frozen(self):
        # d_2 is the ordinary number-of-divisors function
        assert [classical_divisor(2, n) for n in range(1, 13)] == [
            1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6,
        ]
        assert classical_divisor(3, 12) == 18
        assert classical_divisor(4, 12) == 40
        assert classical_divisor(1, 360) == 1
        assert classical_divisor(0, 1) == 1
        assert classical_divisor(0, 5) == 0

    def test_counts_ordered_tuples(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randrange(1, 150)
            j = rng.randrange(1, 5)
            assert classical_divisor(j, n) == count_tuples(n, j, 1)

    def test_equals_convolution_power_of_one(self):
        rng = random.Random(19)
        for _ in range(120):
            n = rng.randrange(1, 600)
            j = rng.randrange(0, 6)
            assert classical_divisor(j, n) == dirichlet_power(one, j, n)

    def test_generalised_binomial_for_any_j(self):
        for n in (1, 12, 360, 2**62, 897612484786617600):
            for j in (0, 1, 5, 3000, 10**18):
                assert classical_divisor(j, n) == generalised_d(j, n)

    def test_multiplicative(self):
        rng = random.Random(23)
        hits = 0
        while hits < 100:
            a = rng.randrange(1, 100)
            b = rng.randrange(1, 100)
            if gcd(a, b) != 1:
                continue
            hits += 1
            j = rng.randrange(1, 5)
            assert classical_divisor(j, a * b) == classical_divisor(
                j, a
            ) * classical_divisor(j, b)


class TestNontrivialDivisor:
    def test_frozen(self):
        assert nontrivial_divisor(1, 12) == 1
        assert nontrivial_divisor(2, 12) == 4
        assert nontrivial_divisor(3, 12) == 3
        assert nontrivial_divisor(4, 12) == 0
        assert nontrivial_divisor(2, 4) == 1
        assert nontrivial_divisor(2, 6) == 2

    def test_counts_ordered_nontrivial_tuples(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randrange(1, 150)
            j = rng.randrange(0, 5)
            assert nontrivial_divisor(j, n) == count_tuples(n, j, 2)

    def test_vanishes_above_omega(self):
        for n in range(1, 300):
            top = big_omega(n)
            assert nontrivial_divisor(top + 1, n) == 0
            assert nontrivial_divisor(top + 3, n) == 0
        assert nontrivial_divisor(20000, 12) == 0

    def test_proper_divisor_recurrence(self):
        # c_{j+1}(n) equals the sum of c_j over proper divisors of n
        for n in range(2, 300):
            proper = divisors(n)[:-1]
            for j in range(0, 5):
                assert nontrivial_divisor(j + 1, n) == sum(
                    nontrivial_divisor(j, d) for d in proper
                )

    def test_equals_convolution_power(self):
        rng = random.Random(31)
        for _ in range(120):
            n = rng.randrange(1, 600)
            j = rng.randrange(0, 6)
            assert nontrivial_divisor(j, n) == dirichlet_power(one_minus_e, j, n)


class TestAssociatedDivisor:
    def test_frozen(self):
        assert associated_divisor(2, 1, 12) == 7
        assert associated_divisor(2, -2, 12) == -2
        assert associated_divisor(3, -3, 12) == 3
        assert associated_divisor(0, 3, 12) == classical_divisor(3, 12)
        assert associated_divisor(2, 0, 12) == nontrivial_divisor(2, 12)

    def test_counts_block_tuples_for_nonnegative_r(self):
        rng = random.Random(37)
        for _ in range(50):
            n = rng.randrange(1, 100)
            j = rng.randrange(0, 4)
            r = rng.randrange(0, 4)
            assert associated_divisor(j, r, n) == count_first_block_nontrivial(n, j, r)

    def test_negative_r_matches_naive_mobius_powers(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randrange(1, 80)
            j = rng.randrange(0, 4)
            r = rng.randrange(1, 4)
            expected = naive_convolve(
                lambda d: nontrivial_divisor(j, d),
                lambda d: naive_mobius_power(r, d),
                n,
            )
            assert associated_divisor(j, -r, n) == expected

    def test_binomial_expansion(self):
        rng = random.Random(43)
        for _ in range(120):
            n = rng.randrange(1, 500)
            j = rng.randrange(0, 5)
            r = rng.randrange(0, 5)
            expected = sum(
                comb(r, i) * nontrivial_divisor(j + i, n) for i in range(r + 1)
            )
            assert associated_divisor(j, r, n) == expected

    def test_matches_convolution_route(self):
        # (1 - e)^(*j) * 1^(*r), or * mu^(*-r), is the reference for the
        # binomial d_k sums; each power is tabled once per (j, r)
        for j in range(0, 5):
            for r in range(-5, 6):
                nontrivial = cache(lambda d: dirichlet_power(one_minus_e, j, d))
                upper = cache(lambda d: dirichlet_power(one if r >= 0 else mobius, abs(r), d))
                for n in range(1, 400):
                    reference = dirichlet(nontrivial, upper, n)
                    assert associated_divisor(j, r, n) == reference, (j, r, n)

    def test_vanishes_above_omega_for_every_r(self):
        for n in (1, 2, 12, 360, 2**40):
            top = big_omega(n)
            for j in (top + 1, top + 2, 3000):
                for r in (-3000, -7, -1, 0, 1, 7, 3000):
                    assert associated_divisor(j, r, n) == 0

    def test_deep_r_is_the_generalised_d_sum(self):
        # j = Omega leaves Newton's series one term, j = Omega + 1 none
        for n in (12, 360, 97 * 2**5):
            for j in range(0, big_omega(n) + 2):
                for r in (-10**30, -5000, -3000, 3000, 5000, 10**30):
                    expected = binomial_d_sum(j, j + r, n)
                    assert associated_divisor(j, r, n) == expected, (j, r, n)

    def test_three_term_recurrence_grid(self):
        for n in (1, 2, 12, 30, 72, 97, 180, 500):
            for k in range(0, 5):
                for r in range(-5, 5):
                    assert associated_divisor(k + 1, r, n) == associated_divisor(
                        k, r + 1, n
                    ) - associated_divisor(k, r, n)


class TestSquarefreeOrderedCount:
    def test_frozen(self):
        assert squarefree_ordered_count(1, 12) == 0
        assert squarefree_ordered_count(2, 12) == -2
        assert squarefree_ordered_count(3, 12) == 3
        assert squarefree_ordered_count(0, 1) == 1
        assert squarefree_ordered_count(0, 7) == 0

    def test_against_enumeration(self):
        for n in range(1, 120):
            for length in range(0, naive_omega(n) + 2):
                assert squarefree_ordered_count(length, n) == signed_squarefree_count(
                    n, length
                )

    def test_matches_convolution_power(self):
        for n in range(1, 400):
            for length in range(0, big_omega(n) + 2):
                expected = dirichlet_power(e_minus_mu, length, n)
                assert squarefree_ordered_count(length, n) == expected, (length, n)

    def test_zero_above_omega_at_any_length(self):
        assert squarefree_ordered_count(3000, 12) == 0
        assert squarefree_ordered_count(10**18, 2**62) == 0

    def test_matches_negative_diagonal(self):
        # (e - mu)^(*L) coincides with the L-th function of upper index -L
        for n in range(1, 200):
            for length in range(0, big_omega(n) + 1):
                assert squarefree_ordered_count(length, n) == associated_divisor(
                    length, -length, n
                )

    def test_vanishes_above_omega(self):
        for n in range(2, 150):
            assert squarefree_ordered_count(big_omega(n) + 1, n) == 0

    def test_total_over_lengths_is_one(self):
        # summing over all lengths inverts mu: every n > 1 totals 1
        for n in range(2, 150):
            total = sum(
                squarefree_ordered_count(length, n)
                for length in range(1, big_omega(n) + 1)
            )
            assert total == 1


# Every integer index of the divisor functions and of stirling2, as
# (argument, call with the index as x, least accepted); r has no least.  A
# float or a bool used to reach math.comb (TypeError) or a list index, or be
# read as 0 or 1.
INDEX_CALLS = {
    "classical_divisor": ("j", lambda x: classical_divisor(x, 12), 0),
    "nontrivial_divisor": ("j", lambda x: nontrivial_divisor(x, 12), 0),
    "associated_divisor j": ("j", lambda x: associated_divisor(x, 1, 12), 0),
    "associated_divisor r": ("r", lambda x: associated_divisor(1, x, 12), None),
    "squarefree_ordered_count": ("length", lambda x: squarefree_ordered_count(x, 12), 0),
    "stirling2 total": ("total", lambda x: stirling2(x, 1), 0),
    "stirling2 blocks": ("blocks", lambda x: stirling2(3, x), 0),
}
INDEX_CASES = [
    (name, value, f"{arg} must be an integer, got {value!r}")
    for name, (arg, _, _) in INDEX_CALLS.items()
    for value in (2.0, 2.5, True)
] + [
    (name, least - 1, f"{arg} must be at least {least}")
    for name, (arg, _, least) in INDEX_CALLS.items()
    if least is not None
]


@pytest.mark.parametrize("name, value, message", INDEX_CASES, ids=repr)
def test_index_must_be_an_int_at_least_its_least(name, value, message):
    _, call, least = INDEX_CALLS[name]
    with pytest.raises(ValueError) as caught:
        call(value)
    assert str(caught.value) == message
    call(-3 if least is None else least)


def table_entry(row, length):
    """A table row read as its readers read it: 0 past Omega."""
    return row[length] if length < len(row) else 0


def check_difference_table(n):
    signature, omega = factorise(n).signature, big_omega(n)
    table = _difference_table(signature)
    assert [len(row) for row in table] == [omega + 1] * 4
    for length in range(omega + 2):
        for shift in (-1, 0, 1):
            expected = binomial_d_sum(length, shift, n)
            assert table_entry(table[shift + 1], length) == expected, (n, length, shift)
        c = binomial_d_sum(length, length, n)
        assert table_entry(table[3], length) == c == associated_divisor(length, 0, n), (n, length)
    # the square-free series is non-zero exactly from the largest exponent
    # to Omega, which count_for_tuple relies on
    least = signature[0] if signature else 0
    assert [length for length, s in enumerate(table[1]) if s] == list(range(least, omega + 1))


class TestDifferenceTable:
    """The per-signature table against the binomial sums at each value."""

    def test_every_n_to_2000(self):
        for n in range(1, 2001):
            check_difference_table(n)

    @pytest.mark.parametrize(
        "n",
        [30920671782000, 5244319080000, 97772875200, 897612484786617600, 2**62,
         614889782588491410, 8677099422351360000],
    )
    def test_large_n(self, n):
        check_difference_table(n)
