"""Closed-form counts against the enumeration oracle and frozen values."""

import gc
import inspect
import random
import sys
import time
import tracemalloc
from math import factorial

import pytest

from sumsystems import arith, counting
from sumsystems.arith import (
    big_omega,
    classical_divisor,
    divisors,
    factorise,
    mobius,
    nontrivial_divisor,
)
from sumsystems.counting import (
    CountResult,
    _m_m,
    _recurrence_row,
    brute_force_count,
    count_by_recurrence,
    count_m_part,
    count_two_part,
    count_unordered,
    divisor_sum_check,
    stirling2,
    two_dim_fixed_tuple,
)
from sumsystems.jof import count_for_tuple, ordered_factorisations
from sumsystems.shape import DEFAULT_CAP, CapExceeded

import fresh
from oracles import binomial_inversion, binomial_transform, divisor_recurrence, naive_stirling2


class TestStirling:
    def test_frozen_rows(self):
        assert [stirling2(4, m) for m in range(5)] == [0, 1, 7, 6, 1]
        assert [stirling2(7, m) for m in range(8)] == [0, 1, 63, 301, 350, 140, 21, 1]
        assert stirling2(0, 0) == 1

    def test_against_closed_form(self):
        for total in range(9):
            for blocks in range(total + 2):
                assert stirling2(total, blocks) == naive_stirling2(total, blocks)

    def test_recurrence(self):
        for total in range(1, 12):
            for blocks in range(1, total + 1):
                assert stirling2(total, blocks) == blocks * stirling2(
                    total - 1, blocks
                ) + stirling2(total - 1, blocks - 1)

    def test_errors_and_edges(self):
        assert stirling2(3, 9) == 0
        with pytest.raises(ValueError):
            stirling2(-1, 0)

    def test_past_the_table_against_closed_form(self):
        for total in (63, 64, 90):
            for blocks in range(total + 2):
                assert stirling2(total, blocks) == naive_stirling2(total, blocks), (total, blocks)

    def test_band_against_the_kernels_table(self):
        # two independent routes: stirling2 sweeps a band, _m_m reads rows
        rows = counting._stirling_table(62)
        for total in range(63):
            for blocks in range(total + 2):
                expected = rows[total][blocks] if blocks <= total else 0
                assert stirling2(total, blocks) == expected, (total, blocks)

    def test_large_totals_in_bounded_time(self):
        start = time.perf_counter()
        assert stirling2(3000, 2) == 2**2999 - 1
        assert stirling2(3000, 2999) == 3000 * 2999 // 2
        assert time.perf_counter() - start < 0.5


class TestCountMPart:
    def test_spot_values(self):
        assert count_m_part(12, 2).value == 14
        assert count_m_part(24, 2).value == 38
        assert count_m_part(32, 3).value == 150
        assert count_m_part(32, 4).value == 240
        assert count_m_part(16, 4).value == 24

    def test_method_label(self):
        assert count_m_part(12, 2) == CountResult(14, "closed-form")

    def test_conventions(self):
        assert count_m_part(1, 0).value == 1
        assert count_m_part(5, 0).value == 0
        for n in range(2, 60):
            assert count_m_part(n, 1).value == 1
        assert count_m_part(1, 3).value == 0

    def test_prime_has_no_multipart_system(self):
        for p in (2, 3, 5, 7, 97):
            assert count_m_part(p, 2).value == 0
            assert count_m_part(p, 3).value == 0

    def test_matches_brute_force_random(self):
        rng = random.Random(67)
        for _ in range(60):
            n = rng.randrange(2, 100)
            m = rng.randrange(1, 5)
            assert count_m_part(n, m).value == brute_force_count(n, m).value

    def test_frozen_large_divisor_count(self):
        n = 897612484786617600  # d(n) = 103680
        assert count_m_part(n, 2).value == 4145678400277068623870
        assert count_two_part(n).value == 4145678400277068623870

    def test_zero_above_omega_at_any_m(self):
        assert count_m_part(12, 300000).value == 0
        assert count_unordered(12, 300000).value == 0
        assert count_m_part(2**62, 10**18).value == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            count_m_part(0, 1)
        with pytest.raises(ValueError):
            count_m_part(12, -1)


class TestCountTwoPart:
    def test_frozen(self):
        assert count_two_part(12).value == 14
        assert count_two_part(4).value == 2
        assert count_two_part(7).value == 0
        assert count_two_part(1).value == 0

    def test_agrees_with_general_count(self):
        for n in range(1, 2001):
            assert count_two_part(n).value == count_m_part(n, 2).value


class TestCountByRecurrence:
    def test_matches_closed_form(self):
        for n in range(1, 301):
            for m in range(0, 4):
                assert count_by_recurrence(n, m).value == count_m_part(n, m).value

    def test_matches_divisor_keyed_oracle(self):
        for n in range(1, 401):
            for m in range(0, 7):
                assert count_by_recurrence(n, m).value == divisor_recurrence(n, m), (n, m)

    def test_many_divisors_in_bounded_time(self):
        # 2^4 3^3 5^3 7^2 11^2 13 17 19 23 has 11,520 divisors but only 203
        # signature classes of them
        n = 30920671782000
        _recurrence_row.cache_clear()
        start = time.perf_counter()
        value = count_by_recurrence(n, 9).value
        assert time.perf_counter() - start < 5
        assert value == count_m_part(n, 9).value

    @pytest.mark.parametrize(
        "n",
        [30920671782000, 5244319080000, 97772875200, 897612484786617600, 2**62,
         614889782588491410],
    )
    def test_whole_row_matches_closed_form(self, n):
        for m in range(big_omega(n) + 3):
            assert count_by_recurrence(n, m).value == count_m_part(n, m).value, m

    def test_one_pass_serves_every_m(self):
        n = 5244319080000
        _recurrence_row.cache_clear()
        count_by_recurrence(n, 10)
        for m in range(big_omega(n) + 3):
            count_by_recurrence(n, m)
        assert _recurrence_row.cache_info().misses == 1

    def test_keeps_only_the_row(self):
        # the class lists and the rows of n's divisor classes are freed on
        # return; a memo over every (signature, m) kept about 5 MB here
        n = 5244319080000
        factorise(n)
        _recurrence_row.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            count_by_recurrence(n, 10)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 64 * 1024

    def test_method_label(self):
        assert count_by_recurrence(12, 2).method == "divisor-recurrence"

    def test_worst_signature_in_bounded_time(self):
        # 2^25 3^10 5^4 7^2 11 13: 4,334 divisor classes; summing each class's
        # rows over its proper divisor classes took 2.5 M terms
        code = (
            "from sumsystems import count_by_recurrence, count_m_part\n"
            "n = 8677099422351360000\n"
            "for m in range(46):\n"
            "    assert count_by_recurrence(n, m).value == count_m_part(n, m).value, m\n"
        )
        start = time.perf_counter()
        proc = fresh.run([sys.executable, "-c", code], timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert time.perf_counter() - start < 10


class TestCountUnordered:
    def test_frozen(self):
        assert count_unordered(12, 2).value == 7
        assert count_unordered(24, 3).value == 21
        assert count_unordered(16, 4).value == 1

    def test_division_is_exact_across_sweep(self):
        for n in range(1, 400):
            for m in range(1, 6):
                ordered = count_m_part(n, m).value
                unordered = count_unordered(n, m).value
                fact = 1
                for i in range(2, m + 1):
                    fact *= i
                assert unordered * fact == ordered


class TestDivisorSumIdentities:
    def test_all_residuals_zero_on_grid(self):
        for n in range(1, 257):
            for m in range(1, 5):
                report = divisor_sum_check(n, m)
                assert report.ok, (n, m, report)

    def test_matches_divisor_list_evaluation(self):
        # reference: every proper divisor listed, its counts and mu(n/d)
        # each evaluated from a factorisation of its own
        for n in range(1, 2001):
            proper = divisors(n)[:-1]
            for m in range(1, big_omega(n) + 2):
                o = {d: (count_m_part(d, m).value, count_m_part(d, m - 1).value) for d in proper}
                u = {d: (count_unordered(d, m).value, count_unordered(d, m - 1).value)
                     for d in proper}
                ordered, unordered = count_m_part(n, m).value, count_unordered(n, m).value
                expected = (
                    ordered - sum((m - 1) * o[d][0] + m * o[d][1] for d in proper),
                    ordered + m * sum(mobius(n // d) * (o[d][0] + o[d][1]) for d in proper),
                    unordered - sum((m - 1) * u[d][0] + u[d][1] for d in proper),
                    unordered + sum(mobius(n // d) * (m * u[d][0] + u[d][1]) for d in proper),
                )
                report = divisor_sum_check(n, m)
                assert (
                    report.ordered_plain,
                    report.ordered_mobius,
                    report.unordered_plain,
                    report.unordered_mobius,
                ) == expected, (n, m)

    def test_report_shape(self):
        report = divisor_sum_check(12, 2)
        assert report.ordered_plain == 0
        assert report.ordered_mobius == 0
        assert report.unordered_plain == 0
        assert report.unordered_mobius == 0
        doc = report.as_dict()
        assert doc["ok"] is True
        assert set(doc["residuals"]) == {
            "ordered_plain", "ordered_mobius", "unordered_plain", "unordered_mobius",
        }

    def test_worked_decomposition_at_twelve(self):
        # the count for 12 splits as (2 d_2(12) - 4) + sum over proper divisors
        total = count_m_part(12, 2).value
        first = 2 * classical_divisor(2, 12) - 4
        rest = sum(count_m_part(d, 2).value for d in (1, 2, 3, 4, 6))
        assert (total, first, rest) == (14, 8, 6)
        assert total == first + rest

    def test_errors(self):
        with pytest.raises(ValueError):
            divisor_sum_check(12, 0)
        with pytest.raises(ValueError):
            divisor_sum_check(0, 1)

    def test_lists_no_divisor(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a divisor list was asked for")

        monkeypatch.setattr(counting, "_divisor_classes", refuse)
        monkeypatch.setattr(arith, "divisors", refuse)
        for n in (720, 30920671782000, 8677099422351360000):
            assert divisor_sum_check(n, 3).ok

    def test_a_wrong_stirling_number_is_caught(self, monkeypatch):
        wrong = [list(row) for row in counting._stirling_table(62)]
        wrong[3][2] += 1
        monkeypatch.setattr(counting, "_stirling_table", lambda top: wrong)
        _m_m.cache_clear()
        try:
            failed = [
                (n, m)
                for n in range(1, 201)
                for m in range(1, big_omega(n) + 2)
                if not divisor_sum_check(n, m).ok
            ]
        finally:
            monkeypatch.undo()
            _m_m.cache_clear()
        assert failed

    def test_worst_signature_every_m_from_cold(self):
        # 2^25 3^10 5^4 7^2 11 13: 17,160 divisors, Omega = 43
        n = 8677099422351360000
        for cache in (_m_m, arith._difference_table):
            cache.cache_clear()
        start = time.perf_counter()
        assert all(divisor_sum_check(n, m).ok for m in range(1, big_omega(n) + 2))
        assert time.perf_counter() - start < 2

    def test_one_table_per_signature(self):
        n = 8677099422351360000
        for cache in (_m_m, arith._difference_table):
            cache.cache_clear()
        for m in range(big_omega(n) + 2):
            count_m_part(n, m)
            assert divisor_sum_check(n, m + 1).ok
        assert arith._difference_table.cache_info().currsize == 1

    def test_huge_m_forms_no_huge_factorial(self, monkeypatch):
        formed = []
        real = counting.factorial
        monkeypatch.setattr(counting, "factorial", lambda k: formed.append(k) or real(k))
        start = time.perf_counter()
        assert divisor_sum_check(720, 10**6).ok
        assert time.perf_counter() - start < 0.1
        for m in range(1, 12):
            assert divisor_sum_check(720, m).ok
        assert max(formed) <= big_omega(720) + 1


def divisor_sums(n, top):
    """For m <= top: the sum of N_m(d) over d | n, and the same sum weighted
    by mu(n/d), with every d listed and counted on its own."""
    plain, weighted = [0] * (top + 1), [0] * (top + 1)
    for d in divisors(n):
        mu = mobius(n // d)
        for m in range(top + 1):
            count = count_m_part(d, m).value
            plain[m] += count
            weighted[m] += mu * count
    return plain, weighted


class TestShiftedKernel:
    """Shift 1 and -1 of the kernel against sums over the divisor list."""

    def test_every_n_to_2000(self):
        for n in range(1, 2001):
            signature, top = factorise(n).signature, big_omega(n) + 1
            expected = divisor_sums(n, top)
            assert [factorial(m) * _m_m(signature, m, 1) for m in range(top + 1)] == expected[0], n
            assert [factorial(m) * _m_m(signature, m, -1) for m in range(top + 1)] == expected[1], n

    @pytest.mark.parametrize("n", [30920671782000, 8677099422351360000])
    def test_many_divisors(self, n):
        # 11,520 and 17,160 divisors
        signature = factorise(n).signature
        plain, weighted = divisor_sums(n, 6)
        assert [factorial(m) * _m_m(signature, m, 1) for m in range(7)] == plain
        assert [factorial(m) * _m_m(signature, m, -1) for m in range(7)] == weighted


class TestTwoDimFixedTuple:
    def test_frozen(self):
        assert two_dim_fixed_tuple(1).value == 0
        assert two_dim_fixed_tuple(2).value == 1
        assert two_dim_fixed_tuple(4).value == 3
        assert two_dim_fixed_tuple(12).value == 42

    def test_is_half_the_fixed_tuple_count(self):
        for n in range(2, 49):
            assert 2 * two_dim_fixed_tuple(n).value == count_for_tuple((n, n))

    def test_differs_from_all_tuples_count(self):
        # (n, n) systems are a strict subset of two-part systems for n^2
        assert two_dim_fixed_tuple(4).value == 3
        assert count_m_part(16, 2).value // 2 == 7


class TestBinomialTransforms:
    def test_recovers_nontrivial_from_classical(self):
        # d_j(n) is the binomial transform of c_j(n) in the index j
        for n in (1, 2, 12, 30, 72, 97, 360):
            ds = [classical_divisor(j, n) for j in range(7)]
            cs = [nontrivial_divisor(j, n) for j in range(7)]
            assert binomial_inversion(ds) == cs
            assert binomial_transform(cs) == ds


class TestBruteForce:
    def test_frozen(self):
        assert brute_force_count(12, 2) == CountResult(14, "brute-force")
        assert brute_force_count(32, 3).value == 150
        assert brute_force_count(24, 4).value == 96
        assert brute_force_count(7, 2).value == 0

    def test_cap_propagates(self):
        with pytest.raises(CapExceeded):
            brute_force_count(8, 2, cap=2)

    def test_default_cap_is_the_enumeration_cap(self):
        # counting loads shape only through jof, inside brute_force_count, so
        # it writes the default out rather than reading shape.DEFAULT_CAP
        cap = inspect.signature(brute_force_count).parameters["cap"].default
        assert cap == DEFAULT_CAP

    def test_errors(self):
        with pytest.raises(ValueError):
            brute_force_count(0, 2)
        with pytest.raises(ValueError):
            brute_force_count(12, 0)


# Every counting entry point with a valid m: N is checked by the one rule in
# arith, whether or not the function factorises before it could return.
BAD_N_CALLS = {
    "count_m_part": lambda n: count_m_part(n, 1),
    "count_two_part": count_two_part,
    "count_unordered": lambda n: count_unordered(n, 1),
    "divisor_sum_check": lambda n: divisor_sum_check(n, 1),
    "two_dim_fixed_tuple": two_dim_fixed_tuple,
    "count_by_recurrence": lambda n: count_by_recurrence(n, 0),
    "ordered_factorisations": lambda n: ordered_factorisations(n, 1),
    "brute_force_count": lambda n: brute_force_count(n, 1),
}


@pytest.mark.parametrize("n", [0, -5, 1.5, True, 2**63], ids=repr)
@pytest.mark.parametrize("name", list(BAD_N_CALLS))
def test_bad_n_raises(name, n):
    with pytest.raises(ValueError):
        BAD_N_CALLS[name](n)


# Every entry point that takes m, with the least m it accepts.  A float or a
# bool equal to an int would share that int's cache entries.
M_CALLS = {
    "count_m_part": (count_m_part, 0),
    "count_unordered": (count_unordered, 0),
    "count_by_recurrence": (count_by_recurrence, 0),
    "divisor_sum_check": (divisor_sum_check, 1),
    "brute_force_count": (brute_force_count, 1),
    "ordered_factorisations": (ordered_factorisations, 1),
}


@pytest.mark.parametrize("m", [2.0, 2.5, True], ids=repr)
@pytest.mark.parametrize("name", list(M_CALLS))
def test_m_must_be_an_int(name, m):
    with pytest.raises(ValueError, match="m must be an integer"):
        M_CALLS[name][0](12, m)


@pytest.mark.parametrize("name", list(M_CALLS))
def test_m_below_least_raises(name):
    call, least = M_CALLS[name]
    with pytest.raises(ValueError, match=f"m must be at least {least}"):
        call(12, least - 1)
    call(12, least)


def test_order_of_n_and_m_checks():
    # count_by_recurrence, brute_force_count and ordered_factorisations check
    # n first, the rest m first
    n_first = ("count_by_recurrence", "brute_force_count", "ordered_factorisations")
    for name, (call, _) in M_CALLS.items():
        first = "expected a positive" if name in n_first else "m must"
        with pytest.raises(ValueError, match=first):
            call(0, 2.0)
