"""Counting sum systems.

The paper's sum M_m(N) = sum over L of S(L, m) (e - mu)^(*L)(N), Stirling
numbers times signed square-free factorisation counts, counts the m-part
sum systems for N up to the order of their parts.  The m parts of a system
are distinct, so N_m = m! M_m systems have ordered parts.  One cached
kernel evaluates M_m on the prime signature; the unordered and ordered
counts and the divisor-sum identities read it; the two-part shortcut and
the fixed-tuple two-part formula read the c_j divisor functions.  The
brute-force count, driven by the JOF walk, is the oracle the closed forms
are measured against; only it loads the jof module.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import islice, product, repeat
from math import comb, factorial
from operator import add, mul

from . import _Record
from .arith import (
    _SIGNATURE_CACHE,
    _check_index,
    _check_positive,
    _difference_table,
    factorise,
)

_stirling_rows: list[list[int]] = [[1]]


def stirling2(total: int, blocks: int) -> int:
    """Stirling number of the second kind: partitions of a `total`-set into
    `blocks` non-empty blocks, swept along the band S(b + d, b) with
    d <= total - blocks."""
    _check_index(total, 0, "total")
    _check_index(blocks, 0, "blocks")
    if blocks > total:
        return 0
    band = [1] + [0] * (total - blocks)  # band[d] = S(b + d, b), from b = 0
    for b in range(1, blocks + 1):
        for d in range(1, len(band)):
            band[d] = b * band[d - 1] + band[d]
    return band[-1]


def _stirling_table(top: int) -> list[list[int]]:
    """The rows S(total, .) for every total <= top, grown on first use: the
    kernel's, as every count takes S(L, m) with L <= Omega(n) <= 62."""
    while len(_stirling_rows) <= top:
        prev = _stirling_rows[-1] + [0]
        _stirling_rows.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, len(prev))])
    return _stirling_rows


class CountResult(namedtuple("CountResult", "value method"), _Record):
    """A count together with how it was obtained: method is "closed-form",
    "brute-force" or "divisor-recurrence"."""

    __slots__ = ()


@lru_cache(maxsize=_SIGNATURE_CACHE)
def _m_m(signature: tuple[int, ...], m: int, shift: int) -> int:
    """The sum over L of S(L, m) ((e - mu)^(*L) * d_shift) at any n with this
    prime signature.  Shift 0 counts the m-part sum systems for n up to the
    order of their parts; as d_k * 1 = d_(k+1) and d_k * mu = d_(k-1), shift
    1 and -1 sum that count over d | n, plain and weighted by mu(n/d).
    """
    omega = sum(signature)
    if m > omega:
        return 0
    rows, series = _stirling_table(omega), _difference_table(signature)[shift + 1]
    return sum(rows[length][m] * series[length] for length in range(m, omega + 1))


def count_m_part(n: int, m: int) -> CountResult:
    """Closed-form count of m-part sum systems for n: m! times the
    unordered count.

    m = 0 is the convention value: 1 at n = 1, else 0; it makes the
    divisor-sum identities uniform.
    """
    _check_index(m, 0, "m")
    unordered = _m_m(factorise(n).signature, m, 0)
    return CountResult(unordered and factorial(m) * unordered, "closed-form")


def count_two_part(n: int) -> CountResult:
    """Two-part count as twice the sum of c_L(n) over 2 <= L <= Omega(n).

    Deliberately read from the c_L diagonal of the difference table rather
    than the Stirling sum, so the two agree only if both are right.
    """
    diagonal = _difference_table(factorise(n).signature)[3]
    return CountResult(2 * sum(diagonal[2:]), "closed-form")


def _divisor_classes(signature: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The signatures of the divisors of any n with this signature, n
    included.  Grown one prime at a time, smallest exponent first, so no
    divisor is formed or factorised."""
    classes = {()}
    for e in reversed(signature):
        classes = {tuple(sorted(sub + (a,), reverse=True)) if a else sub
                   for sub in classes for a in range(e + 1)}
    return classes


def _prime_set_quotients(signature: tuple[int, ...]):
    """(signature of n / prod(S), (-1)**(|S| + 1) times the number of such S)
    over the non-empty sets S of primes of an n with this signature.  S
    takes k of the c primes of each exponent a, in C(c, k) ways; as the
    exponents descend, so does the quotient's signature."""
    runs = [(a, signature.count(a)) for a in sorted(set(signature), reverse=True)]
    for taken in islice(product(*(range(c + 1) for _, c in runs)), 1, None):
        quotient, weight = [], -1
        for (a, c), k in zip(runs, taken):
            quotient += [a] * (c - k) + [a - 1] * (k if a > 1 else 0)
            weight *= (-1) ** k * comb(c, k)
        yield tuple(quotient), weight


@lru_cache(maxsize=_SIGNATURE_CACHE)
def _recurrence_row(signature: tuple[int, ...]) -> tuple[int, ...]:
    """N_0 .. N_Omega at any n with this signature, from the divisor-sum
    recurrence.  The divisor classes of n are walked smallest Omega first,
    each keeping the sum of N over all of its divisors.  The proper divisors
    of n are those of the n/p, p | n, so their sum is, by inclusion-exclusion,
    the signed sum of those totals at n / prod(S) over prime sets S."""
    row = [1]
    totals = {(): row}  # sum of N_m(d) over every d | n, by n's signature
    for sub in sorted(_divisor_classes(signature), key=sum)[1:]:
        below = [0] * (sum(sub) + 1)  # sum of N_m(d) over the proper divisors d
        for quotient, weight in _prime_set_quotients(sub):
            total = totals[quotient]
            below[: len(total)] = map(add, below, map(mul, total, repeat(weight)))
        row = [0] + [(m - 1) * below[m] + m * below[m - 1] for m in range(1, len(below))]
        totals[sub] = list(map(add, row, below))
    return tuple(row)


def count_by_recurrence(n: int, m: int) -> CountResult:
    """Same count, but from the divisor-sum recurrence with only
    N = 1 as the base case.  An independent route for cross-checking.

    The sum over proper divisors runs over their signature classes, each
    weighted by its size, so no divisor of n is listed or factorised.
    """
    _check_positive(n)
    _check_index(m, 0, "m")
    row = _recurrence_row(factorise(n).signature)
    return CountResult(row[m] if m < len(row) else 0, "divisor-recurrence")


def count_unordered(n: int, m: int) -> CountResult:
    """m-part sum systems counted up to reordering the parts."""
    _check_index(m, 0, "m")
    return CountResult(_m_m(factorise(n).signature, m, 0), "closed-form")


class DivisorSumReport(
    namedtuple(
        "DivisorSumReport",
        "n m ordered_plain ordered_mobius unordered_plain unordered_mobius",
    ),
    _Record,
):
    """Residuals (left minus right) of the four divisor-sum identities.

    All four are zero exactly when the counts satisfy their recurrences:
    the plain and Mobius-inverted forms for ordered counts, and the same
    pair for unordered counts.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not any(self[2:])

    def as_dict(self) -> dict:
        return {
            "N": self.n,
            "m": self.m,
            "residuals": dict(zip(self._fields[2:], self[2:])),
            "ok": self.ok,
        }


def divisor_sum_check(n: int, m: int) -> DivisorSumReport:
    """Evaluate all four divisor-sum identities at (n, m) exactly.

    A sum over the proper divisors d of n is the kernel at n with shift 1
    (or -1, weighted by mu(n/d)) less the d = n term.  Each ordered residual
    is m! times its unordered one.  No divisor of n is listed or factorised.
    """
    _check_index(m, 1, "m")
    sig = factorise(n).signature
    if m > sum(sig) + 1:  # M_m and M_(m-1) vanish on every divisor
        return DivisorSumReport(n, m, 0, 0, 0, 0)
    # M_m and M_(m-1): at n, summed over d | n, and weighted by mu(n/d)
    u, u_all, u_mu = _m_m(sig, m, 0), _m_m(sig, m, 1), _m_m(sig, m, -1)
    v, v_all, v_mu = _m_m(sig, m - 1, 0), _m_m(sig, m - 1, 1), _m_m(sig, m - 1, -1)
    plain = u - (m - 1) * (u_all - u) - (v_all - v)
    mobius = u + m * (u_mu - u) + (v_mu - v)
    f = factorial(m)
    return DivisorSumReport(n, m, f * plain, f * mobius, plain, mobius)


def two_dim_fixed_tuple(n: int) -> CountResult:
    """Unordered two-part systems for the tuple (n, n):
    sum over j of c_j(n)^2 + c_j(n) c_{j+1}(n).

    This is a fixed-tuple count; it is not half of the all-tuples two-part
    count for n^2 (at n = 4 they are 3 and 7).
    """
    c = _difference_table(factorise(n).signature)[3][1:] + (0,)  # c_1 .. c_(Omega+1)
    return CountResult(sum(a * a + a * b for a, b in zip(c, c[1:])), "closed-form")


def brute_force_count(n: int, m: int, cap: int = 10**6) -> CountResult:
    """Count m-part systems for n by enumerating every JOF of every ordered
    tuple.  The independent oracle for count_m_part; cap is the JOF cap per
    tuple, shape.DEFAULT_CAP by default.
    """
    _check_positive(n)
    _check_index(m, 1, "m")
    from .jof import _counted, _walk, ordered_factorisations  # the only use of jof here

    total = 0

    def tally(chunk) -> None:
        nonlocal total
        total += len(chunk)

    for parts in ordered_factorisations(n, m):
        _walk(_counted(parts, cap)[0], tally)
    return CountResult(total, "brute-force")
