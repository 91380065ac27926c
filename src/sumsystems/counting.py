"""Counting sum systems.

The number of m-part sum systems for N is a finite Stirling-weighted sum of
signed square-free factorisation counts; everything else here (two-part
shortcut, unordered counts, divisor-sum identities, the fixed-tuple
two-part formula) hangs off that and off the c_j divisor functions.  The
brute-force count, driven by the JOF enumerator, is the oracle the closed
forms are measured against.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Sequence
from functools import lru_cache
from math import comb, factorial

from .arith import (
    _SIGNATURE_CACHE,
    _Record,
    _check_positive,
    big_omega,
    factorise,
    nontrivial_divisor,
    signature_squarefree_count,
)
from .jof import DEFAULT_CAP, enumerate_jofs, ordered_factorisations

_stirling_rows: list[list[int]] = [[1]]


def stirling2(total: int, blocks: int) -> int:
    """Stirling number of the second kind: partitions of a `total`-set into
    `blocks` non-empty blocks.  Grown row by row and cached.
    """
    if total < 0 or blocks < 0:
        raise ValueError("stirling2 needs non-negative arguments")
    if blocks > total:
        return 0
    while len(_stirling_rows) <= total:
        prev = _stirling_rows[-1]
        length = len(_stirling_rows)
        row = [0] * (length + 1)
        for k in range(1, length + 1):
            above = prev[k] if k < length else 0
            row[k] = k * above + prev[k - 1]
        _stirling_rows.append(row)
    return _stirling_rows[total][blocks]


class CountResult(namedtuple("CountResult", "value method"), _Record):
    """A count together with how it was obtained: method is "closed-form",
    "brute-force" or "divisor-recurrence"."""

    __slots__ = ()


@lru_cache(maxsize=_SIGNATURE_CACHE)
def _n_m(signature: tuple[int, ...], m: int) -> int:
    """Number of m-part sum systems (ordered part tuples) for any n with
    this prime signature."""
    if m == 0:
        return 1 if not signature else 0
    omega = sum(signature)
    if m > omega:
        return 0
    return factorial(m) * sum(
        stirling2(length, m) * signature_squarefree_count(length, signature)
        for length in range(m, omega + 1)
    )


def count_m_part(n: int, m: int) -> CountResult:
    """Closed-form count of m-part sum systems for n.

    m = 0 is the convention value: 1 at n = 1, else 0; it makes the
    divisor-sum identities uniform.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    return CountResult(_n_m(factorise(n).signature, m), "closed-form")


def count_two_part(n: int) -> CountResult:
    """Two-part count as twice the sum of c_L(n) over 2 <= L <= Omega(n).

    Deliberately routed through the multiplicative c_L formula rather than
    the Stirling sum, so the two agree only if both are right.
    """
    total = 2 * sum(nontrivial_divisor(length, n) for length in range(2, big_omega(n) + 1))
    return CountResult(total, "closed-form")


# Unbounded on purpose: the recursion needs every (signature, m') entry below
# one (signature, m) and revisits them from many classes.  The worst signature
# below 2**63, (25, 10, 4, 2, 1, 1), needs 25,834 entries at m = 5 and 72,549 at
# m = 21.  Bounded at 4,096, the LRU evicts entries the recursion still needs:
# m = 5 did not finish in 200 s, against 14 s unbounded (Python 3.11, 2 CPUs).
@lru_cache(maxsize=None)
def _n_m_recurrence(signature: tuple[int, ...], m: int) -> int:
    if m == 0:
        return 0 if signature else 1
    return sum(
        count * ((m - 1) * _n_m_recurrence(sub, m) + m * _n_m_recurrence(sub, m - 1))
        for sub, _, count in _proper_divisor_classes(signature)
    )


def count_by_recurrence(n: int, m: int) -> CountResult:
    """Same count, but from the divisor-sum recurrence with only
    N = 1 as the base case.  An independent route for cross-checking.

    The sum over proper divisors runs over their signature classes, each
    weighted by its size, so no divisor of n is listed or factorised.
    """
    _check_positive(n)
    if m < 0:
        raise ValueError("m must be non-negative")
    return CountResult(_n_m_recurrence(factorise(n).signature, m), "divisor-recurrence")


def _m_m(signature: tuple[int, ...], m: int) -> int:
    """Unordered count: the ordered count divided by m! (always divides)."""
    ordered = _n_m(signature, m)
    if not ordered:
        return 0
    q, r = divmod(ordered, factorial(m))
    if r:
        raise RuntimeError(
            f"ordered count {ordered} for signature {signature}, m={m} is not"
            f" divisible by {m}!; this indicates a bug"
        )
    return q


def count_unordered(n: int, m: int) -> CountResult:
    """m-part sum systems counted up to reordering the parts."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return CountResult(_m_m(factorise(n).signature, m), "closed-form")


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


@lru_cache(maxsize=_SIGNATURE_CACHE)
def _proper_divisor_classes(
    signature: tuple[int, ...],
) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """(signature of d, mu(n/d), number of such d) over the proper divisors d
    of any n with this signature.

    Grown one prime at a time: d takes a of the prime's e copies and n/d
    the other e - a, so no divisor is formed or factorised.
    """
    classes: Counter = Counter({((), 1): 1})
    for e in signature:
        grown: Counter = Counter()
        for (sub, mu), count in classes.items():
            for a in range(e + 1):
                key = tuple(sorted(sub + (a,), reverse=True)) if a else sub
                grown[key, (mu, -mu, 0)[min(e - a, 2)]] += count
        classes = grown
    classes[signature, 1] -= 1  # d = n is not a proper divisor
    return tuple((sub, mu, count) for (sub, mu), count in classes.items() if count)


def divisor_sum_check(n: int, m: int) -> DivisorSumReport:
    """Evaluate all four divisor-sum identities at (n, m) exactly.

    The sums over proper divisors d run over the classes of d by (signature
    of d, mu(n/d)), taken from n's own exponents: the counts depend only on
    the signature, so each class is summed once, weighted by its size, and
    no divisor is factorised.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    pf = factorise(n)
    ordered, unordered = _n_m(pf.signature, m), _m_m(pf.signature, m)
    ordered_plain, ordered_mobius = ordered, ordered
    unordered_plain, unordered_mobius = unordered, unordered
    for signature, mu, count in _proper_divisor_classes(pf.signature):
        o_m, o_less = _n_m(signature, m), _n_m(signature, m - 1)
        u_m, u_less = _m_m(signature, m), _m_m(signature, m - 1)
        ordered_plain -= count * ((m - 1) * o_m + m * o_less)
        ordered_mobius += count * mu * m * (o_m + o_less)
        unordered_plain -= count * ((m - 1) * u_m + u_less)
        unordered_mobius += count * mu * (m * u_m + u_less)
    return DivisorSumReport(
        n, m, ordered_plain, ordered_mobius, unordered_plain, unordered_mobius
    )


def two_dim_fixed_tuple(n: int) -> CountResult:
    """Unordered two-part systems for the tuple (n, n):
    sum over j of c_j(n)^2 + c_j(n) c_{j+1}(n).

    This is a fixed-tuple count; it is not half of the all-tuples two-part
    count for n^2 (at n = 4 they are 3 and 7).
    """
    total = 0
    for j in range(1, big_omega(n) + 1):
        cj = nontrivial_divisor(j, n)
        total += cj * cj + cj * nontrivial_divisor(j + 1, n)
    return CountResult(total, "closed-form")


def binomial_transform(seq: Sequence[int]) -> list[int]:
    """a_j = sum over i <= j of C(j, i) b_i."""
    return [sum(comb(j, i) * seq[i] for i in range(j + 1)) for j in range(len(seq))]


def binomial_inversion(seq: Sequence[int]) -> list[int]:
    """Inverse of binomial_transform: b_j = sum of (-1)**(j-i) C(j, i) a_i."""
    return [
        sum((-1) ** (j - i) * comb(j, i) * seq[i] for i in range(j + 1))
        for j in range(len(seq))
    ]


def brute_force_count(n: int, m: int, cap: int = DEFAULT_CAP) -> CountResult:
    """Count m-part systems for n by enumerating every JOF of every ordered
    tuple.  The independent oracle for count_m_part.
    """
    total = 0
    for parts in ordered_factorisations(n, m):
        total += len(enumerate_jofs(parts, cap=cap))
    return CountResult(total, "brute-force")
