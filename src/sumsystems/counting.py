"""Counting sum systems.

The number of m-part sum systems for N is a finite Stirling-weighted sum of
signed square-free factorisation counts; everything else here (two-part
shortcut, unordered counts, divisor-sum identities, the fixed-tuple
two-part formula) hangs off that and off the c_j divisor functions.  The
brute-force count, driven by the JOF enumerator, is the oracle the closed
forms are measured against.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache
from itertools import repeat
from math import comb, factorial
from operator import add, mul

from .arith import (
    _SIGNATURE_CACHE,
    _Record,
    _binomial_d_sum,
    _check_index,
    _check_positive,
    big_omega,
    factorise,
    nontrivial_divisor,
)
from .jof import DEFAULT_CAP, enumerate_jofs, ordered_factorisations

_STIRLING_TOP = 62  # every count takes S(L, m) with L <= Omega(n) <= 62
_stirling_rows: list[list[int]] = [[1]]


def stirling2(total: int, blocks: int) -> int:
    """Stirling number of the second kind: partitions of a `total`-set into
    `blocks` non-empty blocks.  Rows up to total 62 are grown and cached;
    a larger total sweeps the band S(b + d, b), d <= total - blocks, alone.
    """
    if total < 0 or blocks < 0:
        raise ValueError("stirling2 needs non-negative arguments")
    if blocks > total:
        return 0
    if total > _STIRLING_TOP:
        band = [1] + [0] * (total - blocks)  # band[d] = S(b + d, b), from b = 0
        for b in range(1, blocks + 1):
            for d in range(1, len(band)):
                band[d] = b * band[d - 1] + band[d]
        return band[-1]
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
def _n_m(signature: tuple[int, ...], m: int, shift: int) -> int:
    """m! times the sum over L of S(L, m) ((e - mu)^(*L) * d_shift) at any n
    with this prime signature.  Shift 0 counts the m-part sum systems
    (ordered part tuples) for n; as d_k * 1 = d_(k+1) and d_k * mu = d_(k-1),
    shift 1 and -1 sum that count over d | n, plain and weighted by mu(n/d).
    """
    omega = sum(signature)
    if m > omega:
        return 0
    return factorial(m) * sum(
        stirling2(length, m) * _binomial_d_sum(length, shift, signature)
        for length in range(m, omega + 1)
    )


def count_m_part(n: int, m: int) -> CountResult:
    """Closed-form count of m-part sum systems for n.

    m = 0 is the convention value: 1 at n = 1, else 0; it makes the
    divisor-sum identities uniform.
    """
    _check_index(m, 0, "m")
    return CountResult(_n_m(factorise(n).signature, m, 0), "closed-form")


def count_two_part(n: int) -> CountResult:
    """Two-part count as twice the sum of c_L(n) over 2 <= L <= Omega(n).

    Deliberately routed through the multiplicative c_L formula rather than
    the Stirling sum, so the two agree only if both are right.
    """
    total = 2 * sum(nontrivial_divisor(length, n) for length in range(2, big_omega(n) + 1))
    return CountResult(total, "closed-form")


def _divisor_classes(signature: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """{signature of d: number of such d} over the divisors d of any n with
    this signature, n included.  Grown one prime at a time, smallest exponent
    first, so no divisor is formed or factorised."""
    classes = {(): 1}
    for e in reversed(signature):
        grown = {}
        for sub, count in classes.items():
            i = 0
            for a in range(e, -1, -1):
                while i < len(sub) and sub[i] > a:
                    i += 1
                key = sub[:i] + (a,) + sub[i:] if a else sub
                grown[key] = grown.get(key, 0) + count
        classes = grown
    return classes


@lru_cache(maxsize=_SIGNATURE_CACHE)
def _recurrence_row(signature: tuple[int, ...]) -> tuple[int, ...]:
    """N_0 .. N_Omega at any n with this signature, from the divisor-sum
    recurrence.  The divisor classes of n are walked smallest Omega first, so
    a class's proper divisor classes have their rows when it is reached."""
    rows = {(): [1]}
    for sub in sorted(_divisor_classes(signature), key=sum)[1:]:
        below = [0] * (sum(sub) + 1)  # sum of N_m(d) over the proper divisors d
        for d, count in _divisor_classes(sub).items():
            if d != sub:
                row = rows[d]
                below[: len(row)] = map(add, below, map(mul, row, repeat(count)))
        rows[sub] = [0] + [(m - 1) * below[m] + m * below[m - 1] for m in range(1, len(below))]
    return tuple(rows[signature])


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


def _m_m(signature: tuple[int, ...], m: int) -> int:
    """Unordered count: the ordered count divided by m! (always divides)."""
    ordered = _n_m(signature, m, 0)
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
    _check_index(m, 0, "m")
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


def divisor_sum_check(n: int, m: int) -> DivisorSumReport:
    """Evaluate all four divisor-sum identities at (n, m) exactly.

    A sum over the proper divisors d of n is the kernel at n with shift 1
    (or -1, weighted by mu(n/d)) less the d = n term; its unordered form is
    divided by m! or (m - 1)!, which divide every term.  No divisor of n is
    listed or factorised.
    """
    _check_index(m, 1, "m")
    sig = factorise(n).signature
    if m > sum(sig) + 1:  # N_m and N_(m-1) vanish on every divisor
        return DivisorSumReport(n, m, 0, 0, 0, 0)
    # N_m and N_(m-1): at n, summed over d | n, and weighted by mu(n/d)
    o, o_all, o_mu = _n_m(sig, m, 0), _n_m(sig, m, 1), _n_m(sig, m, -1)
    p, p_all, p_mu = _n_m(sig, m - 1, 0), _n_m(sig, m - 1, 1), _n_m(sig, m - 1, -1)
    f_p = factorial(m - 1)
    f_o = m * f_p
    u, u_all, u_mu = o // f_o, o_all // f_o, o_mu // f_o
    v, v_all, v_mu = p // f_p, p_all // f_p, p_mu // f_p
    return DivisorSumReport(
        n,
        m,
        o - (m - 1) * (o_all - o) - m * (p_all - p),
        o + m * (o_mu - o + p_mu - p),
        u - (m - 1) * (u_all - u) - (v_all - v),
        u + m * (u_mu - u) + (v_mu - v),
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
    _check_positive(n)
    _check_index(m, 1, "m")
    total = 0
    for parts in ordered_factorisations(n, m):
        total += len(enumerate_jofs(parts, cap=cap))
    return CountResult(total, "brute-force")
