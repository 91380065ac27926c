"""Joint ordered factorisations (JOFs): their enumeration and closed-form count.

Every JOF of a tuple (n_1, ..., n_m) yields one sum system for
N = n_1 ... n_m, and the enumeration here is the brute-force oracle the
closed-form counts are checked against.  JOFs as values, with their
checker, forms and cap, live in shape.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod
from operator import add, itemgetter, mul

from .arith import (
    _SIGNATURE_CACHE,
    _check_index,
    _check_positive,
    _difference_table,
    big_omega,
    divisors,
    factorise,
)
from .shape import DEFAULT_CAP, CapExceeded, Entry, Jof, _check_parts

# JOFs the walk hands its sink at a time: a chunk is about 90 KB of the
# `enumerate` document, so the CLI holds one chunk of JOFs, never them all
_CHUNK = 256


def _counted(parts, cap: int) -> tuple[tuple[int, ...], int]:
    """The checked tuple and its number of JOFs.  Raises CapExceeded up
    front when m! passes cap, as any m parts have at least m! JOFs (one
    entry per part, in any order), and otherwise when count_for_tuple does.
    """
    parts = _check_parts(parts)
    orders = 1
    for i in range(2, len(parts) + 1):
        orders *= i
        if orders > cap:  # so m! is never formed for a large m
            raise CapExceeded(cap)
    count = count_for_tuple(parts)
    if count > cap:
        raise CapExceeded(cap)
    return parts, count


def _walk(parts: tuple[int, ...], sink) -> None:
    """Hand sink every JOF of a checked tuple in lexicographic (part, factor)
    order, as lists of _CHUNK JOFs (the last may be shorter).

    Depth-first over entries: at each position the open parts (residue > 1)
    other than the one just used are tried in ascending order, each with its
    factors >= 2 ascending.  With one part open, only its whole residue can
    end a JOF (a smaller factor leaves it open and next to itself), so that
    entry is taken at once; every branch of the walk ends in a JOF.  Entries
    are made once per (part, residue), so the JOFs share them.
    """
    m = len(parts)
    residues = list(parts)
    moves: list[dict[int, list[tuple[Entry, int]]]] = [{} for _ in parts]
    chunk: list[Jof] = []

    def steps(j: int, r: int) -> list[tuple[Entry, int]]:
        # ((part, factor), residue left) for each factor of r, ascending;
        # never empty, as r >= 2 is its own factor
        step = moves[j][r] = [((j + 1, f), r // f) for f in divisors(r)[1:]]
        return step

    def extend(prefix: Jof, last: int, open_count: int) -> None:
        nonlocal chunk
        for j in range(m):
            r = residues[j]
            if j == last or r == 1:
                continue
            step = moves[j].get(r) or steps(j, r)
            if open_count == 1:
                chunk.append(prefix + (step[-1][0],))
                if len(chunk) == _CHUNK:
                    sink(chunk)
                    chunk = []
                return
            for entry, rest in step:
                residues[j] = rest
                extend(prefix + (entry,), j, open_count - (rest == 1))
            residues[j] = r

    extend((), -1, m)
    if chunk:
        sink(chunk)


def enumerate_jofs(parts, cap: int = DEFAULT_CAP) -> list[Jof]:
    """All JOFs of a target tuple, in lexicographic (part, factor) order.

    Raises CapExceeded before building any when m! or the number of JOFs
    passes cap.
    """
    out: list[Jof] = []
    _walk(_counted(parts, cap)[0], out.extend)
    return out


def ordered_factorisations(n: int, m: int) -> list[tuple[int, ...]]:
    """Ordered m-tuples of integers >= 2 with product n, ascending lex.

    A first factor f is tried only when n // f has at least m - 1 prime
    factors, so every branch of the walk ends in a tuple."""
    _check_positive(n)
    _check_index(m, 1, "m")
    if m > big_omega(n):
        return []
    if m == 1:
        return [(n,)]
    out = []
    for f in divisors(n)[1:]:
        if big_omega(n // f) >= m - 1:
            for rest in ordered_factorisations(n // f, m - 1):
                out.append((f,) + rest)
    return out


# Route split of count_for_tuple.  Multiplying in k copies of a series of
# degree d one at a time costs about k^2 d^2 / 2 coefficient products, the
# power recurrence about k d^2; but each of the recurrence's products is by
# a coefficient of the product R of every series it takes, whose degree and
# width both grow with each signature, so with j signatures in it a step
# costs about j^2 times as much.  The signatures, most copies first, take
# the recurrence while the j-th has at least _SPLIT * j copies.  Measured
# (Python 3.11, 2 shared CPUs): 5 signatures of Omega 14 to 20 with 20
# copies each took 0.25 s at 4, 0.31 s at 2 and 0.73 s at 6; 3 of them with
# 40 copies 0.17 s at 4 and 1.1 s by plain products alone; 40 signatures of
# Omega 36 to 48 with 2 copies each 4.3 s by plain products and 139 s with
# each of them in the recurrence.
_SPLIT = 4


# Omega + 1 - e integers an entry, as many as a row of _difference_table,
# so the same quarter of the shared bound
@lru_cache(maxsize=_SIGNATURE_CACHE // 4)
def _scaled_series(signature: tuple[int, ...]) -> tuple[int, ...]:
    """R(t) = sum over l of s(l) Omega!/l! t^(l - e), for l = e .. Omega,
    with e the largest exponent and s the signed square-free counts
    (_difference_table(signature)[1]): the part's exponential generating
    function times Omega!, divided by t^e.  R(0) != 0, as s(e) counts the
    factorisations in which every factor holds the prime of exponent e."""
    omega = sum(signature)
    series = _difference_table(signature)[1]
    scale = factorial(omega)
    return tuple(series[l] * (scale // factorial(l)) for l in range(signature[0], omega + 1))


def _product(a, b) -> list[int]:
    """The product of two integer polynomials, coefficients ascending."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def _power_product(groups) -> list[int]:
    """Q = prod of R_g^k_g over the (R_g, k_g) of groups, each R_g(0) != 0,
    by J. C. P. Miller's recurrence for powers of a power series (Knuth,
    TAOCP vol. 2, 4.7).  Q'/Q = sum of k_g R_g'/R_g, so R Q' = Q S with
    R = prod of R_g and S = sum of k_g R_g' prod over h != g of R_h.  At t^(m-1)
    that is m R_0 q_m = sum over i = 1 .. deg R of (S_(i-1) - (m - i) R_i)
    q_(m-i): each coefficient costs deg R products by small coefficients
    and one exact division."""
    r, s = [1], []
    for series, k in groups:
        derivative = [k * i * c for i, c in enumerate(series)][1:]  # k_g R_g'
        s = list(map(add, _product(s, series), _product(r, derivative)))
        r = _product(r, series)
    order, tail = len(r) - 1, r[1:]
    start = [s[i - 1] + i * r[i] for i in range(1, order + 1)]
    q = [prod(series[0] ** k for series, k in groups)]
    for m in range(1, sum(k * (len(series) - 1) for series, k in groups) + 1):
        weights = [x - m * y for x, y in zip(start, tail)]
        # q_(m-1), q_(m-2), ..., q_(m-order), fewer while m <= order
        q.append(sum(map(mul, weights, q[:-order - 1:-1])) // (m * r[0]))
    return q


def count_for_tuple(parts) -> int:
    """Number of JOFs of a fixed target tuple, by closed form.

    Part j contributes the series s_j(l) = signed square-free counts of n_j
    into l factors, non-zero exactly for l from n_j's largest prime exponent
    e_j to Omega_j = Omega(n_j), as no square-free factor holds a prime
    twice.  Interleaving the parts' factors is the labelled product of their
    exponential generating functions S_j(t) = sum of s_j(l) t^l / l!, and the
    count is sum over L of L! [t^L] prod S_j.  Scaled to integers,
    Omega_j! S_j = t^(e_j) R_j with R_j of _scaled_series, so with E the sum
    of the e_j and Q = prod R_j = sum of q_n t^n the count is
    sum over n of (E + n)! q_n / prod Omega_j!, summed by Horner on the
    rising factorial.

    R_j depends only on n_j's prime signature.  A prime power's is the
    constant 1, so a tuple of prime powers is the multinomial
    (sum Omega_j)! / prod Omega_j! with no polynomial work.  Q multiplies
    the other series in one part at a time, except that signatures with
    many copies (_SPLIT) are raised to their powers together first by
    _power_product, whose cost is linear in their number of copies.
    """
    parts = _check_parts(parts)
    copies: dict[tuple[int, ...], int] = {}
    for n in parts:
        signature = factorise(n).signature
        copies[signature] = copies.get(signature, 0) + 1
    top = 0  # E
    scale = 1  # prod of Omega_j!
    groups = []
    for signature, k in copies.items():
        omega = sum(signature)
        top += k * signature[0]
        scale *= factorial(omega) ** k
        if signature[0] < omega:
            groups.append((_scaled_series(signature), k))
    groups.sort(key=itemgetter(1), reverse=True)
    j = 0
    while j < len(groups) and groups[j][1] >= _SPLIT * (j + 1):
        j += 1
    plain = [series for series, k in groups[j:] for _ in range(k)]
    q = _power_product(groups[:j]) if j else (plain.pop() if plain else (1,))
    for series in plain:
        q = _product(q, series)
    total = 0
    for n in range(len(q) - 1, -1, -1):
        total = total * (top + n + 1) + q[n]
    return factorial(top) * total // scale
