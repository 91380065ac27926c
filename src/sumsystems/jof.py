"""Joint ordered factorisations (JOFs).

A JOF of a tuple (n_1, ..., n_m) of integers >= 2 is a sequence of
(part, factor) entries, factors >= 2, such that no two consecutive entries
name the same part and the factors carrying each part j multiply to n_j.
Every JOF yields one sum system for N = n_1 ... n_m, and the enumeration
here is the brute-force oracle the closed-form counts are checked against.

One checker, _checked_jof, holds these rules for validate, infer_parts and
the builders; parse_jof_text applies its per-entry shape checks only.  It
reports the first fault it meets, in this order: a JOF that is not a
sequence of sequences; no entries; then entry by entry, not a pair of
integers, part < 1, factor < 2, a part beyond the target tuple (validate
only), the same part as the entry before; then a part that never appears
(infer_parts, the builders) or a product that misses the target (validate).
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
    factorise,
    nontrivial_divisors,
)

Entry = tuple[int, int]
Jof = tuple[Entry, ...]

DEFAULT_CAP = 10**6


class CapExceeded(RuntimeError):
    """Raised when an enumeration would emit more JOFs than the cap allows."""

    def __init__(self, cap: int) -> None:
        super().__init__(f"enumeration exceeds the cap of {cap} results")
        self.cap = cap


def _check_parts(parts) -> tuple[int, ...]:
    parts = tuple(parts)
    if not parts:
        raise ValueError("a target tuple needs at least one part")
    for n in parts:
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise ValueError(f"target tuple entries must be integers >= 2, got {n!r}")
    return parts


def _entry(pos: int, entry: tuple) -> Entry:
    """Entry pos of a JOF, checked for shape: a pair of integers whose part
    is at least 1 and whose factor is at least 2."""
    if len(entry) != 2 or type(entry[0]) is not int or type(entry[1]) is not int:
        raise ValueError(f"entry {pos} is not a (part, factor) pair of integers")
    part, factor = entry
    if part < 1:
        raise ValueError(f"entry {pos} names part {part}; parts are numbered from 1")
    if factor < 2:
        raise ValueError(f"entry {pos} has factor {factor}; factors must be >= 2")
    return entry


def validate(jof, parts) -> tuple[bool, str | None]:
    """Check a candidate JOF against a target tuple.

    Returns (True, None) or (False, reason) where the reason names the first
    violated condition.  Never raises on malformed input.
    """
    try:
        parts = _check_parts(parts)
        _, products = _checked_jof(jof, len(parts))
    except (TypeError, ValueError) as exc:
        return False, str(exc)
    for j, n in enumerate(parts, start=1):
        product = products.get(j, 1)  # no factor is 1, so 1 means absent
        if product != n:
            return False, f"part {j} factors multiply to {product}, expected {n}"
    return True, None


def infer_parts(jof) -> tuple[int, ...]:
    """Target tuple of a JOF, validating it along the way.

    The number of parts is the largest part index named; every part up to it
    must appear.  Raises ValueError on anything malformed.
    """
    products = _checked_jof(jof)[1]
    return tuple([products[j] for j in range(1, len(products) + 1)])


def _checked_jof(jof, m: int | None = None) -> tuple[Jof, dict[int, int]]:
    """The JOF as tuples and the product of each part's factors, by part.

    One pass, as the builders call it per JOF.  With m, the target's number
    of parts, a part past m is a fault and an absent part is left to the
    caller's comparison; without, the parts must be 1..len(products).
    Products are kept by part, so memory follows the entries, not the
    largest part named.
    """
    try:
        jof = tuple(map(tuple, jof))
    except TypeError:
        raise ValueError("a JOF is a sequence of (part, factor) pairs") from None
    if not jof:
        raise ValueError("a JOF needs at least one entry")
    products: dict[int, int] = {}
    last = 0
    for pos, entry in enumerate(jof, start=1):
        part, factor = _entry(pos, entry)
        if m is not None and part > m:
            raise ValueError(f"entry {pos} names part {part}, but the tuple has {m} parts")
        if part == last:
            raise ValueError(f"entries {pos - 1} and {pos} name the same part {part}")
        products[part] = products.get(part, 1) * factor
        last = part
    if m is None and max(products) > len(products):
        missing = next(j for j in range(1, len(products) + 1) if j not in products)
        raise ValueError(f"part {missing} never appears (parts run 1..{max(products)})")
    return jof, products


def enumerate_jofs(parts, cap: int = DEFAULT_CAP) -> list[Jof]:
    """All JOFs of a target tuple, in lexicographic (part, factor) order.

    Depth-first over entries: at each position the open parts other than the
    one just used are tried in ascending order, each with its factors >= 2
    ascending.  Raises CapExceeded up front when m! passes cap, as any m
    parts have at least m! JOFs (one entry per part, in any order), and
    otherwise when count_for_tuple does.
    """
    parts = _check_parts(parts)
    orders = 1
    for i in range(2, len(parts) + 1):
        orders *= i
        if orders > cap:  # so m! is never formed for a large m
            raise CapExceeded(cap)
    if count_for_tuple(parts) > cap:
        raise CapExceeded(cap)
    m = len(parts)
    residues = list(parts)
    out: list[Jof] = []
    entries: list[Entry] = []
    # open = parts whose residue is still > 1
    def extend(last: int, open_count: int) -> None:
        if open_count == 0:
            out.append(tuple(entries))
            return
        for j in range(m):
            if j == last:
                continue
            r = residues[j]
            if r == 1:
                continue
            for f in nontrivial_divisors(r):
                residues[j] = r // f
                entries.append((j + 1, f))
                extend(j, open_count - (1 if f == r else 0))
                entries.pop()
                residues[j] = r
    extend(-1, m)
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
    for f in nontrivial_divisors(n):
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


def parse_jof_text(text: str) -> Jof:
    """Parse the comma-separated part:factor form, e.g. "1:3,3:3,2:5".

    A JSON array of [part, factor] pairs is accepted too.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty JOF")
    if text.startswith("["):
        import json  # only here, so the counting paths never load it

        try:
            raw = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays nested too deep for the decoder
            raise ValueError(f"bad JOF JSON: {exc}") from exc
        if not isinstance(raw, list):
            raise ValueError("JOF JSON must be an array of [part, factor] pairs")
        entries = []
        for item in raw:
            if not (isinstance(item, list) and len(item) == 2):
                raise ValueError("JOF JSON must be an array of [part, factor] pairs")
            entries.append((item[0], item[1]))
        jof = tuple(entries)
    else:
        entries = []
        for chunk in text.split(","):
            head, sep, tail = chunk.strip().partition(":")
            if not sep:
                raise ValueError(f"bad JOF entry {chunk.strip()!r}, expected part:factor")
            try:
                entries.append((int(head), int(tail)))
            except ValueError:
                raise ValueError(
                    f"bad JOF entry {chunk.strip()!r}, expected part:factor"
                ) from None
        jof = tuple(entries)
    for pos, entry in enumerate(jof, start=1):
        _entry(pos, entry)
    return jof


def jof_to_text(jof) -> str:
    return ",".join(f"{part}:{factor}" for part, factor in jof)


def jof_to_pairs(jof) -> list[list[int]]:
    """JSON-friendly array-of-pairs form."""
    return [[part, factor] for part, factor in jof]
