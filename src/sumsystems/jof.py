"""Joint ordered factorisations (JOFs).

A JOF of a tuple (n_1, ..., n_m) of integers >= 2 is a sequence of
(part, factor) entries, factors >= 2, such that no two consecutive entries
name the same part and the factors carrying each part j multiply to n_j.
Every JOF yields one sum system for N = n_1 ... n_m, and the enumeration
here is the brute-force oracle the closed-form counts are checked against.
"""

from __future__ import annotations

import json
from math import comb

from .arith import factorise, nontrivial_divisors, signature_squarefree_count

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


def _entry_shape_error(jof) -> str | None:
    for pos, entry in enumerate(jof, start=1):
        if type(entry) is not tuple or len(entry) != 2:
            return f"entry {pos} is not a (part, factor) pair of integers"
        part, factor = entry
        if type(part) is not int or type(factor) is not int:
            return f"entry {pos} is not a (part, factor) pair of integers"
        if part < 1:
            return f"entry {pos} names part {part}; parts are numbered from 1"
        if factor < 2:
            return f"entry {pos} has factor {factor}; factors must be >= 2"
    return None


def validate(jof, parts) -> tuple[bool, str | None]:
    """Check a candidate JOF against a target tuple.

    Returns (True, None) or (False, reason) where the reason names the first
    violated condition.  Never raises on malformed input.
    """
    try:
        parts = _check_parts(parts)
        jof = tuple(tuple(entry) for entry in jof)
    except (TypeError, ValueError) as exc:
        return False, str(exc)
    reason = _entry_shape_error(jof)
    if reason is not None:
        return False, reason
    if not jof:
        return False, "a JOF needs at least one entry"
    m = len(parts)
    for pos, (part, _) in enumerate(jof, start=1):
        if part > m:
            return False, f"entry {pos} names part {part}, but the tuple has {m} parts"
    for pos in range(1, len(jof)):
        if jof[pos][0] == jof[pos - 1][0]:
            return False, f"entries {pos} and {pos + 1} name the same part {jof[pos][0]}"
    products = [1] * m
    for part, factor in jof:
        products[part - 1] *= factor
    for j in range(m):
        if products[j] != parts[j]:
            return False, (
                f"part {j + 1} factors multiply to {products[j]}, expected {parts[j]}"
            )
    return True, None


def infer_parts(jof) -> tuple[int, ...]:
    """Target tuple of a JOF, validating it along the way.

    The number of parts is the largest part index named; every part up to it
    must appear.  Raises ValueError on anything malformed.
    """
    return _checked_jof(jof)[1]


def _checked_jof(jof) -> tuple[Jof, tuple[int, ...]]:
    """The JOF as tuples and its target tuple, as infer_parts checks them.

    Single pass: the builders call this once per JOF, so it has to stay lean.
    """
    try:
        jof = tuple(map(tuple, jof))
    except TypeError:
        raise ValueError("a JOF is a sequence of (part, factor) pairs") from None
    if not jof:
        raise ValueError("a JOF needs at least one entry")
    products: list[int] = []
    last = 0
    for pos, entry in enumerate(jof, start=1):
        if len(entry) != 2:
            raise ValueError(f"entry {pos} is not a (part, factor) pair of integers")
        part, factor = entry
        if type(part) is not int or type(factor) is not int:
            raise ValueError(f"entry {pos} is not a (part, factor) pair of integers")
        if part < 1:
            raise ValueError(f"entry {pos} names part {part}; parts are numbered from 1")
        if factor < 2:
            raise ValueError(f"entry {pos} has factor {factor}; factors must be >= 2")
        if part == last:
            raise ValueError(f"entries {pos - 1} and {pos} name the same part {part}")
        while len(products) < part:
            products.append(1)
        products[part - 1] *= factor
        last = part
    for j, product in enumerate(products, start=1):
        if product == 1:
            raise ValueError(f"part {j} never appears (parts run 1..{len(products)})")
    return jof, tuple(products)


def partial_products(jof) -> tuple[int, ...]:
    """F(1) = 1, F(l+1) = F(l) * f_l; the last value is N."""
    out = [1]
    for _, factor in jof:
        out.append(out[-1] * factor)
    return tuple(out)


def enumerate_jofs(parts, cap: int = DEFAULT_CAP) -> list[Jof]:
    """All JOFs of a target tuple, in lexicographic (part, factor) order.

    Depth-first over entries: at each position the open parts other than the
    one just used are tried in ascending order, each with its factors >= 2
    ascending.  Raises CapExceeded rather than truncating.
    """
    parts = _check_parts(parts)
    m = len(parts)
    residues = list(parts)
    out: list[Jof] = []
    entries: list[Entry] = []
    # open = parts whose residue is still > 1
    def extend(last: int, open_count: int) -> None:
        if open_count == 0:
            if len(out) >= cap:
                raise CapExceeded(cap)
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
    """Ordered m-tuples of integers >= 2 with product n, ascending lex."""
    if n < 1:
        raise ValueError("n must be positive")
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        return [(n,)] if n >= 2 else []
    out = []
    for f in nontrivial_divisors(n) if n >= 2 else ():
        if f == n and m > 1:
            continue
        for rest in ordered_factorisations(n // f, m - 1):
            out.append((f,) + rest)
    return out


def count_for_tuple(parts) -> int:
    """Number of JOFs of a fixed target tuple, by closed form.

    Part j contributes the series s_j(l) = signed square-free counts of n_j
    into l factors; interleaving the parts' factors is the labelled (EGF)
    product of these series, kept here in integers as the binomial
    convolution acc'(L) = sum over a of C(L, a) acc(a) s_j(L - a).  The
    count is the sum of the product's coefficients.  The binomial weight
    matters: without it (2, 6) would count 1 instead of the correct 4.
    """
    parts = _check_parts(parts)
    acc = [1]
    for n in parts:
        pf = factorise(n)
        series = [
            signature_squarefree_count(length, pf.signature)
            for length in range(pf.big_omega + 1)
        ]
        step = [0] * (len(acc) + len(series) - 1)
        for a, x in enumerate(acc):
            if x:
                for length, s in enumerate(series):
                    if s:
                        step[a + length] += comb(a + length, a) * x * s
        acc = step
    return sum(acc)


def parse_jof_text(text: str) -> Jof:
    """Parse the comma-separated part:factor form, e.g. "1:3,3:3,2:5".

    A JSON array of [part, factor] pairs is accepted too.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty JOF")
    if text.startswith("["):
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
    reason = _entry_shape_error(jof)
    if reason is not None:
        raise ValueError(reason)
    return jof


def jof_to_text(jof) -> str:
    return ",".join(f"{part}:{factor}" for part, factor in jof)


def jof_to_pairs(jof) -> list[list[int]]:
    """JSON-friendly array-of-pairs form."""
    return [[part, factor] for part, factor in jof]
