"""JOFs as values: their shape, their text and JSON forms, and the checker.

A JOF of a tuple (n_1, ..., n_m) of integers >= 2 is a sequence of
(part, factor) entries, factors >= 2, such that no two consecutive entries
name the same part and the factors carrying each part j multiply to n_j.
Nothing here factorises or counts, so the builders load no arithmetic.

One checker, _checked_jof, holds these rules for validate, infer_parts and
the builders; parse_jof_text applies its per-entry shape checks only.  It
reports the first fault it meets, in this order: a JOF that is not a
sequence of sequences; no entries; then entry by entry, not a pair of
integers, part < 1, factor < 2, a part beyond the target tuple (validate
only), the same part as the entry before; then a part that never appears
(infer_parts, the builders) or a product that misses the target (validate).
"""

from __future__ import annotations

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
