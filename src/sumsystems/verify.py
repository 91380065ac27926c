"""Verification of sum systems and centred sum systems.

Verification never trusts construction (the builders skip the public
constructors' checks), and each verifier has one decider per size.  A
system with N <= _NARROW is certified by one bitset product, below; any
other is read back as jof_of_system (the inverse of the builders) reads it,
plain or doubled in its own storage, in time in proportion to sum |A_j|.
A reading is accepted only when its JOF rebuilds every component exactly;
then each k in 0..N-1 has exactly one mixed-radix digit string in the
JOF's factors, so the components tile 0..N-1.  Every genuine system
passes its decider (each is the blow-up of exactly one JOF), so only a
rejection gets the per-component checks and the Minkowski fold, which name
its reason.

The product shifts each component to start at 0 (a plain one must start
there, a doubled one at -max) and multiplies their bitsets, each the sum of
2^a over its values a.  Each product term is one sum of one value per component, so the
coefficients sum to N, and a repeated sum carries, which leaves fewer than
N bits set.  A product equal to sum of 2^(step*k) over k < N, step 1 for
plain and 2 for doubled components, thus has the N sums 0, step, ...,
step*(N-1), each once: a sum system for step 1.  For step 2 each value of a
shifted component is itself a sum (the other components add their 0), so
even: halved, the components are a sum system.  Each sum system is the
blow-up of exactly one JOF, so its components contain 0 and are
palindromic, and their doubled forms are symmetric and of one parity: every
per-component check would pass.  Each component's guards run before it is
shifted: at least 2 values (a {0} component passes the product but is
refused), its start, and the running sum of (max - min) over it and the
components before it <= step*(N-1), so no bitset is wider than 2N bits
whatever the values.

Both verifiers share one fold over integers used as bitsets: component A
becomes the bit-polynomial sum of 2^a over a in A, and the running product
of these polynomials has coefficient c at 2^s when s arises as a sum in c
ways.  A repeated sum forces a carry and every carry lowers the popcount,
so a stage is collision-free exactly when the popcount of the product is
|acc| * |A_j|.  A dense stage whose component is sparse, c values with
c^2 < max A_j / 32, multiplies by shifted additions instead, the sum of
acc << a over its values a (the first is 0): the same product, in time in
proportion to c times the width, where CPython multiplies the component's
bitset as a dense number.  Measured on Pythons 3.10-3.13 (2 shared CPUs)
against random accumulators of 2^12 to 2^20 bits and components of 2 to
181 values over 2^10 to 2^20 bits: 2 values over 2^17 bits took 5-310 us
by shifts and 44-6,500 us as a product.  The bound is cautious: past it
shifts kept winning, by up to 8x, until c^2 reached about 16 to 64 times
max / 32.  Within it shifts lost, by up to 2.7x, only where a 2^12-bit
accumulator met 16 or more values over 2^20 bits.  A stage whose sums
would fill less than 1/64 of their range is added on a set of sums
instead, so the memory of every stage follows the number of sums it
produces, not the size of the values.
Before the fold, a system whose largest possible sum (sum of max A_j)
exceeds N - 1 is rejected as not covering; past that check, N distinct
sums in 0..N-1 are all of 0..N-1, so a collision-free fold covers.

The fold runs under a budget of _BUDGET bits a stage, a sparse stage
priced at _DENSE bits per sum, and a dense stage's product under a price
of _PRICE, which follows its operands.  The decider has already failed
when the fold runs, so at the first stage past either the components are
refused with "no JOF builds these components", and a rejected document
costs bounded time and memory whatever its N.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, prod

from .systems import _MEMO, _NARROW, CentredSumSystem, SumSystem, _doubled, _read_jof, _symmetric

Verdict = tuple[bool, "str | None"]


@lru_cache(maxsize=_MEMO)
def _bitset(values) -> int:
    """Integer with bit v - min set for each v in values, distinct and
    ascending: a bytearray filled once and converted once,
    O(|values| + (max - min)/8), where summing 1 << v would build a
    max-bit integer per value.  The certificate takes each component's
    bitset from this memo; the fold, which passes lists, calls __wrapped__."""
    low = values[0]
    buf = bytearray(((values[-1] - low) >> 3) + 1)
    for v in map((-low).__add__, values) if low else values:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def _members(bits: int) -> set[int]:
    """The positions of the set bits of a non-negative integer."""
    digits = bin(bits)[:1:-1]
    found = set()
    i = digits.find("1")
    while i >= 0:
        found.add(i)
        i = digits.find("1", i + 1)
    return found


# A stage is multiplied as bitsets while its sums would fill at least
# 1/_DENSE of their range, so a bitset takes at most 8 bytes per sum, less
# than a set entry.  Sparser products grow with the range, not the sums,
# and a set of the sums is both smaller and faster.
_DENSE = 64

# No fold stage takes more than _BUDGET bits, 2 MiB as a bitset; a sparse
# stage is priced at _DENSE bits per sum.
_BUDGET = 1 << 24

# A dense stage's product is priced at its width times the square root of
# the number of values of its sparser operand (the sums so far, or the
# component): Karatsuba splits an operand of c values down to pieces of one
# value each, about c^0.585 passes over the other.  Measured on Python 3.11
# (2 shared CPUs): products priced just under 2^26 took 0.05-0.4 s, at
# 2^27.5 1.6 s and at 2^28 2.5 s; two bitsets of 2^23 bits and 131,072
# values each, priced at 2^32.5, took 4.5 s.  The sums of a system past
# the cover check lie below N, so any system with N <= 2^20 prices its
# stages at most at N^1.25 = 2^25.
_PRICE = 1 << 26


def _fold(components, n: int, cover_reason: str) -> Verdict:
    """Fold components, each ascending from 0, whose sizes multiply to n and
    which failed their decider, to name why they are no sum system.

    Rejects with cover_reason when the maxima sum past n - 1; otherwise
    reports the first stage whose sums collide.  A dense stage multiplies
    bitsets (of _bitset, max + 1 bits each), or adds the running bitset
    shifted by each value of a component of c values with c^2 < max / 32,
    and counts the product's set bits; a sparse one (the range wider than
    _DENSE times the sums) counts a set of sums, so no bitset holds more
    than _DENSE bits per sum of its stage.  A stage that would pass
    _BUDGET, or a dense one whose product would pass _PRICE, is not folded:
    the decider has failed, so no JOF builds the components.  A
    collision-free fold has n distinct sums within 0..n-1, so it covers
    them (and when the maxima sum below n - 1 it must collide).
    """
    if sum([comp[-1] for comp in components]) > n - 1:
        return False, cover_reason
    acc: set[int] | int = 1
    width = size = 1
    for j, comp in enumerate(components, start=1):
        fewer = min(size, len(comp))
        width += comp[-1]
        size *= len(comp)
        dense = width <= _DENSE * size
        if (width > _BUDGET and _DENSE * size > _BUDGET
                or dense and width * isqrt(fewer) > _PRICE):
            return False, "no JOF builds these components"
        if dense:
            if isinstance(acc, set):
                acc = _bitset.__wrapped__(sorted(acc))
            if len(comp) ** 2 < comp[-1] >> 5:
                acc = sum((acc << v for v in comp[1:]), acc)
            else:
                acc *= _bitset.__wrapped__(comp)
            distinct = acc.bit_count()
        else:
            if isinstance(acc, int):
                acc = _members(acc)
            acc = {x + y for x in acc for y in comp}
            distinct = len(acc)
        if distinct != size:
            return False, f"sums collide when component {j} is added"
    return True, None


def _certified(components, n: int, step: int) -> bool:
    """Whether these ascending components, plain ones (step 1) starting at
    0 and doubled ones (step 2) at -max, each with at least 2 values, have
    sums 0, step, ..., step*(n - 1) once each when shifted to start at 0:
    true for exactly the genuine systems (module docstring).  Each
    component is shifted only past its guards: its size, its start, and
    sum of (max - min) so far <= step * (n - 1), so no bitset is wider
    than step * n bits.  No components (made only past the constructors)
    give the empty product 1, the N = 1 pattern: accepted, as the fold
    accepts them."""
    room, bits = step * (n - 1), 1
    for comp in components:
        if len(comp) < 2:
            return False
        low, top = comp[0], comp[-1]
        room -= top - low
        if (low if step == 1 else low != -top) or room < 0:
            return False
        bits *= _bitset(comp)
    return bits == ((1 << step * n) - 1) // ((1 << step) - 1)


def verify_sum_system(system: SumSystem) -> Verdict:
    """Full check that the components form a sum system.

    A system with N <= _NARROW is certified by one bitset product; any
    other is genuine exactly when its JOF reads back.  A rejection is named
    by the first component with fewer than 2 values, without 0 or not
    palindromic (A = max A - A), and then by the Minkowski fold: a system
    with sum of max A_j > N - 1 is reported as not covering, even where a
    collision also occurs; otherwise the first component whose addition
    collides is reported.
    """
    comps = system.components
    n = prod(map(len, comps))
    if _certified(comps, n, 1) if n <= _NARROW else _read_jof(comps) is not None:
        return True, None
    for j, comp in enumerate(comps, start=1):
        if len(comp) < 2:
            return False, f"component {j} has fewer than 2 values"
        if comp[0] != 0:
            return False, f"component {j} does not contain 0"
        if not _symmetric(_doubled(comp)):
            return False, f"component {j} is not palindromic"
    return _fold(comps, n, f"sums do not cover 0..{n - 1}")


def verify_centred(centred: CentredSumSystem) -> Verdict:
    """Full check on doubled values: sums must hit 2k - (N - 1), k in 0..N-1.

    A system with N <= _NARROW is certified by one bitset product of the
    components shifted by their maxima; any other is read back as
    jof_of_system reads it, in doubled storage.  Each doubled component
    with maximum M is mapped by v -> (v + M) / 2 onto 0..M.  The map is
    affine, so the mapped components tile 0..N-1 exactly when the doubled
    ones tile -(N-1)..N-1 in steps of 2.  A rejection is named by the size, symmetry and parity
    checks (the last over every value, which once symmetry holds is the
    constructor's check over the first half), then by folding the mapped
    components with the reason precedence of verify_sum_system.
    """
    comps = centred.components
    n = prod(map(len, comps))
    if _certified(comps, n, 2) if n <= _NARROW else _read_jof(comps, 2) is not None:
        return True, None
    plain = []
    for j, comp in enumerate(comps, start=1):
        if len(comp) < 2:
            return False, f"component {j} has fewer than 2 values"
        if not _symmetric(comp):
            return False, f"component {j} is not symmetric about 0"
        if sum(map((1).__and__, comp)) not in (0, len(comp)):
            return False, f"component {j} mixes parities"
        top = comp[-1]
        plain.append([(v + top) >> 1 for v in comp])
    return _fold(plain, n, "doubled sums do not cover -(N-1)..N-1 in steps of 2")
