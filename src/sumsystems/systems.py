"""Sum systems, centred sum systems, and sum-and-distance systems.

An m-part sum system for N consists of finite sets A_1, ..., A_m of
non-negative integers whose Minkowski sum hits each of 0..N-1 exactly once.
Centring shifts each component to be symmetric about 0; the shifted values
are half-integers whenever max A_j is odd, so centred components are stored
as doubled integers (2a - max A_j), which keeps everything exact.

SumSystem, CentredSumSystem and SumAndDistanceSystem are named tuples over
arith._Record, which gives them the records' value semantics (a SumSystem
never equals a CentredSumSystem).

The public constructors own every per-value rule, and _make, so _replace
too, goes through them.  Each rule is checked once over whole tuples: first
that every value of every component is an int (booleans are not), then
order, sign, symmetry and parity per component.

Construction from a joint ordered factorisation follows the factor-by-factor
blow-up: entry l with partial product F(l) contributes the progression
F(l) * {0, ..., f_l - 1} to its part's component.  _blow_up is the one
construction path: build_centred is the doubled image (2a - max A_j) of its
components, the same map centre applies.  The builders, centre and
to_sum_and_distance are trusted: their output is correct by construction, so
they create it with tuple.__new__, skipping the checks of the public
constructors (centre keeps one, since its input may be any valid SumSystem).
Verification still never trusts construction, and each verifier has one
decider per size.  A system with N <= _NARROW is certified by one bitset
product, below; any other is read back as jof_of_system (the inverse of
the builders) reads it, in time in proportion to sum |A_j|.  A reading is
accepted only when its JOF rebuilds every component exactly; then each k
in 0..N-1 has exactly one mixed-radix digit string in the JOF's factors,
so the components tile 0..N-1.  Every genuine system passes its decider
(each is the blow-up of exactly one JOF), so only a rejection gets the
per-component checks and the Minkowski fold, which name its reason.

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
whatever the values.  A component's bitset, like the doubled form centre
gives it, comes from a memo keyed by the component (_MEMO entries each),
since the brute force meets each component many times.  Only systems with
N <= _NARROW use the memos, so no component of a larger system is kept.

Both verifiers share one fold over integers used as bitsets: component A
becomes the bit-polynomial sum of 2^a over a in A, and the running product
of these polynomials has coefficient c at 2^s when s arises as a sum in c
ways.  A repeated sum forces a carry and every carry lowers the popcount,
so a stage is collision-free exactly when the popcount of the product is
|acc| * |A_j|.  A stage whose sums would fill less than 1/64 of their
range is added on a set of sums instead, so the memory of every stage
follows the number of sums it produces, not the size of the values.
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

from collections import namedtuple
# module-level: importing it inside tau_c cost 1.3-1.8 us a call
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import isqrt, prod
from operator import itemgetter, lt, mul, neg

from .arith import _Record
from .jof import Jof, _checked_jof

Verdict = tuple[bool, "str | None"]


def _int_components(components) -> tuple[tuple[int, ...], ...]:
    """The components as tuples, once every value of every one is an int
    (a bool, like any other subclass, is not)."""
    comps = tuple(map(tuple, components))
    if not {int}.issuperset(map(type, chain.from_iterable(comps))):
        raise ValueError("component values must be integers")
    return comps


def _check_sorted_strict(comp: tuple[int, ...]) -> None:
    if not comp:
        raise ValueError("components must be non-empty")
    if not all(map(lt, comp, comp[1:])):
        raise ValueError("component values must be strictly ascending")


def _symmetric(comp: tuple[int, ...]) -> bool:
    """Whether comp, ascending, is symmetric about 0: its own negated reverse."""
    return comp == tuple(map(neg, reversed(comp)))


@classmethod
def _checked_make(cls, iterable):
    """The _make of each system class: through its validating constructor,
    so that _replace, which calls _make, checks the new fields too."""
    return cls(*iterable)


class _Components(_Record):
    """Shared shape of the plain and centred systems: N and cardinalities."""

    __slots__ = ()

    @property
    def N(self) -> int:
        return prod(map(len, self.components))

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(map(len, self.components))


class SumSystem(namedtuple("SumSystem", "components"), _Components):
    """Components of a (candidate) sum system, each sorted ascending."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, components):
        comps = _int_components(components)
        if not comps:
            raise ValueError("a sum system needs at least one component")
        for comp in comps:
            _check_sorted_strict(comp)
            if comp[0] < 0:
                raise ValueError("sum system values must be non-negative")
        return tuple.__new__(cls, (comps,))


class CentredSumSystem(namedtuple("CentredSumSystem", "components"), _Components):
    """Centred components stored as doubled integers (2a - max A_j).

    Each stored component is symmetric about 0 and all of its values share
    one parity; odd stored values mean the true component is half-integral.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, components):
        comps = _int_components(components)
        if not comps:
            raise ValueError("a centred sum system needs at least one component")
        for comp in comps:
            _check_sorted_strict(comp)
            if not _symmetric(comp):
                raise ValueError("centred components must be symmetric about 0")
            # v & 1 is 1 for odd v, negative ones too: none or all may be odd
            if sum(map((1).__and__, comp)) not in (0, len(comp)):
                raise ValueError("values within a centred component must share parity")
        return tuple.__new__(cls, (comps,))

    @property
    def half_integer(self) -> tuple[bool, ...]:
        """Per component: True when the true values are half-integers."""
        return tuple(bool(c[0] & 1) for c in self.components)


class SumAndDistanceSystem(
    namedtuple("SumAndDistanceSystem", "N components even_parts odd_parts"), _Record
):
    """Positive halves of a centred system, doubled, with parity classes.

    Parts in even_parts have even cardinality in the originating system
    (n_j = 2|B_j|), parts in odd_parts have odd cardinality
    (n_j = 2|B_j| + 1).  Indices are 1-based.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, N, components, even_parts, odd_parts):
        comps = _int_components(components)
        if not comps:
            raise ValueError("a sum-and-distance system needs at least one component")
        for comp in comps:
            _check_sorted_strict(comp)
            if comp[0] <= 0:
                raise ValueError("sum-and-distance values must be positive")
        even_parts, odd_parts = tuple(even_parts), tuple(odd_parts)
        if not {int}.issuperset(map(type, (N, *even_parts, *odd_parts))):
            raise ValueError("N and part indices must be integers")
        if sorted(even_parts + odd_parts) != list(range(1, len(comps) + 1)):
            raise ValueError("parity classes must partition parts 1..m")
        # n_j = 2|B_j|, plus 1 (the bool j in odd_parts) for an odd part's 0
        if prod(2 * len(b) + (j in odd_parts) for j, b in enumerate(comps, start=1)) != N:
            raise ValueError("cardinalities are inconsistent with N")
        return tuple.__new__(cls, (N, comps, even_parts, odd_parts))


def _blow_up(jof, m: int) -> tuple[tuple[int, ...], ...]:
    """The m components of a checked JOF, each sorted ascending: a part's
    first entry gives its progression F(l) * {0..f_l - 1}, each later one adds it."""
    comps: list = [None] * m
    partial = 1
    for part, factor in jof:
        base = comps[part - 1]
        # blocks for successive multiples of the partial product stay disjoint
        # because the values built so far all lie below it
        offsets = range(0, partial * factor, partial)
        comps[part - 1] = (offsets if base is None
                           else [a + offset for offset in offsets for a in base])
        partial *= factor
    return tuple(map(tuple, comps))


def build_sum_system(jof) -> SumSystem:
    """Sum system of a JOF: part j collects F(l) * {0..f_l - 1} over its
    entries, Minkowski-added.  Components come out sorted.
    """
    jof, products = _checked_jof(jof)
    return tuple.__new__(SumSystem, (_blow_up(jof, len(products)),))


def _read_jof(components) -> Jof | None:
    """The JOF whose blow-up gives these components (tuples), or None.

    With b values of a component read, the next entry of its part has
    partial product F = comp[b], and its factor f is the first t >= 2 where
    the component ends at t*b or comp[t*b] != t*F; a genuine component
    holds t*F there for every t < f.  The entries of all parts, sorted by
    F, must chain as F(1) = 1, F(l+1) = F(l)*f_l with no part twice in a
    row, and the JOF they make must rebuild the components exactly.  Each
    factor read ends where its part's values do, so the factors of every
    part multiply to its size and the product of all of them is N.
    """
    entries = []
    for part, comp in enumerate(components, start=1):
        size = len(comp)
        if size < 2:
            return None  # every part must appear
        built = 1
        while built < size:
            step = comp[built]
            t = 2
            while t * built < size and comp[t * built] == t * step:
                t += 1
            entries.append((step, t, part))
            built *= t
        if built != size:
            return None
    entries.sort()
    partial, last = 1, 0
    for step, factor, part in entries:
        if step != partial or part == last:
            return None
        partial *= factor
        last = part
    jof = tuple([(part, factor) for _, factor, part in entries])
    if _blow_up(jof, len(components)) != tuple(components):
        return None
    return jof


def _doubled(comp: tuple[int, ...]) -> tuple[int, ...]:
    """An ascending component shifted to be centred, in doubled storage:
    2a - max A_j for each value a."""
    top = comp[-1]
    return tuple([2 * a - top for a in comp])


def _undoubled(comp: tuple[int, ...]) -> tuple[int, ...]:
    """A non-empty doubled component mapped by v -> (v + max) // 2."""
    top = comp[-1]
    return tuple([(v + top) >> 1 for v in comp])


def _read_centred(components) -> Jof | None:
    """The JOF whose doubled blow-up gives these components, or None: they
    are read through their plain image (_undoubled), which doubling must
    give back, as v -> (v + max) // 2 drops parity and symmetry."""
    if not (components and all(components)):
        return None
    plain = tuple(map(_undoubled, components))
    return _read_jof(plain) if tuple(map(_doubled, plain)) == components else None


def jof_of_system(system) -> Jof:
    """The JOF that build_sum_system or build_centred turns into this
    system: their inverse.  A centred system is read through its plain
    image (_undoubled), and the JOF is returned only when it rebuilds the
    components exactly.

    Raises ValueError when no JOF builds the system and TypeError when the
    argument is no SumSystem or CentredSumSystem.
    """
    if isinstance(system, SumSystem):
        jof = _read_jof(system.components)  # checks the rebuild itself
    elif isinstance(system, CentredSumSystem):
        jof = _read_centred(system.components)
    else:
        raise TypeError(f"not a sum system: {type(system).__name__}")
    if jof is None:
        raise ValueError("no JOF builds this system")
    return jof


def build_centred(jof) -> CentredSumSystem:
    """Centred system of a JOF: the doubled image of its plain components,
    equal to centre(build_sum_system(jof)).  A plain component built from
    a JOF is palindromic, so its image is symmetric about 0."""
    jof, products = _checked_jof(jof)
    return tuple.__new__(CentredSumSystem, (tuple(map(_doubled, _blow_up(jof, len(products)))),))


# Entries kept by each per-component memo (_centred_component,
# _bits_from_start).  Their keys come only from systems with N <= _NARROW
# whose values lie within -(N-1)..N-1, so a key holds at most 1024 ints,
# each of magnitude below 1024, and a bitset is at most 2N bits wide.  In
# the worst case, a full memo of distinct keys as large as they come (512
# values for centre's, 1024 for the certificate's), they traced 7.5 and
# 8.1 MiB on Python 3.11.  Genuine systems share a few small components:
# after every JOF with N <= 210, the two held 0.2 and 0.15 MiB.  Over three
# cross-check rounds of seed 1, 256 entries missed 0.8% of centre's lookups
# and 2.2% of the certificate's; 64 entries missed 5.2% and 11%, and 1024
# entries 0.3% and 0.4%, which saved no more time.
_MEMO = 256


@lru_cache(maxsize=_MEMO)
def _centred_component(comp: tuple[int, ...]) -> tuple[int, ...] | None:
    """The doubled form of an ascending component (_doubled), or None when
    that form is not symmetric about 0 (comp is not palindromic)."""
    doubled = _doubled(comp)
    return doubled if _symmetric(doubled) else None


def centre(system: SumSystem) -> CentredSumSystem:
    """Shift every component to be symmetric about 0 (doubled storage).

    Raises ValueError when a component is not palindromic, as then its
    doubled form is not symmetric about 0.  Order and parity need no check:
    2a - max A_j keeps the ascending order and gives every value the parity
    of max A_j.  A system with N <= _NARROW whose maxima sum to at most
    N - 1, as a genuine system's do, reuses each component's form from a
    memo; no other system's components are kept.
    """
    comps = system.components
    n = prod(map(len, comps))
    small = n <= _NARROW and sum(map(itemgetter(-1), comps)) < n
    doubled = tuple(map(_centred_component if small else _centred_component.__wrapped__, comps))
    if None in doubled:
        raise ValueError("centred components must be symmetric about 0")
    return tuple.__new__(CentredSumSystem, (doubled,))


def to_sum_and_distance(centred: CentredSumSystem) -> SumAndDistanceSystem:
    """Keep the positive values of each centred component (still doubled):
    the upper half, past the middle 0 of an odd-sized one."""
    comps, even_parts, odd_parts = [], [], []
    for j, comp in enumerate(centred.components, start=1):
        positives = comp[(len(comp) + 1) // 2:]
        if not positives:
            raise ValueError(f"component {j} has no positive values")
        comps.append(positives)
        (odd_parts if len(comp) % 2 else even_parts).append(j)
    return tuple.__new__(
        SumAndDistanceSystem, (centred.N, tuple(comps), tuple(even_parts), tuple(odd_parts))
    )


def from_sum_and_distance(system: SumAndDistanceSystem) -> CentredSumSystem:
    """The centred system that to_sum_and_distance halves, its inverse: an
    even part is -reverse(B) followed by B, an odd part has a 0 between.
    Not trusted, as halves may not make one (an odd part's 0 is even): the
    centred constructor raises ValueError then."""
    odd = set(system.odd_parts)
    return CentredSumSystem([
        (*map(neg, reversed(half)), *((0,) if j in odd else ()), *half)
        for j, half in enumerate(system.components, start=1)
    ])


def _bitset(values) -> int:
    """Integer with bit v set for each v in values, distinct, non-negative
    and ascending: a bytearray filled once and converted once,
    O(|values| + max/8), where summing 1 << v would build a max-bit
    integer per value."""
    top = values[-1]
    buf = bytearray((top >> 3) + 1)
    for v in values:
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
    bitsets (of _bitset, max + 1 bits each) and counts the product's set
    bits, a sparse one (the range wider than _DENSE times the sums) counts
    a set of sums, so no bitset holds more than _DENSE bits per sum of its
    stage.  A stage that would pass _BUDGET, or a dense one whose product
    would pass _PRICE, is not folded: the decider has failed, so no JOF
    builds the components.  A collision-free fold has n
    distinct sums within 0..n-1, so it covers them (and when the maxima sum
    below n - 1 it must collide).
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
                acc = _bitset(sorted(acc))
            acc *= _bitset(comp)
            distinct = acc.bit_count()
        else:
            if isinstance(acc, int):
                acc = _members(acc)
            acc = {x + y for x in acc for y in comp}
            distinct = len(acc)
        if distinct != size:
            return False, f"sums collide when component {j} is added"
    return True, None


# The certificate's bound on N.  Its bitsets, at most 2N bits wide, are sums
# of 1 << v, a small integer built per value in C; measured on Python 3.11
# with 2 to 256 values, that takes 0.5-1.05x the time of a bytearray fill
# at widths 512 and 1024, and 3-8x at 16384 and 65536.
_NARROW = 1024


def _certified(components, n: int, step: int) -> bool:
    """Whether these ascending components, plain ones (step 1) starting at
    0 and doubled ones (step 2) at -max, each with at least 2 values, have
    sums 0, step, ..., step*(n - 1) once each when shifted to start at 0:
    true for exactly the genuine systems (module docstring).  Each
    component is shifted only past its guards: its size, its start, and
    sum of (max - min) so far <= step * (n - 1), so no bitset is wider
    than step * n bits."""
    if not components:
        return False
    room, bits = step * (n - 1), 1
    for comp in components:
        if len(comp) < 2:
            return False
        low, top = comp[0], comp[-1]
        room -= top - low
        if (low if step == 1 else low != -top) or room < 0:
            return False
        bits *= _bits_from_start(comp)
    return bits == ((1 << step * n) - 1) // ((1 << step) - 1)


@lru_cache(maxsize=_MEMO)
def _bits_from_start(comp: tuple[int, ...]) -> int:
    """The bitset of an ascending component shifted to start at 0: the sum
    of 2^(v - min) over its values v."""
    low = comp[0]
    return sum(map((1).__lshift__, map((-low).__add__, comp) if low else comp))


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
    comps, n = system.components, system.N
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
    jof_of_system reads it.  Each doubled component with maximum M is
    mapped by v -> (v + M) / 2 onto 0..M.  The map is affine, so the mapped
    components tile 0..N-1 exactly when the doubled ones tile -(N-1)..N-1
    in steps of 2.  A rejection is named by the size, symmetry and parity
    checks, then by folding the mapped components with the reason
    precedence of verify_sum_system.
    """
    comps, n = centred.components, centred.N
    if _certified(comps, n, 2) if n <= _NARROW else _read_centred(comps) is not None:
        return True, None
    plain = []
    for j, comp in enumerate(comps, start=1):
        if len(comp) < 2:
            return False, f"component {j} has fewer than 2 values"
        if not _symmetric(comp):
            return False, f"component {j} is not symmetric about 0"
        mapped = _undoubled(comp)
        # comp sums to 0, so 2 * sum(mapped) falls short of len(comp) * max
        # by the number of values whose parity differs from the maximum's
        if 2 * sum(mapped) != len(comp) * comp[-1]:
            return False, f"component {j} mixes parities"
        plain.append(mapped)
    return _fold(plain, n, "doubled sums do not cover -(N-1)..N-1 in steps of 2")


def sigma_a(system: SumSystem) -> int:
    """Sum of all N represented values, via components:
    sum over j of (N / n_j) * sum(A_j).  Equals N(N-1)/2 for genuine systems.
    """
    n = system.N
    return sum((n // len(comp)) * sum(comp) for comp in system.components)


def tau_c(centred: CentredSumSystem) -> Fraction:
    """Sum of squares of all represented centred values, exactly.

    Computed on doubled values then divided by 4; equals N(N^2 - 1)/12 for
    genuine systems (denominator 1 or 2 once reduced).
    """
    n = centred.N
    doubled = sum(
        (n // len(comp)) * sum(map(mul, comp, comp)) for comp in centred.components
    )
    return Fraction(doubled, 4)


def system_to_json(system) -> dict:
    """JSON document for a system; centred variants set doubled = true."""
    if not isinstance(system, (SumSystem, CentredSumSystem, SumAndDistanceSystem)):
        raise TypeError(f"cannot serialise {type(system).__name__}")
    doc = {
        "N": system.N,
        "components": [list(c) for c in system.components],
        "doubled": not isinstance(system, SumSystem),
    }
    if isinstance(system, SumAndDistanceSystem):
        doc["even_parts"] = list(system.even_parts)
        doc["odd_parts"] = list(system.odd_parts)
    return doc


def system_from_json(doc) -> "SumSystem | CentredSumSystem":
    """Parse a system document, checking shape and the stated N; the
    system's constructor checks the values.

    A sum-and-distance document (one with parity-class keys) loads as the
    centred system it halves, through from_sum_and_distance.
    """
    if not isinstance(doc, dict):
        raise ValueError("system document must be a JSON object")
    halves = "even_parts" in doc or "odd_parts" in doc
    keys = ("N", "components", "doubled") + (("even_parts", "odd_parts") if halves else ())
    for key in keys:
        if key not in doc:
            raise ValueError(f"system document lacks {key!r}")
    n, comps, doubled = doc["N"], doc["components"], doc["doubled"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("N must be an integer")
    if not isinstance(doubled, bool):
        raise ValueError("doubled must be a boolean")
    if not isinstance(comps, list) or not all(isinstance(c, list) for c in comps):
        raise ValueError("components must be a list of lists")
    if halves:
        evens, odds = doc["even_parts"], doc["odd_parts"]
        if not doubled:
            raise ValueError("a sum-and-distance document must be doubled")
        if not isinstance(evens, list) or not isinstance(odds, list):
            raise ValueError("even_parts and odd_parts must be lists")
        system = from_sum_and_distance(SumAndDistanceSystem(n, comps, evens, odds))
    else:
        system = CentredSumSystem(comps) if doubled else SumSystem(comps)
    if system.N != n:
        raise ValueError(
            f"stated N = {n} but component sizes multiply to {system.N}"
        )
    return system
