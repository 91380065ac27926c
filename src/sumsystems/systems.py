"""Sum systems, centred sum systems, and sum-and-distance systems.

An m-part sum system for N consists of finite sets A_1, ..., A_m of
non-negative integers whose Minkowski sum hits each of 0..N-1 exactly once.
Centring shifts each component to be symmetric about 0; the shifted values
are half-integers whenever max A_j is odd, so centred components are stored
as doubled integers (2a - max A_j), which keeps everything exact.

SumSystem, CentredSumSystem and SumAndDistanceSystem are named tuples over
the package's _Record, which gives them the records' value semantics (a
SumSystem never equals a CentredSumSystem).  Their invariants, sigma_a and
tau_c, live in invariants, so building and verifying load no fractions.

The public constructors own every per-value rule, and _make, so _replace
too, goes through them.  Each rule is checked once over whole tuples: first
that every value of every component is an int (booleans are not), then
order, sign, symmetry and parity per component.

Construction from a joint ordered factorisation follows the factor-by-factor
blow-up: entry l with partial product F(l) contributes the progression
F(l) * {0, ..., f_l - 1} to its part's component.  _blow_up is the one
construction path, in either storage: plain (step 1) for build_sum_system,
doubled (step 2) for build_centred, which builds the doubled image
2a - max A_j in one pass, each part's first progression starting at -max
and stepping by 2F(l).  The same path gives the rebuild that accepts a
reading: _read_jof reads plain and doubled components alike, measuring gaps
from each component's first value, so a centred system is read and rebuilt
in its own storage.  One pass over the checked JOF collects each part's run
of (F(l), f_l) entries, and a part's component depends on its run and the
storage alone, so a JOF with N <= _NARROW takes each component from a memo
keyed by both, and any other JOF calls the same body unmemoised.  A key is
made only from a JOF that has passed its check, or one read from int
components, so it holds ints alone: no bool, float or factor 1 reaches the
memo.  The builders, centre and
to_sum_and_distance are trusted: their output is correct by construction, so
they create it with tuple.__new__, skipping the checks of the public
constructors (centre keeps one, since its input may be any valid SumSystem).
The verifiers, in verify, never trust construction.

The brute force meets each component many times, so three memos of _MEMO
entries each keep per-component work: a part's component by its run
(_progressions), and by the component, the doubled form centre gives it
(_centred_component) and its bitset for verify's certificate
(verify._bitset).  Only systems with N <= _NARROW use them, so nothing of a
larger system is kept.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import chain, repeat
from math import prod
from operator import add, itemgetter, lt, mul, neg

from . import _Record
from .shape import Jof, _checked_jof


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
    """Whether comp, ascending, is symmetric about 0: its own negated
    reverse, so each value and its mirror sum to 0.  Each mirror pair is
    visited once: the first ceil(len/2) values against the reversed tail."""
    return not any(map(add, comp[:(len(comp) + 1) // 2], reversed(comp)))


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
            # v & 1 is 1 for odd v, negative ones too: none or all may be
            # odd, and v and its mirror -v share parity, so half suffices
            half = comp[:(len(comp) + 1) // 2]
            if sum(map((1).__and__, half)) not in (0, len(half)):
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


def _blow_up(jof, m: int, step: int = 1) -> tuple[tuple[int, ...], ...]:
    """The m components of a checked JOF, each sorted ascending: plain
    (step 1) or doubled (step 2).  One pass collects each part's run of
    entries as (F(l), f_l, F(l'), f_l', ...); a JOF with N <= _NARROW takes
    each part's component from the memo _progressions, any other from the
    same body unmemoised."""
    runs = [()] * m
    partial = 1
    for part, factor in jof:
        runs[part - 1] += (partial, factor)
        partial *= factor
    memo = _progressions if partial <= _NARROW else _progressions.__wrapped__
    return tuple(map(memo, runs, repeat(step)))


def build_sum_system(jof) -> SumSystem:
    """Sum system of a JOF: part j collects F(l) * {0..f_l - 1} over its
    entries, Minkowski-added.  Components come out sorted.
    """
    jof, products = _checked_jof(jof)
    return tuple.__new__(SumSystem, (_blow_up(jof, len(products)),))


def _read_jof(components, step: int = 1) -> Jof | None:
    """The JOF whose blow-up gives these components (tuples), plain (step 1)
    or doubled (step 2), or None.

    Gaps are measured from each component's first value.  With b values of
    a component read, the next entry of its part is read with the gap
    comp[b] - comp[0], and its factor f is the first t >= 2 where the
    component ends at t*b or comp[t*b] - comp[0] differs from t times that
    gap; a genuine component holds that gap for every t < f.  The entries
    of all parts, sorted by gap, make the JOF, and it is returned only when
    its blow-up rebuilds the components exactly: that one test checks every
    gap against step times its partial product, every part's size and each
    first value (0, or -max when doubled).  No part follows itself: its next
    entry's gap would be f times this one's, so the read would not stop at
    f.
    """
    entries = []
    for part, comp in enumerate(components, start=1):
        size = len(comp)
        if size < 2:
            return None  # every part must appear
        low = comp[0]
        built = 1
        while built < size:
            gap = comp[built] - low
            t = 2
            while t * built < size and comp[t * built] - low == t * gap:
                t += 1
            entries.append((gap, t, part))
            built *= t
    entries.sort()
    jof = tuple([(part, factor) for _, factor, part in entries])
    if _blow_up(jof, len(components), step) != tuple(components):
        return None
    return jof


def _doubled(comp: tuple[int, ...]) -> tuple[int, ...]:
    """An ascending component shifted to be centred, in doubled storage:
    2a - max A_j for each value a."""
    top = comp[-1]
    return tuple([2 * a - top for a in comp])


def jof_of_system(system) -> Jof:
    """The JOF that build_sum_system or build_centred turns into this
    system: their inverse.  A centred system is read in its doubled
    storage, and the JOF is returned only when it rebuilds the components
    exactly.

    Raises ValueError when no JOF builds the system and TypeError when the
    argument is no SumSystem or CentredSumSystem.
    """
    if isinstance(system, SumSystem):
        jof = _read_jof(system.components)  # checks the rebuild itself
    elif isinstance(system, CentredSumSystem):
        jof = _read_jof(system.components, 2)
    else:
        raise TypeError(f"not a sum system: {type(system).__name__}")
    if jof is None:
        raise ValueError("no JOF builds this system")
    return jof


def build_centred(jof) -> CentredSumSystem:
    """Centred system of a JOF, built doubled in one pass: equal to
    centre(build_sum_system(jof)).  A plain component built from a JOF is
    palindromic, so its doubled image is symmetric about 0."""
    jof, products = _checked_jof(jof)
    return tuple.__new__(CentredSumSystem, (_blow_up(jof, len(products), 2),))


# The bound on N of the per-component memos and of verify's certificate: a
# system with N <= _NARROW takes each component, its doubled form and its
# bitset from the memos below and verify._bitset, and is certified by one
# product of bitsets at most 2N bits wide; a larger one is built and
# centred unmemoised and verified by reading its JOF back, in time in
# proportion to sum |A_j|, so none of its components is kept.
_NARROW = 1024

# Entries kept by each per-component memo (_progressions,
# _centred_component, verify._bitset).  The keys of _progressions carry the
# storage too: (run, 1) for a plain component and (run, 2) for a doubled one.
# Only systems with N <= _NARROW use them: a run holds at most 2 log2(N)
# ints, each at most N; a component, plain or doubled, holds at most 1024
# ints, each of magnitude below 1024; and a bitset is at most 2N bits
# wide.  In the worst case, a full memo of distinct entries as large as
# they come (single-part components of 769 to 1024 values for the
# runs' memo, 512-value components for centre's, 1024-value ones for the
# certificate's), they traced 6.8, 7.5 and 8.1 MiB on Python 3.11.  Genuine
# systems share a few small components: after every JOF with N <= 210 the
# three held 0.38 MiB together, as the runs' memo returns the very tuples
# the other two are keyed by.  Over three cross-check rounds of seed 1 (71,448
# JOFs), 256 entries missed 0.76% of the runs' lookups and of centre's, and
# 2.2% of the certificate's; 64 entries missed 5.2%, 5.2% and 11% (24.2 us a
# JOF), and 1024 entries 0.26%, 0.26% and 0.44% (23.3 us, against 23.9 at
# 256: one run each on 2 shared CPUs, where runs vary by more).
_MEMO = 256


@lru_cache(maxsize=_MEMO)
def _progressions(run: tuple[int, ...], step: int) -> tuple[int, ...]:
    """The ascending component of a part whose entries have the partial
    products and factors F, f, F', f', ... of run, plain (step 1) or doubled
    (step 2): its first entry gives the progression from 0, or from -max
    when doubled, in steps of step * F, f values long, and each later one
    (F', f') appends the values built so far, all below step * F' past the
    first, shifted by step * F', ..., (f' - 1) * step * F'."""
    low = 0 if step == 1 else sum(run[::2]) - sum(map(mul, run[::2], run[1::2]))
    comp = list(range(low, low + step * run[0] * run[1], step * run[0]))
    for i in range(2, len(run), 2):
        shift = step * run[i]
        comp += [a + offset for offset in range(shift, shift * run[i + 1], shift) for a in comp]
    return tuple(comp)


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
