"""Slow, independent reference implementations used only by the tests.

Apart from all_jofs_up_to, a walk over the package's own JOF enumeration
that feeds the system tests, oracle_document, which lays the seed JOF walk
out as the CLI's document in the package's text forms,
egf_convolution_tuple_count, the package's former fixed-tuple count read
from its factorisation and difference table, and the package's former
small-system paths seed_blow_up, seed_centre and seed_certified, which
build the package's value classes and read its _NARROW, its former
certificate bitset seed_bitset and its former symmetry test
seed_symmetric, nothing here
imports from the package: factorisation is naive trial division,
convolution scans 1..n or the divisors listed from that factorisation, a
convolution power squares over the same list, the seed JOF walk takes its
factors from that list too, and the counting oracles enumerate tuples
outright.  The Dirichlet convolution, its powers and the binomial
transform pair here are the reference the package's divisor functions are
tested against.  Frozen expected values in the tests were produced by
these functions.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import comb, factorial, prod
from operator import itemgetter, neg


def naive_omega(n: int) -> int:
    count = 0
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count + (1 if n > 1 else 0)


def naive_factorise(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n, primes ascending, by trial division by
    every d >= 2."""
    factors = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def naive_mobius(n: int) -> int:
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def naive_is_squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def naive_convolve(f, g, n: int) -> int:
    """Dirichlet convolution by scanning every candidate divisor."""
    return sum(f(d) * g(n // d) for d in range(1, n + 1) if n % d == 0)


def naive_divisors(n: int) -> list[int]:
    """The divisors of n, ascending, listed from naive_factorise."""
    divs = [1]
    for p, e in naive_factorise(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def dirichlet(f, g, n: int) -> int:
    """Dirichlet convolution over the divisors listed by naive_divisors."""
    return sum(f(d) * g(n // d) for d in naive_divisors(n))


def dirichlet_power(f, j: int, n: int) -> int:
    """f^(*j)(n) by repeated squaring, each square and product a table over
    the divisors of n, so j = 10**80 takes a few hundred of them."""
    divs = naive_divisors(n)

    def times(a, b):
        return {d: sum(a[k] * b[d // k] for k in divs if d % k == 0) for d in divs}

    out = {d: 1 if d == 1 else 0 for d in divs}
    square = {d: f(d) for d in divs}
    while True:
        if j & 1:
            out = times(out, square)
        j >>= 1
        if not j:
            return out[n]
        square = times(square, square)


def binomial_transform(seq) -> list[int]:
    """a_j = sum over i <= j of C(j, i) b_i."""
    return [sum(comb(j, i) * seq[i] for i in range(j + 1)) for j in range(len(seq))]


def binomial_inversion(seq) -> list[int]:
    """The inverse of binomial_transform: b_j = sum of (-1)**(j-i) C(j, i) a_i."""
    return [
        sum((-1) ** (j - i) * comb(j, i) * seq[i] for i in range(j + 1))
        for j in range(len(seq))
    ]


def naive_mobius_power(r: int, n: int) -> int:
    """mu^(*r)(n) built by repeated naive convolution."""
    if r == 0:
        return 1 if n == 1 else 0
    if r == 1:
        return naive_mobius(n)
    return naive_convolve(naive_mobius, lambda k: naive_mobius_power(r - 1, k), n)


def count_tuples(n: int, length: int, minimum: int) -> int:
    """Ordered `length`-tuples of integers >= minimum with product n."""
    if length == 0:
        return 1 if n == 1 else 0
    if length == 1:
        return 1 if n >= minimum else 0
    total = 0
    for d in range(minimum, n + 1):
        if n % d == 0:
            total += count_tuples(n // d, length - 1, minimum)
    return total


def count_first_block_nontrivial(n: int, j: int, r: int) -> int:
    """Ordered (j + r)-tuples with product n, first j entries >= 2, rest >= 1."""
    if j == 0:
        return count_tuples(n, r, 1)
    total = 0
    for d in range(2, n + 1):
        if n % d == 0:
            total += count_first_block_nontrivial(n // d, j - 1, r)
    return total


def signed_squarefree_count(n: int, length: int) -> int:
    """(-1)**(Omega(n) + length) times the number of ordered factorisations
    of n into `length` square-free factors >= 2."""

    def count(n: int, length: int) -> int:
        if length == 0:
            return 1 if n == 1 else 0
        total = 0
        for d in range(2, n + 1):
            if n % d == 0 and naive_is_squarefree(d):
                total += count(n // d, length - 1)
        return total

    sign = -1 if (naive_omega(n) + length) % 2 else 1
    return sign * count(n, length)


def cartesian_tuple_count(parts) -> int:
    """JOFs of a fixed tuple by the sum over every vector of factor counts.

    Part j gives l_j square-free factors, 1 <= l_j <= Omega(n_j); each
    vector weighs the multinomial number of interleavings times the signed
    square-free counts of the parts.  Cost: the product of the Omegas.
    """
    series = [
        {length: signed_squarefree_count(n, length) for length in range(1, naive_omega(n) + 1)}
        for n in parts
    ]
    total = 0
    for lengths in product(*(range(1, naive_omega(n) + 1) for n in parts)):
        weight = factorial(sum(lengths))
        for length in lengths:
            weight //= factorial(length)
        total += weight * prod(s[length] for s, length in zip(series, lengths))
    return total


def egf_convolution_tuple_count(parts) -> int:
    """JOFs of a fixed tuple by multiplying the parts' exponential generating
    functions one part at a time, kept in integers as the binomial
    convolution acc'(L) = sum over a of C(L, a) acc(a) s_j(L - a), where
    s_j(l) is the signed square-free count of n_j into l factors.  The count
    is the sum of the product's coefficients.  Cost: about (Omega total)^2
    big-integer products, so it stays usable on 8677099422351360000 and
    2^62, where cartesian_tuple_count's trial division does not.
    """
    from sumsystems.arith import _difference_table, factorise

    acc = [1]
    for n in parts:
        signature = factorise(n).signature
        omega = sum(signature)
        series = _difference_table(signature)[1]
        step = [0] * (len(acc) + omega)
        for a, x in enumerate(acc):
            if x:
                for length in range(signature[0], omega + 1):
                    step[a + length] += comb(a + length, a) * x * series[length]
        acc = step
    return sum(acc)


def naive_ordered_factorisations(n: int, m: int) -> list[tuple[int, ...]]:
    """Ordered m-tuples of integers >= 2 with product n, ascending lex, by
    trying every first factor 2..n."""
    if m == 1:
        return [(n,)] if n >= 2 else []
    return [
        (f,) + rest
        for f in range(2, n + 1)
        if n % f == 0
        for rest in naive_ordered_factorisations(n // f, m - 1)
    ]


def generalised_d(k: int, n: int) -> int:
    """d_k(n) for any integer k: the product over p^e || n of the binomial
    C(e + k - 1, e) read as the polynomial k (k + 1) ... (k + e - 1) / e!."""
    out = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        out *= prod(k + i for i in range(e)) // factorial(e)
        d += 1
    return out * k if n > 1 else out


def binomial_d_sum(j: int, shift: int, n: int) -> int:
    """sum over i <= j of (-1)**i C(j, i) d_{shift - i}(n): the j-th backward
    difference in k of generalised_d at k = shift, which is
    (e - mu)^(*j) * d_shift, and c_j^(r)(n) at shift = j + r."""
    return sum((-1) ** i * comb(j, i) * generalised_d(shift - i, n) for i in range(j + 1))


@cache
def divisor_recurrence(n: int, m: int) -> int:
    """Ordered m-part system count from the divisor-sum recurrence
    N_m(n) = sum over proper divisors d of (m - 1) N_m(d) + m N_{m-1}(d),
    with N_0(1) = 1 the only base case.  Divisors are found by scanning
    1..n-1, and the memo is keyed by (n, m)."""
    if m == 0:
        return 1 if n == 1 else 0
    return sum(
        (m - 1) * divisor_recurrence(d, m) + m * divisor_recurrence(d, m - 1)
        for d in range(1, n)
        if n % d == 0
    )


def naive_stirling2(total: int, blocks: int) -> int:
    """Inclusion-exclusion closed form, independent of any recurrence."""
    if blocks == 0:
        return 1 if total == 0 else 0
    acc = sum(
        (-1) ** i * comb(blocks, i) * (blocks - i) ** total for i in range(blocks + 1)
    )
    return acc // factorial(blocks)


def seed_enumerate_jofs(parts) -> list[tuple[tuple[int, int], ...]]:
    """Every JOF of a tuple, in lexicographic (part, factor) order: the
    package's former walk, which recursed into every factor of every open
    part other than the last one used and kept what reached no open part.
    Factors are listed by naive_divisors, once per divisor of a part."""
    m = len(parts)
    residues = list(parts)
    factors = {d: naive_divisors(d)[1:] for n in parts for d in naive_divisors(n)}
    out = []
    entries = []

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
            for f in factors[r]:
                residues[j] = r // f
                entries.append((j + 1, f))
                extend(j, open_count - (1 if f == r else 0))
                entries.pop()
                residues[j] = r

    extend(-1, m)
    return out


def all_jofs_up_to(limit):
    """Every JOF of every target tuple with product N in 2..limit."""
    from sumsystems.jof import enumerate_jofs, ordered_factorisations

    for n in range(2, limit + 1):
        for m in range(1, 8):
            for parts in ordered_factorisations(n, m):
                yield from enumerate_jofs(parts)


def oracle_document(parts) -> dict:
    """The `sumsys enumerate` document, built whole from the seed walk as the
    CLI once built it from its own.

    The CLI now writes json.dumps(oracle_document(parts), indent=2) piece by
    piece; its plain format is the "text" list, one JOF per line.
    """
    from sumsystems.shape import jof_to_pairs, jof_to_text

    found = seed_enumerate_jofs(parts)
    return {
        "tuple": list(parts),
        "count": len(found),
        "jofs": [jof_to_pairs(j) for j in found],
        "text": [jof_to_text(j) for j in found],
    }


def brute_minkowski(parts) -> list[int]:
    """All pairwise-sum values of a list of components, duplicates kept."""
    sums = [0]
    for comp in parts:
        sums = [a + b for a in sums for b in comp]
    return sorted(sums)


def set_fold_verify(components, centred: bool) -> tuple[bool, "str | None"]:
    """Verdict of a plain or centred (doubled) system by a Python-set fold.

    This is the verifiers' original route: the per-component checks, then
    the set of partial sums grown one component at a time, a collision
    showing as fewer sums than |acc| * |A_j|, then coverage of 0..N-1
    (plain) or -(N-1)..N-1 in steps of 2 (centred).
    """
    for j, comp in enumerate(components, start=1):
        k = len(comp)
        if k < 2:
            return False, f"component {j} has fewer than 2 values"
        if centred:
            if any(comp[i] + comp[k - 1 - i] != 0 for i in range(k // 2 + 1)):
                return False, f"component {j} is not symmetric about 0"
            if any((v & 1) != (comp[0] & 1) for v in comp):
                return False, f"component {j} mixes parities"
        else:
            if comp[0] != 0:
                return False, f"component {j} does not contain 0"
            top = comp[-1]
            if any(comp[i] + comp[k - 1 - i] != top for i in range(k // 2 + 1)):
                return False, f"component {j} is not palindromic"
    n = 1
    for comp in components:
        n *= len(comp)
    acc = {0}
    for j, comp in enumerate(components, start=1):
        new = {x + y for x in acc for y in comp}
        if len(new) != len(acc) * len(comp):
            return False, f"sums collide when component {j} is added"
        acc = new
    if centred:
        if acc != set(range(-(n - 1), n, 2)):
            return False, "doubled sums do not cover -(N-1)..N-1 in steps of 2"
    elif acc != set(range(n)):
        return False, f"sums do not cover 0..{n - 1}"
    return True, None


def seed_blow_up(jof, m: int) -> tuple[tuple[int, ...], ...]:
    """The m components of a checked JOF, each sorted ascending: the
    package's former blow-up, every part started from [0]."""
    comps: list[list[int]] = [[0] for _ in range(m)]
    partial = 1
    for part, factor in jof:
        base = comps[part - 1]
        # blocks for successive multiples of the partial product stay disjoint
        # because the values built so far all lie below it
        offsets = range(0, partial * factor, partial)
        comps[part - 1] = [a + offset for offset in offsets for a in base]
        partial *= factor
    return tuple(map(tuple, comps))


def _seed_doubled(comp: tuple[int, ...]) -> tuple[int, ...]:
    top = comp[-1]
    return tuple([2 * a - top for a in comp])


def seed_symmetric(comp: tuple[int, ...]) -> bool:
    """The package's former symmetry test: comp is its own negated reverse."""
    return comp == tuple(map(neg, reversed(comp)))


def seed_centre(system):
    """The package's former centre: two passes, doubling then checking
    symmetry, with the same ValueError."""
    from sumsystems.systems import CentredSumSystem

    comps = tuple(map(_seed_doubled, system.components))
    if not all(map(seed_symmetric, comps)):
        raise ValueError("centred components must be symmetric about 0")
    return tuple.__new__(CentredSumSystem, (comps,))


def seed_bitset(comp) -> int:
    """The package's former certificate bitset of an ascending component
    shifted to start at 0: the sum of 2^(v - min) over its values v."""
    low = comp[0]
    return sum(map((1).__lshift__, map((-low).__add__, comp) if low else comp))


def seed_certified(components, n: int, step: int) -> bool:
    """The package's former bitset certificate: every guard over all
    components, then the product."""
    from sumsystems.systems import _NARROW

    if n > _NARROW or min(map(len, components), default=0) < 2:
        return False
    lows = list(map(itemgetter(0), components))
    tops = list(map(itemgetter(-1), components))
    if (any(lows) if step == 1 else lows != list(map(neg, tops))):
        return False
    # checked before any shift, so no bitset is wider than step * n bits
    if sum(tops) - sum(lows) > step * (n - 1):
        return False
    bits = 1
    for comp in components:
        bits *= seed_bitset(comp)
    return bits == ((1 << step * n) - 1) // ((1 << step) - 1)
