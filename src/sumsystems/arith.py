"""Factorisation and exact divisor functions, read from the prime signature.

Everything here is integer-valued and exact: factorisation, the Mobius
function, classical divisor functions d_j, their "non-trivial factor"
companions c_j, and the two-parameter family c_j^(r) obtained by convolving
c_j with 1^(*r) (or with mu^(*|r|) when r is negative).  Convolution powers
of e - mu count ordered factorisations into square-free non-trivial factors,
up to sign; they drive the counting module.

All of these are backward differences in k of the generalised divisor
function d_k(n) = prod over p^e || n of C(e + k - 1, e), which is defined
for every integer k (d_k = 1^(*k) for k >= 0, mu^(*|k|) for k < 0), is a
polynomial of degree Omega(n) in k, and depends only on the prime signature
of n.  One difference table per signature holds every L-th difference the
counts read; a value at an arbitrary shift is Newton's series over the
table's k = 0 row.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import chain, count
from math import comb, gcd
from operator import sub

from . import _Record

# Domain cap: values beyond it are refused before any factorisation.
MAX_INPUT = 2**63 - 1

# Trial division stops at this bound.  A cofactor left over has no prime
# factor below it and is split by Miller-Rabin and Pollard's rho.
_TRIAL = 1 << 10

# The first 12 primes as Miller-Rabin bases decide primality for every
# n < 3.18e23 (Sorenson & Webster 2015), so for every input below the cap.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Entries kept by each signature-keyed cache.  A signature is a partition of
# Omega(n) <= 62, and realistic workloads touch a few hundred of them.  The
# caches keyed by n (factorise, divisors) share the bound, so a long run over
# ever new n holds at most this many of each.
_SIGNATURE_CACHE = 4096


# No __slots__: the instance dict holds the cached signature.
class PrimeFactorisation(namedtuple("PrimeFactorisation", "n factors"), _Record):
    """n as a product of primes, exponents included, primes ascending."""

    @property
    def big_omega(self) -> int:
        """Number of prime factors counted with multiplicity."""
        return sum(e for _, e in self.factors)

    @cached_property
    def signature(self) -> tuple[int, ...]:
        """Prime exponents in descending order: all that d_k(n) depends on."""
        return tuple(sorted((e for _, e in self.factors), reverse=True))


def _check_positive(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"expected a positive integer, got {n!r}")
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if n > MAX_INPUT:
        raise ValueError(f"input {n} exceeds the 2**63 - 1 cap")


def _check_index(value: int, least: int | None, name: str) -> None:
    """The one rule for an index (m, j, length, r): exactly an int, at least
    `least` unless that is None.  A float or a bool is refused, since
    lru_cache keys 3.0 like 3 and True like 1."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}")


@lru_cache(maxsize=_SIGNATURE_CACHE)
def factorise(n: int) -> PrimeFactorisation:
    """Factorisation of a positive integer up to 2**63 - 1: trial division
    by 2 and the odd p < _TRIAL while p*p <= m; a cofactor m > 1 left is
    prime if p*p > m, else _large_primes splits it (no factor below _TRIAL)."""
    _check_positive(n)
    m = n
    factors: list[tuple[int, int]] = []
    for p in chain((2,), range(3, _TRIAL, 2)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    if m > 1:
        primes = [m] if p * p > m else _large_primes(m)
        factors += [(q, primes.count(q)) for q in sorted(set(primes))]
    return PrimeFactorisation(n, tuple(factors))


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 37 below 3.18e23."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n, by Pollard's rho with Floyd's
    cycle finding: x -> x^2 + c mod n from 2, the hare two steps per step
    and one gcd per step, for c = 1, 2, ... until one splits n."""
    for c in count(1):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
        if g != n:
            return g


def _large_primes(m: int) -> list[int]:
    """The prime factors of m, repeats included, when m has none below
    _TRIAL."""
    primes, pending = [], [m]
    while pending:
        m = pending.pop()
        if _is_prime(m):
            primes.append(m)
        else:
            d = _rho(m)
            pending += (d, m // d)
    return primes


def big_omega(n: int) -> int:
    return factorise(n).big_omega


@lru_cache(maxsize=_SIGNATURE_CACHE)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n in ascending order."""
    divs = [1]
    for p, e in factorise(n).factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def mobius(n: int) -> int:
    """mu(n) = d_{-1}(n), read from the prime signature."""
    return _d(-1, factorise(n).signature)


def modified_mobius(n: int) -> int:
    """(mu - e)(n): the Mobius function with its value at 1 removed.

    Equals (-1)**Omega(n) on square-free n > 1 and 0 elsewhere, including
    n = 1.
    """
    return mobius(n) - (n == 1)


def _d(k: int, signature: tuple[int, ...]) -> int:
    """Generalised d_k on a prime signature, for any integer k.

    Each exponent e contributes C(e + k - 1, e) read as a polynomial in k:
    the ordinary binomial for k > 0 and (-1)**e C(-k, e) for k <= 0, so
    d_0 = e and d_{-1} = mu.
    """
    out = 1
    for e in signature:
        out *= comb(e + k - 1, e) if k > 0 else (-1) ** e * comb(-k, e)
    return out


# Filled with the 1,024 signatures of n < 2**63 with the largest Omega, this
# cache holds 4.7 MB (19 MB at 4,096 entries), so it keeps a quarter of the
# shared bound; a count's working set is a few dozen signatures.
@lru_cache(maxsize=_SIGNATURE_CACHE // 4)
def _difference_table(signature: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The backward differences nabla^L d at -1, 0, 1 and at L itself, each
    for L = 0 .. Omega: the first three are (e - mu)^(*L) * d_s for
    s = -1, 0, 1, the last is c_L.  d_k is a polynomial of degree Omega in
    k, so every difference past Omega is 0, and the k = 0 row determines
    nabla^L d at every k by Newton's series (associated_divisor)."""
    omega = sum(signature)
    # nabla^L d(k) for k = L - omega - 1 .. omega + 1, at index k + omega + 1 - L
    level = [_d(k, signature) for k in range(-omega - 1, omega + 2)]
    rows = []
    for length in range(omega + 1):
        i = omega - length  # k = -1
        rows.append((level[i], level[i + 1], level[i + 2], level[omega + 1]))
        level = list(map(sub, level[1:], level))
    return tuple(zip(*rows))


def classical_divisor(j: int, n: int) -> int:
    """d_j(n): ordered factorisations of n into j positive factors.

    Computed from the prime exponents as a product of binomials, which keeps
    it independent of the convolution machinery (d_j = 1^(*j) is a test
    cross-check, not the implementation).
    """
    _check_index(j, 0, "j")
    return _d(j, factorise(n).signature)


def nontrivial_divisor(j: int, n: int) -> int:
    """c_j(n): ordered factorisations of n into j factors, all >= 2.

    nabla^j d at k = j, read by Newton's series over the table's k = 0 row
    (associated_divisor at r = 0).  Vanishes when j > Omega(n).
    """
    return associated_divisor(j, 0, n)


def associated_divisor(j: int, r: int, n: int) -> int:
    """c_j^(r)(n) = ((1-e)^(*j) * 1^(*r))(n), with 1^(*r) read as mu^(*-r)
    for negative r.

    For r >= 0 this counts ordered factorisations of n into j + r factors
    of which the first j are >= 2.  The value is nabla^j d at k = j + r,
    read by Newton's series over the table's k = 0 row s:
    sum over i <= Omega - j of C(k + i - 1, i) s(j + i).  Vanishes when
    j > Omega(n), for every r, as the series is then empty.
    """
    _check_index(j, 0, "j")
    _check_index(r, None, "r")
    k = j + r
    total, term = 0, 1  # term = C(k + i - 1, i), exact for every integer k
    for i, value in enumerate(_difference_table(factorise(n).signature)[1][j:]):
        total += term * value
        term = term * (k + i) // (i + 1)
    return total


def squarefree_ordered_count(length: int, n: int) -> int:
    """(e - mu)^(*length)(n): signed count of ordered factorisations of n
    into `length` square-free factors >= 2.

    The sign is (-1)**(Omega(n) + length); length = 0 gives e(n).
    """
    _check_index(length, 0, "length")
    row = _difference_table(factorise(n).signature)[1]
    return row[length] if length < len(row) else 0
