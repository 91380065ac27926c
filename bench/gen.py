"""Seeded input generators, one per workload.

The generators never import sumsystems: the program under test receives only
the inputs made here.  Where a generator needs a property of an input (a JOF
count for sizing, a primality test, a system document to corrupt), it works it
out by its own route, so those numbers double as independent expectations.

Every generator yields *rounds*: lists of ops with a fixed composition, so
a run of whole rounds measures the same mix whatever the seed.  An op is a
plain dict with a "kind" and its arguments.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial, prod

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# plain `count --n` inputs on the cli workload: d(N) <= 48, so each
# invocation costs about as much as interpreter start
CLI_SIGNATURES = ((3, 2, 1), (2, 2, 1, 1), (4, 1, 1), (5, 2), (3, 1, 1, 1), (5, 3, 1))
MAX_INPUT = 2**63 - 1

# Workload sizes.  "full" is what the benchmark measures; "tiny" keeps every
# op kind but shrinks it so the benchmark's own tests finish in seconds.
SIZES = {
    "full": {
        # counts: prime signatures, d(N) from 21 to 1440, Omega(N) up to 20
        "signatures": (
            (20,), (12, 4, 2, 1), (10, 5, 2), (8, 4, 2, 2), (7, 3, 1, 1, 1),
            (4, 3, 2, 2, 1, 1, 1), (3, 2, 2, 1, 1, 1, 1),
        ),
        "n_cap": 10**11,
        "repeats": 2,
        "small_tuple": (300, 400),
        "small_tuples": 5,
        "big_tuple": (80_000, 100_000),
        "big_tuples": 6,
        # cross-check: N <= 256 with Omega(N) >= 4, whole brute force per N.
        # The cap leaves out 180 and 252, whose 120-JOF tuples would compete
        # with the 360-JOF tuples of 64 for the tail, seed by seed.
        "cross_max_n": 256,
        "cross_max_jofs": 12_000,
        # large-systems: log2 of N per system in one round.  Nine rounds make
        # a run, so the 11th largest op is the 2nd of the 27 2^19 ones.
        "system_bits": (20, 19, 19, 18, 19, 17, 16, 16, 16, 16, 16, 16, 16, 16, 16, 16),
        "corrupt_every": 4,
        # cli
        "enumerate_bands": ((10**4, 15_000), (60_000, 64_000)),
        "cofactor_bits": ((36, 37), (43, 43.5)),
        # verify: genuine and value-corrupted documents of this size, and
        # documents with a wrong stated N of the smaller size
        "verify_bits": (18, 16),
        "verify_docs": (10, 2, 2),
        "build_bits": (8, 13),
        # The edge inputs run for minutes on the seed code, but a 6e4-JOF
        # enumerate takes up to 4 s on a slow host, so a shorter budget
        # would kill real work.  Killed invocations are left out of the op
        # times (worker.py), so the budget sets no metric.
        "budget_s": 10.0,
        "big_m": (2 * 10**6, 4 * 10**6),
    },
    "tiny": {
        "signatures": ((4,), (2, 1, 1), (3, 2)),
        "n_cap": 10**6,
        "repeats": 1,
        "small_tuple": (4, 8),
        "small_tuples": 1,
        "big_tuple": (50, 100),
        "big_tuples": 1,
        "cross_max_n": 48,
        "cross_max_jofs": 300,
        "system_bits": (10, 9, 8, 8),
        "corrupt_every": 2,
        "enumerate_bands": ((10, 100), (100, 500)),
        "cofactor_bits": ((20, 22), (22, 24)),
        "verify_bits": (10, 8),
        "verify_docs": (2, 1, 1),
        "build_bits": (4, 6),
        "budget_s": 2.0,
        "big_m": (2 * 10**6, 4 * 10**6),
    },
}


# Seconds one round's ops take at the reference speed (see speed.py),
# measured on the seed code; a cli round includes one invocation killed at
# the 10 s budget.  A run of --seconds executes round(seconds / ROUND_SECONDS)
# rounds, at least one.
ROUND_SECONDS = {"counts": 5.7, "cross-check": 2.5, "large-systems": 1.7, "cli": 18.5}


def rng_for(workload: str, seed: int) -> random.Random:
    """One independent stream per (workload, seed); str seeds are stable."""
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------- numbers
# A number is carried with its factorisation, a {prime: exponent} dict.


def value(fac: dict[int, int]) -> int:
    return prod(p**e for p, e in fac.items())


def big_omega(fac: dict[int, int]) -> int:
    return sum(fac.values())


def n_divisors(fac: dict[int, int]) -> int:
    return prod(e + 1 for e in fac.values())


def signature(fac: dict[int, int]) -> tuple[int, ...]:
    return tuple(sorted(fac.values(), reverse=True))


def small_factorise(n: int) -> dict[int, int]:
    """Factorisation by trial division; only used on generated values."""
    fac: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def realise(rng: random.Random, sig: tuple[int, ...], cap: int) -> dict[int, int]:
    """A number with prime signature `sig` and primes <= 47, at most `cap`."""
    for _ in range(10_000):
        primes = sorted(rng.sample(PRIMES, len(sig)))
        fac = dict(zip(primes, sorted(sig, reverse=True)))
        if value(fac) <= cap:
            return fac
    raise ValueError(f"no number with signature {sig} below {cap}")


def smooth(rng: random.Random, omega: int, primes=PRIMES[:8]) -> dict[int, int]:
    """A random number with `omega` prime factors drawn from `primes`."""
    fac: dict[int, int] = {}
    for p in rng.choices(primes, k=omega):
        fac[p] = fac.get(p, 0) + 1
    return fac


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the first 12 prime bases suffice below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A prime in [lo, hi)."""
    while True:
        n = rng.randrange(lo, hi) | 1
        if n < hi and is_prime(n):
            return n


# ------------------------------------------------------------- JOF counts


def ordered_count(length: int, exps) -> int:
    """Ordered factorisations into `length` factors >= 2 of a number with
    prime exponents `exps`: inclusion-exclusion over factors equal to 1."""
    return sum(
        (-1) ** i * comb(length, i) * prod(comb(e + length - i - 1, e) for e in exps)
        for i in range(length + 1)
    )


def jof_count(part_exps) -> int:
    """Number of JOFs of a tuple whose parts have the given prime exponents.

    A JOF is an ordered factorisation of every part, interleaved so that no
    two adjacent entries name the same part.  The interleavings are Smirnov
    words, counted by inclusion-exclusion over merged runs through a product
    of exponential generating functions.  This route shares nothing with
    sumsystems.count_for_tuple, which sums signed square-free counts.
    """
    egf = [Fraction(1)]
    for exps in part_exps:
        top = sum(exps)
        ways = [ordered_count(length, exps) for length in range(top + 1)]
        term = [Fraction(0)] + [
            Fraction(
                sum(
                    ways[length] * (-1) ** (length - k) * comb(length - 1, k - 1)
                    for length in range(k, top + 1)
                ),
                factorial(k),
            )
            for k in range(1, top + 1)
        ]
        product = [Fraction(0)] * (len(egf) + len(term) - 1)
        for i, a in enumerate(egf):
            if a:
                for j, b in enumerate(term):
                    product[i + j] += a * b
        egf = product
    total = sum(coef * factorial(k) for k, coef in enumerate(egf))
    if total.denominator != 1:
        raise ArithmeticError(f"JOF count {total} is not an integer")
    return int(total)


def tuple_jofs(parts) -> int:
    return jof_count([tuple(small_factorise(n).values()) for n in parts])


# ---------------------------------------------------------------- systems


def random_jof(rng: random.Random, part_primes: list[list[int]]) -> list[list[int]]:
    """A random JOF whose part j multiplies to prod(part_primes[j]).

    Each part's primes are shuffled and cut into entry factors; entries are
    then interleaved so that no two adjacent entries share a part.
    """
    entries: dict[int, list[int]] = {}
    for j, primes in enumerate(part_primes, start=1):
        primes = list(primes)
        rng.shuffle(primes)
        cuts = sorted(rng.sample(range(1, len(primes)), rng.randint(0, len(primes) - 1)))
        bounds = [0, *cuts, len(primes)]
        entries[j] = [prod(primes[a:b]) for a, b in zip(bounds, bounds[1:])]
    # merge entries of the dominant part until an interleaving exists
    while True:
        top = max(entries, key=lambda j: len(entries[j]))
        rest = sum(len(v) for v in entries.values()) - len(entries[top])
        if len(entries[top]) <= rest + 1:
            break
        a, b = entries[top].pop(), entries[top].pop()
        entries[top].append(a * b)
    jof: list[list[int]] = []
    last = None
    left = {j: len(v) for j, v in entries.items()}
    while any(left.values()):
        total = sum(left.values()) - 1
        options = []
        for c in left:
            if c == last or not left[c]:
                continue
            left[c] -= 1
            if all(
                left[j] <= total - left[j] + (0 if j == c else 1) for j in left
            ):
                options.append(c)
            left[c] += 1
        c = rng.choice(options)
        left[c] -= 1
        jof.append([c, entries[c][left[c]]])
        last = c
    return jof


def jof_text(jof) -> str:
    return ",".join(f"{part}:{factor}" for part, factor in jof)


def components(jof) -> list[list[int]]:
    """Components of the sum system of a JOF, built independently."""
    comps = [[0] for _ in range(max(part for part, _ in jof))]
    partial = 1
    for part, factor in jof:
        comps[part - 1] = sorted(
            a + partial * k for a in comps[part - 1] for k in range(factor)
        )
        partial *= factor
    return comps


def centred_components(jof) -> list[list[int]]:
    return [[2 * a - comp[-1] for a in comp] for comp in components(jof)]


def corrupt_value(comps: list[list[int]], doubled: bool) -> list[list[int]] | None:
    """Move one symmetric pair of values so every shape check still passes
    and only the Minkowski fold can reject the document.  With the other
    components fixed, the complement that tiles 0..N-1 is unique, so any
    such move breaks the system.  None if no component has room."""
    step = 2 if doubled else 1
    for j, comp in enumerate(comps):
        k = len(comp)
        # plain components keep 0; i and k - 1 - i must be distinct
        for i in range(0 if doubled else 1, k // 2):
            for delta in (step, -step):
                new = list(comp)
                new[i] += delta
                new[k - 1 - i] -= delta
                if all(a < b for a, b in zip(new, new[1:])):
                    return comps[:j] + [new] + comps[j + 1 :]
    return None


def system_primes(rng: random.Random, bits: int) -> list[int]:
    """Prime factors, from 2, 3, 5 and 7, of an N within 4% of 2**bits."""
    target = 2**bits
    choices = []
    for b in range(5):
        for c in range(3):
            for d in range(3):
                odd = 3**b * 5**c * 7**d
                a = round(bits - odd.bit_length() + 1)
                for a in (a - 1, a, a + 1):
                    if a >= 1 and abs(2**a * odd - target) <= 0.04 * target:
                        choices.append((a, b, c, d))
    a, b, c, d = rng.choice(choices)
    return [2] * a + [3] * b + [5] * c + [7] * d


def split_parts(rng: random.Random, primes: list[int], m: int) -> list[list[int]]:
    """Deal the primes into m non-empty parts, the largest part last.

    The verifiers fold components in part order, so with the largest last
    a fold costs between N and 2N pairs."""
    primes = list(primes)
    rng.shuffle(primes)
    parts = [[p] for p in primes[:m]]
    for p in primes[m:]:
        parts[rng.randrange(m)].append(p)
    return sorted(parts, key=prod)


# -------------------------------------------------------------- workloads


# (j, r) of the two associated_divisor queries of each counts block
ASSOC_PARAMS = ((1, -3), (2, 4), (3, -1), (1, 5), (2, -5), (3, 2), (1, 0), (2, -2),
                (3, 3), (1, -4), (2, 1), (3, -2), (1, 2), (2, -3), (3, 5), (1, -1),
                (2, 3), (3, -4))


def counts(seed: int, size: str = "full"):
    """Closed-form queries on smooth N with large divisor counts.

    A round realises every signature once with fresh primes, in a fixed
    order, then asks `repeats` more blocks about N seen earlier in the run,
    so both new and repeated N are in every round.  A block asks the full
    count row of its N, a divisor-sum check, a square-free and two
    associated divisor values, and `small_tuples` fixed-tuple counts; each
    round adds `big_tuples` fixed-tuple counts.  A fixed-tuple count costs
    what its product of Omegas says, so the small ones hold the median and
    the big ones the tail inside a class of like queries whatever the seed.
    """
    cfg = SIZES[size]
    rng = rng_for("counts", seed)
    seen: list[dict[int, int]] = []
    while True:
        facs = [realise(rng, sig, cfg["n_cap"]) for sig in cfg["signatures"]]
        facs += [rng.choice(seen + facs) for _ in range(cfg["repeats"])]
        ops = []
        for block, fac in enumerate(facs):
            n, omega = value(fac), big_omega(fac)
            props = {"N": n, "d": n_divisors(fac), "omega": omega, "sig": signature(fac)}
            ops.append({"kind": "row", "n": n, "top": omega + 1, "props": props})
            ops.append({"kind": "dsc", "n": n, "m": rng.randint(1, omega), "props": props})
            ops.append({"kind": "sqfree", "length": rng.randint(1, omega), "n": n, "props": props})
            # (j, r) by block position, so every round asks the same mix
            for j, r in ASSOC_PARAMS[2 * block: 2 * block + 2]:
                ops.append({"kind": "assoc", "j": j, "r": r, "n": n, "props": props})
            ops += [_tuple_op(rng, cfg["small_tuple"]) for _ in range(cfg["small_tuples"])]
        ops += [_tuple_op(rng, cfg["big_tuple"]) for _ in range(cfg["big_tuples"])]
        seen.extend(facs)
        yield ops


def _tuple_op(rng: random.Random, work: tuple[int, int]) -> dict:
    """count_for_tuple on 1-6 powers of distinct primes <= 19 whose product
    of Omegas lies in `work`.  Prime-power parts keep the cost in the closed
    form's product over Omegas rather than in the parts' divisor lattices."""
    lo, hi = work
    while True:
        omegas = [rng.randint(1, 12) for _ in range(rng.randint(1, 6))]
        if lo <= prod(omegas) <= hi:
            break
    parts = [p**e for p, e in zip(rng.sample(PRIMES[:8], len(omegas)), omegas)]
    return {"kind": "tuple", "parts": parts, "props": {"omega_product": prod(omegas)}}


def _cross_check_pool(cfg) -> list[int]:
    """N in range with Omega(N) >= 4 and at most `cross_max_jofs` JOFs over
    all m.  The total depends only on the prime signature."""
    totals: dict[tuple[int, ...], int] = {}
    pool = []
    for n in range(2, cfg["cross_max_n"] + 1):
        fac = small_factorise(n)
        if big_omega(fac) < 4:
            continue
        sig = signature(fac)
        if sig not in totals:
            totals[sig] = sum(
                tuple_jofs(t)
                for m in range(1, big_omega(fac) + 1)
                for t in _ordered_tuples(n, m)
            )
        if totals[sig] <= cfg["cross_max_jofs"]:
            pool.append(n)
    return pool


def _ordered_tuples(n: int, m: int):
    if m == 1:
        yield (n,)
        return
    for f in range(2, n):
        if n % f == 0:
            for rest in _ordered_tuples(n // f, m - 1):
                yield (f,) + rest


def cross_check(seed: int, size: str = "full"):
    """Whole brute-force pipelines for N <= 256 with Omega(N) >= 4.

    N whose brute force exceeds `cross_max_jofs` JOFs are left out, so a
    round stays well inside one run.  A round takes
    one seeded N of every prime signature in the pool, at most twice the
    signature's smallest N, in seeded order: every round enumerates the
    same JOFs count on systems of similar size.  Each N gives one unit per
    m = 1..Omega(N).
    """
    cfg = SIZES[size]
    rng = rng_for("cross-check", seed)
    by_sig: dict[tuple[int, ...], list[int]] = {}
    for n in _cross_check_pool(cfg):
        by_sig.setdefault(signature(small_factorise(n)), []).append(n)
    by_sig = {sig: [n for n in ns if n <= 2 * ns[0]] for sig, ns in by_sig.items()}
    while True:
        picks = [rng.choice(ns) for ns in by_sig.values()]
        rng.shuffle(picks)
        ops = []
        for n in picks:
            fac = small_factorise(n)
            props = {"N": n, "d": n_divisors(fac), "omega": big_omega(fac)}
            ops += [{"kind": "brute", "n": n, "m": m, "props": props}
                    for m in range(1, big_omega(fac) + 1)]
        yield ops


# Parts per system by position in a large-systems round: 2 to 20, fixed so
# the fold cost of a round does not depend on the seed, and alike for the
# 2^19 systems (positions 1, 2 and 4).
PARTS_LADDER = (2, 12, 13, 20, 14, 3, 9, 6, 4, 11, 7, 18, 5, 16, 8, 10)


def large_systems(seed: int, size: str = "full"):
    """A fixed ladder of system sizes and part counts per round; every
    `corrupt_every`-th system is a corrupted document that must be
    rejected."""
    cfg = SIZES[size]
    rng = rng_for("large-systems", seed)
    while True:
        ops = []
        for i, bits in enumerate(cfg["system_bits"]):
            primes = system_primes(rng, bits)
            m = min(PARTS_LADDER[i % len(PARTS_LADDER)], len(primes))
            jof = random_jof(rng, split_parts(rng, primes, m))
            props = {"N": prod(primes), "m": m}
            if i % cfg["corrupt_every"] != cfg["corrupt_every"] - 1:
                ops.append({"kind": "system", "jof": jof, "props": props})
                continue
            doubled = (i // cfg["corrupt_every"]) % 2 == 1
            comps = centred_components(jof) if doubled else components(jof)
            how = "value" if (i // (2 * cfg["corrupt_every"])) % 2 == 0 else "stated-n"
            bad = corrupt_value(comps, doubled) if how == "value" else None
            if bad is None:
                how, bad = "stated-n", comps
            n = prod(primes) + (rng.randint(1, 5) if how == "stated-n" else 0)
            doc = {"N": n, "components": bad, "doubled": doubled}
            ops.append({"kind": "corrupt", "doc": doc, "how": how, "props": props})
        rng.shuffle(ops)
        yield ops


def cli(seed: int, size: str = "full"):
    """One round of sumsys invocations with a fixed mix of subcommands.

    Each round holds exactly one edge input that times out on the seed code
    (N near 2**63 - 1 or m >> Omega(N), alternating) and one that raises
    RecursionError (deep --j or deep --r, alternating), so every round
    costs the same.  The seed picks which kinds come first, so runs of one
    round still cover all four across seeds.
    """
    cfg = SIZES[size]
    rng = rng_for("cli", seed)
    round_no = rng.randrange(4)
    while True:
        ops = []
        for _ in range(6):
            fac = realise(rng, rng.choice(CLI_SIGNATURES), 10**11)
            flags = rng.choice(([], ["--unordered"], ["--m", str(rng.randint(1, big_omega(fac)))],
                                ["--m", str(rng.randint(1, big_omega(fac))), "--unordered"]))
            ops.append(_cli_op("count", ["--n", str(value(fac)), *flags], n=value(fac)))
        for lo, hi in cfg["cofactor_bits"]:
            # the seed code factorises every divisor holding the cofactor, so
            # the smooth part's signature is fixed: its d(N) sets the cost
            fac = realise(rng, (1, 1), 10**4)
            p = random_prime(rng, int(2**lo), int(2**hi))
            fac[p] = 1
            ops.append(_cli_op("count", ["--n", str(value(fac))], n=value(fac), cofactor=p))
        for _ in range(4):
            parts = [value(smooth(rng, rng.randint(1, 6))) for _ in range(rng.randint(1, 5))]
            ops.append(_cli_op("count", ["--tuple", ",".join(map(str, parts))], parts=parts))
        for lo, hi in cfg["enumerate_bands"]:
            parts = _tuple_in_band(rng, lo, hi)
            ops.append(_cli_op("enumerate", ["--tuple", ",".join(map(str, parts))],
                               parts=parts, jofs=tuple_jofs(parts)))
        for flag in ([], [], ["--centred"], ["--centred"], ["--sum-and-distance"],
                     ["--sum-and-distance"]):
            primes = system_primes(rng, rng.randint(*cfg["build_bits"]))
            jof = random_jof(rng, split_parts(rng, primes, rng.randint(1, min(4, len(primes)))))
            ops.append(_cli_op("build", ["--jof", jof_text(jof), *flag], jof=jof))
        genuine, by_value, by_n = cfg["verify_docs"]
        big, small = cfg["verify_bits"]
        kinds = ["genuine"] * genuine + ["value"] * by_value + ["stated-n"] * by_n
        for i, how in enumerate(kinds):
            primes = system_primes(rng, small if how == "stated-n" else big)
            jof = random_jof(rng, split_parts(rng, primes, rng.randint(2, min(12, len(primes)))))
            doubled = i % 2 == 1
            comps = centred_components(jof) if doubled else components(jof)
            n = prod(primes)
            if how == "value":
                bad = corrupt_value(comps, doubled)
                how, comps = ("value", bad) if bad is not None else ("stated-n", comps)
            if how == "stated-n":
                n += rng.randint(1, 5)
            doc = {"N": n, "components": comps, "doubled": doubled}
            ops.append(_cli_op("verify", [], doc=doc, expect_ok=how == "genuine",
                               N=prod(primes), corrupted=how))
        for kind in ("d", "c", "assoc", "assoc", "sqfree", "sqfree"):
            fac = realise(rng, rng.choice(((3, 2, 1), (2, 2, 1, 1), (4, 1, 1))), 10**9)
            args = ["--kind", kind, "--j", str(rng.randint(0 if kind != "c" else 1, 4))]
            if kind == "assoc":
                args += ["--r", str(rng.randint(-5, 5))]
            ops.append(_cli_op("divisor-fn", [*args, "--n", str(value(fac))], n=value(fac)))
        for _ in range(3):
            fac = realise(rng, rng.choice(((2, 1, 1), (3, 2), (2, 2, 1))), 10**6)
            m = rng.randint(1, big_omega(fac))
            ops.append(_cli_op("check", ["--n", str(value(fac)), "--m", str(m)]))
        for _ in range(3):
            ops.append(_cli_op("table", ["--max-n", str(rng.randint(20, 60)),
                                         "--max-m", str(rng.randint(2, 5))]))
        ops.append(_edge_timeout(rng, round_no % 2, cfg))
        ops.append(_edge_traceback(rng, round_no // 2 % 2))
        rng.shuffle(ops)
        round_no += 1
        yield ops


def _cli_op(command: str, args: list[str], **props) -> dict:
    return {"kind": command, "args": args, "props": props}


def _tuple_in_band(rng: random.Random, lo: int, hi: int) -> list[int]:
    """Smooth parts whose JOF count, by jof_count, lies in [lo, hi]."""
    while True:
        parts = [value(smooth(rng, rng.randint(1, 3), PRIMES[:4])) for _ in range(rng.randint(3, 8))]
        parts = [n for n in parts if n > 1]
        if parts and lo <= tuple_jofs(parts) <= hi:
            return parts


def _edge_timeout(rng: random.Random, which: int, cfg) -> dict:
    """An edge input the seed code cannot finish inside the budget.

    Both outcomes are known here, so a fixed program is checked too: a prime
    N has exactly one 1-part system, and m > Omega(N) gives 0."""
    if which == 0:
        p = random_prime(rng, MAX_INPUT - 2**32, MAX_INPUT)
        return _cli_op("count", ["--n", str(p)], n=p, edge="near-cap",
                       expect={"N": p, "counts": [{"m": 1, "count": 1}], "method": "closed-form"},
                       known_failure="timeout")
    fac = smooth(rng, rng.randint(2, 6))
    m = rng.randint(*cfg["big_m"])
    n = value(fac)
    return _cli_op("count", ["--n", str(n), "--m", str(m)], n=n, edge="huge-m",
                   expect={"N": n, "m": m, "count": 0, "method": "closed-form"},
                   known_failure="timeout")


def _edge_traceback(rng: random.Random, which: int) -> dict:
    """Deep --j or --r; the seed code recurses once per unit of depth.

    For r >= 0, c_j^(r)(n) counts factorisations whose first j factors are
    >= 2, so it is 0 once j > Omega(n).  For r < 0 the value is the binomial
    sum of generalised d_k(n), k = j - i + r, evaluated here directly."""
    fac = smooth(rng, rng.randint(1, 4))
    n = value(fac)
    if which == 0:
        j = rng.randint(2000, 5000)
        args = ["--kind", "assoc", "--j", str(j), "--n", str(n)]
        expect = 0
        r = None
    else:
        j, r = rng.randint(1, 3), -rng.randint(2000, 5000)
        args = ["--kind", "assoc", "--j", str(j), "--r", str(r), "--n", str(n)]
        expect = sum(
            (-1) ** i * comb(j, i) * _generalised_d(j - i + r, fac) for i in range(j + 1)
        )
    return _cli_op("divisor-fn", args, n=n, edge="deep-j" if r is None else "deep-r",
                   expect={"kind": "assoc", "j": j, "r": r, "n": n, "value": expect},
                   known_failure="traceback: RecursionError")


def _generalised_d(k: int, fac: dict[int, int]) -> int:
    """d_k(n) for any integer k: prod over p^e || n of C(e + k - 1, e),
    with the binomial read as a polynomial in k."""
    out = 1
    for e in fac.values():
        num = prod(k + i for i in range(e))
        out *= num // factorial(e)
    return out


GENERATORS = {
    "counts": counts,
    "cross-check": cross_check,
    "large-systems": large_systems,
    "cli": cli,
}
