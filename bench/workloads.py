"""What each op does, and how its result is checked.

`execute` runs one generated unit through the package (via `Api`, so a
traced run records spans) and returns one record per op: [latency_ns,
result, error].  `check` runs after the timed loop and returns, per record,
None or the reason the op failed.  Checks use routes independent of the
code under test where one exists: the divisor recurrence, the generators'
own counts and builders, and exact closed forms.
"""

from __future__ import annotations

import json
import statistics
import sys
from fractions import Fraction
from math import comb, factorial
from time import perf_counter_ns

import gen
from proc import run_child

TRACEBACK = "Traceback (most recent call last)"


class Context:
    """Per-run settings the cli workload needs."""

    def __init__(self, root: str, tmpdir: str, env: dict, budget_s: float) -> None:
        self.root = root
        self.tmpdir = tmpdir
        self.env = env
        self.budget_s = budget_s


def _timed(api, kind: str, fn, *args) -> list:
    span = api.begin_op(kind)
    start = perf_counter_ns()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # a raising op is a failed op, not a failed run
        result, error = None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter_ns() - start
    api.end_op(span)
    return [latency, result, error]


def _fold_pairs(cards) -> int:
    """Sum over fold stages of |acc| * |A_j| for a full Minkowski fold."""
    total, acc = 0, 1
    for n in cards:
        total += acc * n
        acc *= n
    return total


def _d(k: int, n: int) -> int:
    return gen._generalised_d(k, gen.small_factorise(n))


# ------------------------------------------------------------------ counts


def _counts_op(api, op):
    kind, n = op["kind"], op.get("n")
    if kind == "row":
        ms = range(1, op["top"] + 1)
        return (
            [api.count_m_part(n, m).value for m in ms],
            [api.count_unordered(n, m).value for m in ms],
            api.count_two_part(n).value,
        )
    if kind == "dsc":
        return api.divisor_sum_check(n, op["m"]).ok
    if kind == "sqfree":
        return api.squarefree_ordered_count(op["length"], n)
    if kind == "assoc":
        return api.associated_divisor(op["j"], op["r"], n)
    return api.count_for_tuple(op["parts"])


def _check_counts(op, result, _ctx):
    import sumsystems as ss

    kind, n = op["kind"], op.get("n")
    if kind == "row":
        ordered, unordered, two = result
        for m, (o, u) in enumerate(zip(ordered, unordered), start=1):
            expect = ss.count_by_recurrence(n, m).value
            if o != expect:
                return f"count_m_part({n}, {m}) = {o}; the divisor recurrence gives {expect}"
            if u * factorial(m) != o:
                return f"count_unordered({n}, {m}) * {m}! = {u * factorial(m)} != {o}"
        return None if two == ordered[1] else f"count_two_part({n}) = {two} != {ordered[1]}"
    if kind == "dsc":
        return None if result else f"divisor_sum_check({n}, {op['m']}) is not ok"
    if kind == "sqfree":
        length = op["length"]
        expect = sum((-1) ** i * comb(length, i) * _d(-i, n) for i in range(length + 1))
    elif kind == "assoc":
        j, r = op["j"], op["r"]
        expect = sum((-1) ** i * comb(j, i) * _d(j - i + r, n) for i in range(j + 1))
    else:
        parts = op["parts"]
        expect = gen.tuple_jofs(parts)
        if result == expect and expect <= 2000 and len(ss.enumerate_jofs(parts)) != expect:
            return f"enumerate_jofs({parts}) disagrees with count_for_tuple = {expect}"
    return None if result == expect else f"{kind} {op} gave {result}, expected {expect}"


# ------------------------------------------------------------- cross-check


def _cross_check_unit(api, unit, _ctx):
    """The paper's brute force for one N and m; one record per ordered tuple.

    An op is one tuple: enumerate its JOFs and take each through the
    pipeline.  (With one op per JOF, ~10^5 sub-millisecond ops per run, the
    tail percentile was set by rare collector and host pauses and moved
    between 1 and 9 ms from run to run.)  A unit is one (N, m), not one N,
    so host speed probes run between short stretches of tuples."""
    records = [
        _timed(api, "op.tuple", _tuple_pipeline, api, parts)
        for parts in api.ordered_factorisations(unit["n"], unit["m"])
    ]
    per_tuple = [len(record[1][1]) for record in records if record[1] is not None]
    return records, {"jofs_per_tuple": per_tuple}


def _tuple_pipeline(api, parts):
    return parts, [_pipeline(api, jof) for jof in api.enumerate_jofs(parts)]


def _pipeline(api, jof):
    system = api.build_sum_system(jof)
    centred = api.centre(system)
    return (
        api.verify_sum_system(system),
        api.verify_centred(centred),
        api.sigma_a(system),
        api.tau_c(centred),
        system.cardinalities,
    )


def _check_system(n: int, verdicts, sigma, tau) -> str | None:
    if verdicts[0] != (True, None):
        return f"verify_sum_system rejected a built system: {verdicts[0][1]}"
    if verdicts[1] != (True, None):
        return f"verify_centred rejected a built system: {verdicts[1][1]}"
    if sigma != n * (n - 1) // 2:
        return f"sigma_A = {sigma}, expected N(N-1)/2 = {n * (n - 1) // 2}"
    if tau != Fraction(n * (n * n - 1), 12):
        return f"tau_C = {tau}, expected N(N^2-1)/12 = {Fraction(n * (n * n - 1), 12)}"
    return None


def compact(workload: str, unit, records) -> None:
    """Shrink a cross-check unit's results in place, between ops.

    Each tuple's per-JOF results become (parts, JOF count, first failed
    system check or None, fold pairs), so the worker holds no large heap
    whose garbage collection would land inside later ops.  The system
    checks are pure; nothing here calls the package."""
    if workload != "cross-check":
        return
    n = unit["n"]
    for record in records:
        if record[1] is None:
            continue
        parts, systems = record[1]
        reason, pairs = None, 0
        for verify_plain, verify_centred, sigma, tau, cards in systems:
            reason = reason or _check_system(n, (verify_plain, verify_centred), sigma, tau)
            pairs += 2 * _fold_pairs(cards)
        record[1] = (parts, len(systems), reason, pairs)


def _check_cross_check(unit, records, extra):
    import sumsystems as ss

    n = unit["n"]
    reasons = []
    for _, result, error in records:
        if error is None:
            parts, count, error, _ = result
            expect = ss.count_for_tuple(parts)
            if count != expect:
                error = f"enumerate_jofs({parts}) gave {count}, count_for_tuple {expect}"
        reasons.append(error)
    m, total = unit["m"], sum(extra["jofs_per_tuple"])
    expect = ss.count_m_part(n, m).value
    if total != expect and reasons and reasons[-1] is None:
        reasons[-1] = f"{total} JOFs for N={n}, m={m}; count_m_part gives {expect}"
    return reasons


# ----------------------------------------------------------- large-systems


def _round_trip(api, system):
    return api.system_from_json(json.loads(json.dumps(api.system_to_json(system))))


def _large_op(api, op):
    if op["kind"] == "system":
        system = api.build_sum_system(op["jof"])
        centred = api.centre(system)
        verdicts = (api.verify_sum_system(system), api.verify_centred(centred))
        sigma, tau = api.sigma_a(system), api.tau_c(centred)
        back = api.group("systems.json", _round_trip, api, system)
        back_centred = api.group("systems.json", _round_trip, api, centred)
        return verdicts, sigma, tau, system, centred, back, back_centred
    text = json.dumps(op["doc"])
    try:
        loaded = api.group("systems.json", lambda: api.system_from_json(json.loads(text)))
    except ValueError as exc:
        return False, str(exc), None
    verify = api.verify_centred if op["doc"]["doubled"] else api.verify_sum_system
    ok, reason = verify(loaded)
    return ok, reason, loaded.cardinalities


def _check_large(op, result, _ctx):
    if op["kind"] == "corrupt":
        accepted, reason, _ = result
        if accepted or not reason:
            return f"corrupted document ({op['how']}) was accepted"
        return None
    verdicts, sigma, tau, system, centred, back, back_centred = result
    n = op["props"]["N"]
    if list(map(list, system.components)) != gen.components(op["jof"]):
        return "build_sum_system differs from the generator's construction"
    if back != system or back_centred != centred:
        return "JSON round trip changed the system"
    return _check_system(n, verdicts, sigma, tau)


# --------------------------------------------------------------------- cli


def _prepare_cli(ops, ctx: Context) -> None:
    """Write the documents `verify` reads; not part of any timed op."""
    for i, op in enumerate(ops):
        if op["kind"] == "verify":
            op["path"] = f"{ctx.tmpdir}/doc-{i}.json"
            with open(op["path"], "w", encoding="utf-8") as out:
                json.dump(op["props"]["doc"], out)


def _cli_op(api, op, ctx: Context):
    argv = [sys.executable, "-m", "sumsystems.cli", op["kind"], *op["args"]]
    if op["kind"] == "verify":
        argv += ["--file", op["path"]]
    out_path, err_path = f"{ctx.tmpdir}/stdout", f"{ctx.tmpdir}/stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        span = api.begin_op("op.cli")
        child = api.group(f"cli.{op['kind']}", lambda: run_child(
            argv, env=ctx.env, cwd=ctx.root, stdout=out, stderr=err, budget_s=ctx.budget_s))
        api.end_op(span)
    with open(out_path, encoding="utf-8") as out, open(err_path, encoding="utf-8") as err:
        stdout, stderr = out.read(), err.read()
    result = {
        "code": child.code, "stdout": stdout, "stderr": stderr[-2000:],
        "rss_mb": child.maxrss_mb, "timed_out": child.timed_out, "wall_s": child.wall_s,
    }
    return [round(child.wall_s * 1e9), result, None]


def _expected_cli(op):
    """The document the command should print, computed in-process."""
    import sumsystems as ss

    props, args = op["props"], op["args"]
    if "expect" in props:
        return props["expect"]
    flag = dict(zip(args[::2], args[1::2]))
    kind = op["kind"]
    if kind == "count" and "--tuple" in flag:
        parts = props["parts"]
        count = ss.count_for_tuple(parts)
        if count != gen.tuple_jofs(parts):
            return {"error": f"count_for_tuple({parts}) = {count} disagrees with jof_count"}
        return {"tuple": parts, "count": count, "method": "closed-form"}
    if kind == "count":
        n, unordered = int(flag["--n"]), "--unordered" in args
        if "--m" in flag:
            m = int(flag["--m"])
            doc = {"N": n, "m": m, "count": ss.count_m_part(n, m).value}
            if unordered:
                doc["unordered"] = ss.count_unordered(n, m).value
            return {**doc, "method": "closed-form"}
        rows = []
        for m in range(1, max(1, ss.big_omega(n)) + 1):
            row = {"m": m, "count": ss.count_m_part(n, m).value}
            if unordered:
                row["unordered"] = ss.count_unordered(n, m).value
            rows.append(row)
        return {"N": n, "counts": rows, "method": "closed-form"}
    if kind == "enumerate":
        found = ss.enumerate_jofs(props["parts"])
        return {
            "tuple": props["parts"], "count": props["jofs"],
            "jofs": [ss.jof_to_pairs(j) for j in found],
            "text": [ss.jof_to_text(j) for j in found],
        }
    if kind == "build":
        jof = ss.parse_jof_text(flag["--jof"])
        if "--centred" in args:
            return ss.system_to_json(ss.build_centred(jof))
        if "--sum-and-distance" in args:
            return ss.system_to_json(ss.to_sum_and_distance(ss.build_centred(jof)))
        doc = ss.system_to_json(ss.build_sum_system(jof))
        if doc["components"] != gen.components(props["jof"]):
            return {"error": "build_sum_system differs from the generator's construction"}
        return doc
    if kind == "verify":
        doc = props["doc"]
        return {"ok": True, "reason": None, "N": doc["N"], "doubled": doc["doubled"]}
    if kind == "divisor-fn":
        j, n, r = int(flag["--j"]), int(flag["--n"]), flag.get("--r")
        fn = {
            "d": lambda: ss.classical_divisor(j, n),
            "c": lambda: ss.nontrivial_divisor(j, n),
            "assoc": lambda: ss.associated_divisor(j, int(r or 0), n),
            "sqfree": lambda: ss.squarefree_ordered_count(j, n),
        }[flag["--kind"]]
        return {"kind": flag["--kind"], "j": j, "r": None if r is None else int(r),
                "n": n, "value": fn()}
    if kind == "check":
        return ss.divisor_sum_check(int(flag["--n"]), int(flag["--m"])).as_dict()
    max_n, max_m = int(flag["--max-n"]), int(flag["--max-m"])
    return "N,m,count\n" + "".join(
        f"{n},{m},{ss.count_m_part(n, m).value}\n"
        for n in range(1, max_n + 1) for m in range(1, max_m + 1)
    )


def _check_cli(op, r, ctx: Context):
    if r["timed_out"]:
        return f"timeout: killed after the {ctx.budget_s:g} s budget"
    if TRACEBACK in r["stderr"]:
        return "traceback: " + r["stderr"].strip().splitlines()[-1]
    if not 0 <= r["code"] <= 3:
        return f"exit code {r['code']} is outside 0-3"
    want_code = 1 if op["kind"] == "verify" and not op["props"]["expect_ok"] else 0
    if r["code"] != want_code:
        return f"exit code {r['code']}, expected {want_code}: {r['stderr'].strip()[-200:]}"
    if op["kind"] == "verify" and not op["props"]["expect_ok"]:
        doc = json.loads(r["stdout"])
        return None if doc["ok"] is False and doc["reason"] else "corrupted document accepted"
    expect = _expected_cli(op)
    got = r["stdout"] if op["kind"] == "table" else json.loads(r["stdout"])
    if isinstance(expect, dict) and "error" in expect:
        return expect["error"]
    return None if got == expect else f"stdout differs from the in-process result ({op['args'][:4]})"


# ------------------------------------------------------------ dispatching


def execute(workload: str, api, unit, ctx: Context):
    """Run one generated unit; returns (records, extra)."""
    if workload == "cross-check":
        return _cross_check_unit(api, unit, ctx)
    if workload == "cli":
        return [_cli_op(api, unit, ctx)], None
    fn = _counts_op if workload == "counts" else _large_op
    return [_timed(api, f"op.{unit['kind']}", fn, api, unit)], None


def prepare(workload: str, ops, ctx: Context) -> None:
    if workload == "cli":
        _prepare_cli(ops, ctx)


def check(workload: str, unit, records, extra, ctx: Context) -> list[str | None]:
    if workload == "cross-check":
        return _check_cross_check(unit, records, extra)
    fn = {"counts": _check_counts, "large-systems": _check_large, "cli": _check_cli}[workload]
    reasons = []
    for _, result, error in records:
        if error is None:
            try:
                error = fn(unit, result, ctx)
            except Exception as exc:  # a result the check cannot parse is a wrong result
                error = f"unreadable result: {type(exc).__name__}: {exc}"
        reasons.append(error)
    return reasons


def tally(workload: str, unit, records, acc: dict) -> None:
    """Add one unit's per-layer counts (those the spans do not give) to acc."""
    results = [r[1] for r in records if r[1] is not None]
    if workload == "cross-check":
        acc["jof.jofs"] = acc.get("jof.jofs", 0) + sum(r[1] for r in results)
        acc["systems.fold_pairs"] = acc.get("systems.fold_pairs", 0) + sum(
            r[3] for r in results)
    elif workload == "large-systems" and results:
        result, pairs = results[0], 0
        if unit["kind"] == "system":
            pairs = 2 * _fold_pairs(result[3].cardinalities)
        else:
            acc["corrupt"] = acc.get("corrupt", 0) + 1
            acc["rejected"] = acc.get("rejected", 0) + (not result[0])
            acc["systems.rejected"] = acc["rejected"] / acc["corrupt"]
            pairs = _fold_pairs(result[2]) if result[2] is not None else 0
        acc["systems.fold_pairs"] = acc.get("systems.fold_pairs", 0) + pairs
    elif workload == "cli" and results:
        r = results[0]
        acc.setdefault("cli_walls", {}).setdefault(unit["kind"], []).append(r["wall_s"])
        if unit["kind"] == "enumerate":
            acc["cli.enumerate.peak_rss_mb"] = max(
                acc.get("cli.enumerate.peak_rss_mb", 0), r["rss_mb"])
        acc["cli.peak_rss_mb"] = max(acc.get("cli.peak_rss_mb", 0), r["rss_mb"])
        acc["cli.stdout_bytes"] = max(acc.get("cli.stdout_bytes", 0), len(r["stdout"].encode()))
        acc["cli.timeouts"] = acc.get("cli.timeouts", 0) + r["timed_out"]
        acc["cli.tracebacks"] = acc.get("cli.tracebacks", 0) + (TRACEBACK in r["stderr"])


def input_properties(workload: str, units) -> dict:
    """The input properties later claims depend on, over the executed
    (unit, extra) pairs."""
    ops = [op for op, _ in units]
    if workload == "counts":
        with_n = [op for op in ops if "n" in op]
        seen_n, seen_sig, n_repeat, sig_repeat = set(), set(), 0, 0
        for op in with_n:
            n_repeat += op["n"] in seen_n
            sig = tuple(op["props"]["sig"])
            sig_repeat += sig in seen_sig
            seen_n.add(op["n"])
            seen_sig.add(sig)
        tuples = [op["props"]["omega_product"] for op in ops if op["kind"] == "tuple"]
        return {
            **_ranges(with_n, ("N", "d", "omega")),
            "queries_with_N": len(with_n),
            "repeated_N_share": round(n_repeat / len(with_n), 4),
            "repeated_signature_share": round(sig_repeat / len(with_n), 4),
            "tuple_queries": len(tuples),
            "tuple_omega_product": [min(tuples), max(tuples)],
        }
    if workload == "cross-check":
        per_tuple = [count for _, extra in units for count in extra["jofs_per_tuple"]]
        return {
            **_ranges(ops, ("N", "d", "omega")),
            "tuples": len(per_tuple),
            "jofs": sum(per_tuple),
            "jofs_per_tuple": [min(per_tuple), statistics.median(per_tuple), max(per_tuple)],
            "system_size_N": [min(op["n"] for op in ops), max(op["n"] for op in ops)],
        }
    if workload == "large-systems":
        corrupt = [op for op in ops if op["kind"] == "corrupt"]
        return {
            **_ranges(ops, ("N", "m")),
            "corrupted_share": round(len(corrupt) / len(ops), 4),
            "corrupted_by_kind": {
                how: sum(op["how"] == how for op in corrupt) for how in ("value", "stated-n")
            },
        }
    mix: dict[str, int] = {}
    for op in ops:
        mix[op["kind"]] = mix.get(op["kind"], 0) + 1
    enum = [op["props"]["jofs"] for op in ops if op["kind"] == "enumerate"]
    cof = [op["props"]["cofactor"].bit_length() for op in ops if "cofactor" in op["props"]]
    return {
        "invocations": len(ops),
        "mix": mix,
        "edge_share": round(sum("edge" in op["props"] for op in ops) / len(ops), 4),
        "enumerate_jofs": [min(enum), max(enum)],
        "cofactor_bits": [min(cof), max(cof)],
    }


def _ranges(ops, keys) -> dict:
    return {
        f"{key}_range": [min(op["props"][key] for op in ops), max(op["props"][key] for op in ops)]
        for key in keys
    }
