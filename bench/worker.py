"""Benchmark worker: one workload in a fresh interpreter.

run.py starts this with PYTHONPATH set to the checkout's src.  The import of
sumsystems comes first, so interpreter start plus that import is the set-up
time; every package cache starts cold.  The worker runs as many whole rounds
of the workload's generator as take --seconds at the reference speed,
probing the host speed between ops, then checks every result outside the
timed region and writes one JSON summary to --out.
"""

import time

import sumsystems  # noqa: F401  (interpreter start up to here is set-up time)

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from proc import exit_on_sigterm  # noqa: E402
from sumsystems import arith  # noqa: E402


PROBE_EVERY_NS = 50_000_000  # a speed probe after each 50 ms of op time, or each unit


def latency_summary(latencies_ns: list[int]) -> dict:
    """Median, and the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    tail_index = max(0, n - 11)
    return {
        "samples": n,
        "p50_ms": (ordered[(n - 1) // 2] + ordered[n // 2]) / 2e6,
        "tail_ms": ordered[tail_index] / 1e6,
        "tail_percentile": round(100 * (tail_index + 1) / n, 2),
    }


def digest(workload: str, result) -> str:
    if workload == "cli":
        return repr((result["code"], result["stdout"], result["timed_out"]))
    return repr(result)


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--size", default="full", choices=sorted(gen.SIZES))
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--tmpdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace-out", default="")
    args = p.parse_args()
    setup_s = IMPORTED - args.spawned
    exit_on_sigterm()

    workload = args.workload
    tracer = spans.Tracer() if args.trace else None
    api = spans.Api(tracer)
    ctx = workloads.Context(args.root, args.tmpdir, dict(os.environ),
                            gen.SIZES[args.size]["budget_s"])
    rounds = gen.GENERATORS[workload](args.seed, args.size)
    # a fixed number of rounds, so the work depends on the seed alone
    todo = max(1, round(args.seconds / gen.ROUND_SECONDS[workload]))
    inputs_hash, results_hash = hashlib.sha256(), hashlib.sha256()
    counters: dict = {}

    def settle(unit, records, extra) -> list:
        """Check one unit; keep (latency, failure reason, killed) per op."""
        reasons = workloads.check(workload, unit, records, extra, ctx)
        workloads.tally(workload, unit, records, counters)
        kept = []
        for (latency, result, _), reason in zip(records, reasons):
            results_hash.update(digest(workload, result).encode())
            kept.append((latency, reason, workload == "cli" and result["timed_out"]))
        return kept

    # Ops are scaled to the reference speed by the probes around them.  A
    # cli op is mostly a new interpreter starting, which the loop probe does
    # not track (scaling by it doubled the cli spreads), so cli is probed
    # with an interpreter start.
    if workload == "cli":
        probes = speed.SpeedLog(lambda: speed.start_probe(args.root), speed.START_REFERENCE_S)
    else:
        probes = speed.SpeedLog()
    units, done, since_probe = [], 0, 0
    probes.probe()
    while done < todo:
        ops = next(rounds)
        workloads.prepare(workload, ops, ctx)
        for unit in ops:
            inputs_hash.update(json.dumps({k: v for k, v in unit.items() if k != "path"},
                                          sort_keys=True).encode())
            start = perf_counter_ns()
            records, extra = workloads.execute(workload, api, unit, ctx)
            end = perf_counter_ns()
            workloads.compact(workload, unit, records)
            units.append([unit, extra, records, start, end])
            since_probe += end - start
            if since_probe >= PROBE_EVERY_NS:
                probes.probe()
                since_probe = 0
        done += 1
    probes.probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counters.update({
        "arith.factorise.misses": arith.factorise.cache_info().misses,
        "arith.factorise.cache_size": arith.factorise.cache_info().currsize,
        "arith.divisors.cache_size": arith.divisors.cache_info().currsize,
    })
    # Checks run after the timed loop: several call the package in this
    # process, and their cache fills must not reach a timed op.
    started = perf_counter_ns()
    for entry in units:
        entry[2] = settle(entry[0], entry[2], entry[1])
    check_ns = perf_counter_ns() - started

    latencies, scaled, failures, killed_ops = [], [], [], 0
    busy_ns, busy_scaled_ns = 0, 0.0
    for unit, _, kept, start, end in units:
        known = unit.get("props", {}).get("known_failure")
        for _, reason, _ in kept:
            if reason:
                failures.append({
                    "op": {k: v for k, v in unit.items() if k not in ("props", "path", "doc")},
                    "reason": reason,
                    "known": bool(known and reason.startswith(known)),
                })
        # A killed invocation took the budget whatever the program did, so
        # op times and throughput cover the completed ops only.
        if any(killed for _, _, killed in kept):
            killed_ops += len(kept)
            continue
        factor = probes.factor(start, end)
        busy_ns += end - start
        busy_scaled_ns += (end - start) * factor
        for latency, _, _ in kept:
            latencies.append(latency)
            scaled.append(latency * factor)
    if workload == "cli":
        peak_rss_mb = counters["cli.peak_rss_mb"]
    summary = {
        "setup_s": setup_s,
        "busy_s": busy_ns / 1e9,
        "busy_scaled_s": busy_scaled_ns / 1e9,
        "check_s": check_ns / 1e9,
        "rounds": done,
        "ops": len(latencies) + killed_ops,
        "completed": len(latencies),
        "latency": latency_summary(scaled),
        "latency_raw": latency_summary(latencies),
        "peak_rss_mb": peak_rss_mb,
        "speed_probe_s": probes.median(),
        "speed_probes": len(probes.seconds),
        "failures": failures,
        "inputs": workloads.input_properties(workload, [(u[0], u[1]) for u in units]),
        "inputs_sha256": inputs_hash.hexdigest(),
        "results_sha256": results_hash.hexdigest(),
    }
    if tracer is not None:
        summary["layers"] = spans.layer_metrics(tracer, counters)
        summary["spans"] = len(tracer.names)
        if args.trace_out:
            tracer.dump(args.trace_out)
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(summary, out)


if __name__ == "__main__":
    main()
