"""Benchmark for sumsystems: one workload, one seed, one run.

Run from the root of a checkout (the package is read from ./src):

    python3 bench/run.py --workload counts --seed 1 --seconds 10 --trace 0

Workloads: counts, cross-check, large-systems, cli (see gen.py for what each
one generates and why).  The work runs in a fresh worker interpreter, so
every package cache starts cold.  With --trace 0 the run prints the
end-to-end metrics; with --trace 1 it runs the workload once untraced and
once traced and prints the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Exits 2 without a
result when ./src/sumsystems is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import speed  # noqa: E402
from proc import exit_on_sigterm, run_child  # noqa: E402
from spans import LAYER_METRICS, LAYER_NOTES  # noqa: E402

SETUP_STARTS = 7  # set-up samples per run: 6 probe interpreters and the worker
STARTUP_PROBES = 5  # `sumsys --help` invocations behind cli.startup_s
WORKER_BUDGET_S = 160  # a worker still running after this is killed


class BenchError(Exception):
    pass


def probe_setup(env: dict, root: str, tmpdir: str) -> float:
    """Seconds from spawning an interpreter to `import sumsystems` done,
    scaled to the reference speed by a bare interpreter start just before."""
    factor = speed.START_REFERENCE_S / speed.start_probe(root)
    path = os.path.join(tmpdir, "probe")
    with open(path, "w") as out:
        spawned = time.monotonic()
        child = run_child(
            [sys.executable, "-c", "import time, sumsystems; print(time.monotonic())"],
            env=env, cwd=root, stdout=out, stderr=subprocess.DEVNULL, budget_s=30,
        )
    if child.code != 0:
        raise BenchError("an interpreter could not import sumsystems from ./src")
    with open(path) as handle:
        return (float(handle.read()) - spawned) * factor


def run_worker(args, env: dict, root: str, tmpdir: str, traced: bool) -> dict:
    out = os.path.join(tmpdir, f"worker-{int(traced)}.json")
    log = os.path.join(tmpdir, f"worker-{int(traced)}.log")
    trace_out = ""
    if traced:
        trace_out = os.path.join(root, ".bench_out", f"trace-{args.workload}.jsonl.gz")
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--size", args.size, "--trace", str(int(traced)),
        "--root", root, "--tmpdir", tmpdir, "--out", out, "--trace-out", trace_out,
    ]
    with open(log, "w") as err:
        spawned = time.monotonic()
        child = run_child(argv + ["--spawned", repr(spawned)], env=env, cwd=root,
                          stdout=err, stderr=err, budget_s=WORKER_BUDGET_S)
    if child.timed_out or child.code != 0:
        with open(log) as handle:
            tail = handle.read()[-3000:]
        raise BenchError(f"worker {'timed out' if child.timed_out else 'failed'}:\n{tail}")
    with open(out) as handle:
        return json.load(handle)


def throughput(summary: dict) -> float:
    """Completed ops per second of their time, at the reference speed."""
    return summary["completed"] / summary["busy_scaled_s"]


def report_failures(summary: dict) -> bool:
    """Print every failed op; True when all of them are known seed failures."""
    for f in summary["failures"]:
        label = "known seed failure" if f["known"] else "FAILED"
        print(f"{label}: {json.dumps(f['op'])[:160]} -- {f['reason'][:300]}")
    return all(f["known"] for f in summary["failures"])


def end_to_end(args, env, root, tmpdir) -> dict:
    start_factor = speed.START_REFERENCE_S / speed.start_probe(root)
    worker = run_worker(args, env, root, tmpdir, traced=False)
    setups = [worker["setup_s"] * start_factor]
    setups += [probe_setup(env, root, tmpdir) for _ in range(SETUP_STARTS - 1)]
    lat, raw = worker["latency"], worker["latency_raw"]
    ops, completed, failed = worker["ops"], worker["completed"], len(worker["failures"])
    reference = speed.START_REFERENCE_S if args.workload == "cli" else speed.REFERENCE_S
    k = reference / worker["speed_probe_s"]
    print(f"workload={args.workload} seed={args.seed} rounds={worker['rounds']} "
          f"ops={ops} op_time_s={worker['busy_s']:.3f} check_time_s={worker['check_s']:.3f}")
    print(f"inputs: {json.dumps(worker['inputs'])}")
    print(f"inputs_sha256={worker['inputs_sha256']} results_sha256={worker['results_sha256']}")
    print(f"host speed: op times below are scaled to the reference speed by the probes "
          f"around each op (median factor {k:.4f} over {worker['speed_probes']} probes, "
          f"reference {reference * 1e3:g} ms); raw values in brackets")
    metrics = {
        "throughput_ops_s": (throughput(worker), completed / worker["busy_s"], "ops/s",
                             f"{completed} ops, closed loop, one caller"
                             + (f"; {ops - completed} killed at the budget left out"
                                if ops > completed else "")),
        "latency_p50_ms": (lat["p50_ms"], raw["p50_ms"], "ms",
                           f"median of {lat['samples']} ops"),
        "latency_tail_ms": (lat["tail_ms"], raw["tail_ms"], "ms",
                            f"p{lat['tail_percentile']}, 10 of {lat['samples']} ops beyond it"),
        "setup_s": (statistics.median(setups), None, "s",
                    f"median of {len(setups)} interpreter starts + import sumsystems, "
                    "each scaled by a bare start just before it"),
        "peak_rss_mb": (worker["peak_rss_mb"], None, "MB",
                        "max over invocations" if args.workload == "cli"
                        else "worker ru_maxrss at the end of the timed loop"),
        "error_rate": (failed / ops, None, "ratio", f"{failed} of {ops} ops failed"),
    }
    for name, (value, raw, unit, note) in metrics.items():
        raw = f" [{raw:.6g}]" if raw is not None else ""
        print(f"{name} = {value:.6g}{raw} {unit}  ({note})")
    correct = report_failures(worker)
    return {
        "correct": correct, "attempted": ops, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, _, unit, _) in metrics.items() if name != "error_rate"},
    }


def per_layer(args, env, root, tmpdir) -> dict:
    plain = run_worker(args, env, root, tmpdir, traced=False)
    traced = run_worker(args, env, root, tmpdir, traced=True)
    startups = []
    for _ in range(STARTUP_PROBES):
        child = run_child([sys.executable, "-m", "sumsystems.cli", "--help"], env=env,
                          cwd=root, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, budget_s=30)
        startups.append(child.wall_s)
    layers = dict(traced["layers"])
    layers["cli.startup_s"] = statistics.median(startups)
    layers["trace.overhead"] = 1 - throughput(traced) / throughput(plain)
    print(f"workload={args.workload} seed={args.seed} spans={traced['spans']} "
          f"untraced={throughput(plain):.6g} ops/s traced={throughput(traced):.6g} ops/s "
          f"tracing overhead={layers['trace.overhead']:.2%}")
    for name, (unit, _, moves, where) in LAYER_METRICS.items():
        note = LAYER_NOTES.get(name) or LAYER_NOTES.get(name.split(".")[0], "")
        if name.startswith("cli.") and name.endswith(".wall_s"):
            note = LAYER_NOTES["cli.*.wall_s"]
        print(f"{name} = {layers[name]:.6g} {unit}  -> {moves} on {where}"
              + (f"  [{note}]" if note else ""))
    correct = report_failures(plain) and report_failures(traced)
    return {
        "correct": correct, "attempted": traced["ops"], "failed": len(traced["failures"]),
        "metrics": {name: {"value": layers[name], "unit": LAYER_METRICS[name][0]}
                    for name in LAYER_METRICS},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", default="full", choices=sorted(gen.SIZES),
                   help="input sizes; tiny is for the benchmark's own tests")
    args = p.parse_args()
    exit_on_sigterm()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sumsystems", "__init__.py")):
        print("error: run from the root of a sumsystems checkout; ./src/sumsystems "
              "is missing", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".bench_out"))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    try:
        result = (per_layer if args.trace else end_to_end)(args, env, root, tmpdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
