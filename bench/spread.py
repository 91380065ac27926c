"""Run the benchmark on several seeds and summarise each metric.

    python3 bench/spread.py --workloads counts,cli --seeds 1-10 --out summary.json

For every workload and metric it records the values, their median, their
quartiles (statistics.quantiles, n=4) and the spread: the interquartile
distance as a share of the median.  bench/baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="counts,cross-check,large-systems,cli")
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--out", required=True)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]

    summary = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({k: result[k] for k in ("correct", "attempted", "failed")})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        metrics = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            metrics[name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else None, "values": vals,
            }
            print(f"  {name}: median {median:.6g}, spread {metrics[name]['spread']}")
        summary["workloads"][workload] = {"runs": runs, "metrics": metrics}
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(summary, out, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
