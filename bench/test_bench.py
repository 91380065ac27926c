"""The benchmark's own tests.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

Each workload runs one round at the tiny size in a real worker, so these
tests also cover process start, result checks and the output contract.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

WORKLOADS = ("counts", "cross-check", "large-systems", "cli")


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload: str, seed: int, trace: int = 0) -> tuple[dict, dict]:
    """One tiny round: (final JSON object, other `key=value` lines)."""
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--size", "tiny", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        for word in line.split():
            key, sep, value = word.partition("=")
            if sep and key.endswith("sha256"):
                info[key] = value
    info["failures"] = [line for line in lines if line.startswith(("FAILED", "known"))]
    return json.loads(lines[-1]), info


class TestGenerators(unittest.TestCase):
    def test_jof_count_matches_known_values(self):
        self.assertEqual(gen.tuple_jofs((2, 6)), 4)
        self.assertEqual(gen.tuple_jofs((9, 5, 6)), 48)
        self.assertEqual(gen.tuple_jofs((2,) * 7), 5040)  # 7! interleavings

    def test_generalised_d_negative_index_is_mobius_power(self):
        # d_{-1} = mu: mu(12) = 0, mu(30) = -1; d_{-2}(p) = -2
        self.assertEqual(gen._generalised_d(-1, {2: 2, 3: 1}), 0)
        self.assertEqual(gen._generalised_d(-1, {2: 1, 3: 1, 5: 1}), -1)
        self.assertEqual(gen._generalised_d(-2, {7: 1}), -2)

    def test_corruption_keeps_shape_but_breaks_the_system(self):
        comps = gen.components([[1, 3], [2, 4], [1, 2]])
        bad = gen.corrupt_value(comps, doubled=False)
        self.assertIsNotNone(bad)
        self.assertNotEqual(bad, comps)
        for comp in bad:
            self.assertEqual(comp[0], 0)
            self.assertEqual(sorted(set(comp)), comp)
            self.assertTrue(all(a + b == comp[-1] for a, b in zip(comp, reversed(comp))))

    def test_generators_are_seeded(self):
        for name, generator in gen.GENERATORS.items():
            with self.subTest(workload=name):
                first = next(generator(3, "tiny"))
                self.assertEqual(first, next(generator(3, "tiny")))
                self.assertNotEqual(first, next(generator(4, "tiny")))


class TestRuns(unittest.TestCase):
    def test_smoke_and_determinism(self):
        names = {m["name"] for m in benchmark_json()["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, info = tiny(workload, 5)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], info["failures"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), names)
                # only the known seed failures may fail, and only on cli
                self.assertEqual(result["failed"], len(info["failures"]))
                self.assertTrue(all(f.startswith("known") for f in info["failures"]))
                if workload != "cli":
                    self.assertEqual(result["failed"], 0)
                again = tiny(workload, 5)[1]
                self.assertEqual(info["inputs_sha256"], again["inputs_sha256"])
                self.assertEqual(info["results_sha256"], again["results_sha256"])
                other = tiny(workload, 6)[1]
                self.assertNotEqual(info["inputs_sha256"], other["inputs_sha256"])

    def test_traced_run_reports_every_layer_metric(self):
        result, _ = tiny("large-systems", 1, trace=1)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(LAYER_METRICS))
        self.assertEqual(result["metrics"]["systems.rejected"]["value"], 1)
        self.assertGreater(result["metrics"]["systems.fold_pairs"]["value"], 0)

    def test_refuses_to_run_without_the_package(self):
        with tempfile.TemporaryDirectory() as empty:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
            shutil.copytree(HERE, os.path.join(empty, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "counts", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=empty)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


class TestBenchmarkJson(unittest.TestCase):
    def test_layers_and_workloads_match_the_code(self):
        doc = benchmark_json()
        self.assertEqual({w["name"] for w in doc["workloads"]}, set(WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]},
            {name: (unit, better) for name, (unit, better, _, _) in LAYER_METRICS.items()},
        )
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(max(m["bound"] for m in doc["end_to_end"]), setup[0]["bound"])


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    unittest.main()
