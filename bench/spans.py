"""Spans recorded around calls into the package, and the per-layer metrics.

The package is not instrumented: the benchmark wraps each op and each call
it makes into a layer's public function.  A span is (name, parent, op id,
start, end); spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import statistics
from array import array
from time import perf_counter_ns

# Public functions the workloads call, by layer (module).  Span names are
# "<layer>.<function>".
LAYER_FUNCTIONS = {
    "arith": ("associated_divisor", "squarefree_ordered_count"),
    "counting": ("count_m_part", "count_unordered", "count_two_part", "divisor_sum_check"),
    "jof": ("count_for_tuple", "enumerate_jofs", "ordered_factorisations"),
    "systems": (
        "build_sum_system", "centre", "verify_sum_system", "verify_centred",
        "sigma_a", "tau_c", "system_to_json", "system_from_json",
    ),
}

CLI_COMMANDS = ("count", "enumerate", "build", "verify", "divisor-fn", "check", "table")

# Every per-layer metric: unit, better direction, and the end-to-end metric
# and workloads it should move.  A traced run reports all of them; a layer
# the workload does not exercise reads 0.
LAYER_METRICS = {
    "arith.busy_s": ("s", "lower", "throughput_ops_s, latency_tail_ms", "counts"),
    "arith.calls": ("count", "higher", "throughput_ops_s, latency_tail_ms", "counts"),
    "arith.factorise.misses": ("count", "lower", "peak_rss_mb", "counts"),
    "arith.factorise.cache_size": ("count", "lower", "peak_rss_mb", "counts"),
    "arith.divisors.cache_size": ("count", "lower", "peak_rss_mb", "counts"),
    **{
        f"counting.{fn}.{what}": (unit, better, "throughput_ops_s, latency_tail_ms", "counts")
        for fn in LAYER_FUNCTIONS["counting"]
        for what, unit, better in (("busy_s", "s", "lower"), ("calls", "count", "higher"))
    },
    "jof.count_for_tuple.busy_s": ("s", "lower", "latency_tail_ms", "counts"),
    "jof.enumerate_jofs.busy_s": ("s", "lower", "throughput_ops_s", "cross-check"),
    "jof.jofs": ("count", "higher", "throughput_ops_s", "cross-check"),
    "systems.build_sum_system.busy_s": ("s", "lower", "throughput_ops_s", "cross-check"),
    "systems.centre.busy_s": ("s", "lower", "throughput_ops_s", "cross-check"),
    "systems.verify_sum_system.busy_s": (
        "s", "lower", "throughput_ops_s, peak_rss_mb", "cross-check, large-systems"),
    "systems.verify_centred.busy_s": (
        "s", "lower", "throughput_ops_s, peak_rss_mb", "cross-check, large-systems"),
    "systems.invariants.busy_s": ("s", "lower", "throughput_ops_s", "cross-check"),
    "systems.json.busy_s": ("s", "lower", "throughput_ops_s", "large-systems"),
    "systems.fold_pairs": ("count", "higher", "throughput_ops_s", "large-systems"),
    "systems.rejected": ("ratio", "higher", "error_rate", "large-systems"),
    "cli.startup_s": ("s", "lower", "setup_s, latency_p50_ms", "cli"),
    **{
        f"cli.{cmd}.wall_s": ("s", "lower", "throughput_ops_s, latency_tail_ms", "cli")
        for cmd in CLI_COMMANDS
    },
    "cli.enumerate.peak_rss_mb": ("MB", "lower", "peak_rss_mb", "cli"),
    "cli.stdout_bytes": ("bytes", "lower", "peak_rss_mb", "cli"),
    "cli.timeouts": ("count", "lower", "error_rate", "cli"),
    "cli.tracebacks": ("count", "lower", "error_rate", "cli"),
    "trace.overhead": ("ratio", "lower", "throughput_ops_s (traced vs untraced)", "all"),
}

# Notes printed beside a metric whose meaning is not plain from its name.
LAYER_NOTES = {
    "counting": "spans include the arith work each call triggers",
    "systems.fold_pairs": "computed from cardinalities: sum over fold stages of |acc|*|A_j|",
    "systems.rejected": "corrupted documents rejected / corrupted documents attempted",
    "cli.*.wall_s": "median wall time of one invocation",
    "cli.startup_s": "median wall time of `python -m sumsystems.cli --help`",
    "cli.stdout_bytes": "largest stdout of one invocation",
}


class Tracer:
    """In-memory span recorder; parents follow the nesting of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents = array("q")
        self.op_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._open = -1
        self._op = -1

    def begin(self, name: str, op_id: int | None = None) -> int:
        if op_id is not None:
            self._op = op_id
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open)
        self.op_ids.append(self._op)
        self.ends.append(0)
        self._open = idx
        self.starts.append(perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._open = self.parents[idx]

    def leave_op(self) -> None:
        """Spans opened from here on belong to no op (e.g. enumeration)."""
        self._op = -1

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def busy(self) -> dict[str, tuple[float, int]]:
        """Seconds covered and number of spans, by span name."""
        out: dict[str, list] = {}
        for name, start, end in zip(self.names, self.starts, self.ends):
            entry = out.setdefault(name, [0, 0])
            entry[0] += end - start
            entry[1] += 1
        return {name: (ns / 1e9, calls) for name, (ns, calls) in out.items()}

    def dump(self, path: str) -> None:
        """One JSON array per span: id, parent, op id, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for idx, name in enumerate(self.names):
                row = (idx, self.parents[idx], self.op_ids[idx], name,
                       self.starts[idx], self.ends[idx])
                out.write(json.dumps(row, separators=(",", ":")) + "\n")


class Api:
    """The package's public functions, each wrapped in a span when traced."""

    def __init__(self, tracer: Tracer | None) -> None:
        import sumsystems

        self.tracer = tracer
        self._ops = -1
        for layer, names in LAYER_FUNCTIONS.items():
            for name in names:
                fn = getattr(sumsystems, name)
                setattr(self, name, fn if tracer is None else tracer.wrap(f"{layer}.{name}", fn))

    def begin_op(self, kind: str) -> int:
        """Open the span of one op; its calls share the op's id."""
        if self.tracer is None:
            return -1
        self._ops += 1
        return self.tracer.begin(kind, self._ops)

    def end_op(self, idx: int) -> None:
        if self.tracer is not None:
            self.tracer.end(idx)
            self.tracer.leave_op()

    def group(self, name: str, fn, *args):
        """Call fn(*args) inside one span named `name` (no span when untraced)."""
        if self.tracer is None:
            return fn(*args)
        idx = self.tracer.begin(name)
        try:
            return fn(*args)
        finally:
            self.tracer.end(idx)


def layer_metrics(tracer: Tracer, counters: dict) -> dict[str, float]:
    """All per-layer metrics from the spans and the workload's counters."""
    busy = tracer.busy()

    def span(name: str) -> tuple[float, int]:
        return busy.get(name, (0.0, 0))

    out = {name: 0 for name in LAYER_METRICS}
    arith = [span(f"arith.{fn}") for fn in LAYER_FUNCTIONS["arith"]]
    out["arith.busy_s"] = sum(s for s, _ in arith)
    out["arith.calls"] = sum(c for _, c in arith)
    for fn in LAYER_FUNCTIONS["counting"]:
        out[f"counting.{fn}.busy_s"], out[f"counting.{fn}.calls"] = span(f"counting.{fn}")
    for name in ("jof.count_for_tuple", "jof.enumerate_jofs", "systems.build_sum_system",
                 "systems.centre", "systems.verify_sum_system", "systems.verify_centred",
                 "systems.json"):
        out[f"{name}.busy_s"] = span(name)[0]
    out["systems.invariants.busy_s"] = span("systems.sigma_a")[0] + span("systems.tau_c")[0]
    for cmd in CLI_COMMANDS:
        walls = counters.get("cli_walls", {}).get(cmd)
        out[f"cli.{cmd}.wall_s"] = statistics.median(walls) if walls else 0
    for key in ("arith.factorise.misses", "arith.factorise.cache_size",
                "arith.divisors.cache_size", "jof.jofs", "systems.fold_pairs",
                "systems.rejected", "cli.enumerate.peak_rss_mb", "cli.stdout_bytes",
                "cli.timeouts", "cli.tracebacks"):
        out[key] = counters.get(key, 0)
    return out
