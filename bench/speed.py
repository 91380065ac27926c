"""Host speed probes.

On a shared host the same Python code runs up to a third slower from one
second or minute to the next.  A probe timed between ops (never inside one)
measures that speed, so an op's time can be scaled to a reference speed:
time * reference / (median probe near the op).  In-process work is probed
with a fixed pure-Python loop; CLI invocations, which are mostly a new
interpreter starting, with a bare interpreter start.
"""

import gc
import statistics
import subprocess
import sys
from time import perf_counter_ns

from proc import run_child

REFERENCE_S = 0.003  # the loop probe's time at the reference speed
START_REFERENCE_S = 0.05  # the start probe's time at the reference speed


def probe() -> float:
    """Seconds taken by a fixed loop of integer, set and branch work.

    The collector is off meanwhile, so a large heap left by the workload
    does not slow the probe."""
    gc.disable()
    try:
        start = perf_counter_ns()
        seen = set()
        total = 0
        for i in range(15_000):
            v = (i * 7919 + total) % 100_003
            seen.add(v)
            total += v & 255
        return (perf_counter_ns() - start) / 1e9
    finally:
        gc.enable()


def start_probe(cwd: str) -> float:
    """Seconds for `python -c pass` from spawn to exit."""
    child = run_child([sys.executable, "-c", "pass"], env=None, cwd=cwd,
                      stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, budget_s=30)
    return child.wall_s


class SpeedLog:
    """Probes taken during a run, each with the time it was taken."""

    def __init__(self, measure=probe, reference: float = REFERENCE_S) -> None:
        self.measure = measure
        self.reference = reference
        self.times: list[int] = []
        self.seconds: list[float] = []

    def probe(self) -> None:
        self.times.append(perf_counter_ns())
        self.seconds.append(self.measure())

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Scale for an op that ran from start_ns to end_ns: the median of
        the three probes nearest to it.  The host's speed moves within a
        second, so farther probes blur it: a median over the probes within
        a second left a spread of 0.17 in the cross-check tail over ten
        seeds, against 0.03 with the nearest three."""
        def distance(t: int) -> int:
            return max(start_ns - t, t - end_ns, 0)

        near = sorted(range(len(self.times)), key=lambda i: distance(self.times[i]))
        return self.reference / statistics.median(self.seconds[i] for i in near[:3])

    def median(self) -> float:
        return statistics.median(self.seconds)
