"""Run one child process to completion, with a time budget and its rusage."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so a child being waited for is stopped
    and reaped on the way out (see run_child)."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float
    timed_out: bool


def run_child(argv, *, env, cwd, stdout, stderr, budget_s: float) -> Child:
    """Start argv, wait at most budget_s, kill it past that, and reap it.

    The child is reaped with wait4 so its own peak RSS is known (Linux: a
    pidfd gives the timed wait).  Every child is waited for before returning.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr
    )
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], budget_s)
    except BaseException:
        # interrupted or terminated: let the child stop its own children
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise
    finally:
        os.close(pidfd)
    if not ready:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024, not ready)
