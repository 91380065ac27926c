"""A fresh interpreter on this checkout, as every test that starts one
starts it: this checkout's src/ first on PYTHONPATH, a timeout, and, when
given, an absolute RLIMIT_AS set in the child.  pytest does not collect
this file.

    proc = fresh.run([*fresh.SUMSYS, "count", "--n", "12"], memory=fresh.GIB, timeout=60)
"""

import os
import resource
import subprocess
import sys
from functools import partial
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SUMSYS = [sys.executable, "-m", "sumsystems.cli"]
GIB = 1 << 30  # enough for any test; code that sizes its memory by an input fails at once


def env() -> dict:
    """os.environ with this checkout's src/ prepended to PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run(argv, *, timeout: float, memory: int | None = None, **kwargs):
    """subprocess.run(argv) in env(), killed at timeout seconds
    (subprocess.TimeoutExpired), its address space held to memory bytes
    when given; stdout and stderr are captured as text unless kwargs say
    otherwise."""
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, **kwargs}
    if memory is not None:
        kwargs["preexec_fn"] = partial(resource.setrlimit, resource.RLIMIT_AS, (memory, memory))
    return subprocess.run(argv, env=env(), timeout=timeout, **kwargs)
