"""The public surface: __all__ against what the package binds."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sumsystems

MODULES = ["sumsystems"] + [
    f"sumsystems.{info.name}" for info in pkgutil.iter_modules(sumsystems.__path__)
]

# the Dirichlet-convolution ring and its helpers, now only in tests/oracles.py
REMOVED = {
    "ArithmeticFunction", "convolve", "convolution_power", "E", "ONE", "MU",
    "ONE_MINUS_E", "E_MINUS_MU", "binomial_transform", "binomial_inversion",
    "minkowski_sum", "partial_products",
}


def test_every_name_in_all_is_unique_and_resolves():
    names = sumsystems.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(sumsystems, name)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from sumsystems import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(sumsystems.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_removed_names_are_gone(module):
    assert REMOVED.isdisjoint(vars(importlib.import_module(module)))


def fresh(code):
    """Run code in a new `python -S` that has imported only sumsystems."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", "import sumsystems\n" + code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dir_lists_all_before_any_access():
    listed = fresh("print(*dir(sumsystems))").split()
    assert set(sumsystems.__all__) <= set(listed)


def test_each_name_is_its_home_modules_object():
    # a function or class names its defining module itself; the table agrees
    out = fresh(
        "import importlib\n"
        "for name in sumsystems.__all__:\n"
        "    home = f'sumsystems.{sumsystems._HOME[name]}'\n"
        "    value = getattr(sumsystems, name)\n"
        "    if (value is not getattr(importlib.import_module(home), name)\n"
        "            or getattr(value, '__module__', home) != home):\n"
        "        print(name)\n"
        "print(len(sumsystems.__all__))\n")
    assert out == f"{len(sumsystems.__all__)}\n"


def test_submodules_resolve_after_a_bare_import():
    names = fresh("print(*(getattr(sumsystems, m).__name__ for m in"
                  " ('arith', 'counting', 'invariants', 'jof', 'shape', 'systems', 'verify')))").split()
    assert names == ["sumsystems.arith", "sumsystems.counting", "sumsystems.invariants",
                     "sumsystems.jof", "sumsystems.shape", "sumsystems.systems",
                     "sumsystems.verify"]


def test_systems_binds_no_verification_name():
    # verification lives in verify, which imports systems, never the reverse
    from sumsystems import systems

    moved = {"_certified", "_bits_from_start", "_fold", "_bitset", "_members", "_DENSE",
             "_BUDGET", "_PRICE", "Verdict", "verify_sum_system", "verify_centred"}
    assert moved.isdisjoint(vars(systems))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        sumsystems.no_such_name
    assert fresh("try:\n"
                 "    sumsystems.no_such_name\n"
                 "except AttributeError as exc:\n"
                 "    print(exc)\n") == "module 'sumsystems' has no attribute 'no_such_name'\n"
