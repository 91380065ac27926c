"""The public surface: __all__ against what the package binds."""

import importlib
import pkgutil

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
