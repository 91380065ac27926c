"""Cache policy: every lru_cache in the package is bounded, and the Stirling
table keeps only the totals a count can use."""

import importlib
import pkgutil

import sumsystems
from sumsystems import counting


def lru_caches():
    """Every lru_cache wrapper in a module or class namespace of the package,
    by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(sumsystems.__path__):
        module = importlib.import_module(f"sumsystems.{info.name}")
        namespaces = [vars(module)]
        namespaces += [vars(v) for v in vars(module).values() if isinstance(v, type)]
        for namespace in namespaces:
            for value in namespace.values():
                if callable(getattr(value, "cache_parameters", None)):
                    found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def test_every_cache_is_bounded():
    caches = lru_caches()
    assert "sumsystems.counting._recurrence_row" in caches  # the scan is not empty
    unbounded = {name for name, f in caches.items() if f.cache_parameters()["maxsize"] is None}
    assert unbounded == set()


def test_stirling_table_stops_at_total_62():
    # every count uses S(L, m) with L <= Omega(n) <= 62
    assert counting.stirling2(62, 31) > 0
    assert counting.stirling2(3000, 2) == 2**2999 - 1
    assert len(counting._stirling_rows) <= 63
