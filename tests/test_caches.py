"""Cache policy: every lru_cache in the package is bounded unless named here,
and the Stirling table keeps only the totals a count can use."""

import importlib
import pkgutil

import sumsystems
from sumsystems import counting

# Each unbounded cache, with the reason an LRU bound would not do.
UNBOUNDED = {
    # The recursion needs every (signature, m') entry below one (signature, m):
    # the worst signature below 2**63, (25, 10, 4, 2, 1, 1), needs 25,834 at
    # m = 5, and a 4,096-entry LRU evicts entries still needed, so m = 5 did
    # not finish in 200 s (14 s unbounded).
    "sumsystems.counting._n_m_recurrence",
}


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


def test_every_cache_is_bounded_unless_named():
    caches = lru_caches()
    assert UNBOUNDED <= set(caches)
    unbounded = {name for name, f in caches.items() if f.cache_parameters()["maxsize"] is None}
    assert unbounded == UNBOUNDED


def test_stirling_table_stops_at_total_62():
    # every count uses S(L, m) with L <= Omega(n) <= 62
    assert counting.stirling2(62, 31) > 0
    assert counting.stirling2(3000, 2) == 2**2999 - 1
    assert len(counting._stirling_rows) <= 63
