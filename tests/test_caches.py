"""Cache policy: every lru_cache in the package is bounded, the Stirling
table keeps only the totals a count can use, and the per-component memos of
small systems keep nothing of a large one and a bounded memory when full."""

import gc
import importlib
import pkgutil
import tracemalloc

import pytest

import sumsystems
from sumsystems import counting, systems
from sumsystems.systems import SumSystem

MEMOS = (systems._centred_component, systems._bits_from_start)


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
    assert {"sumsystems.systems._centred_component", "sumsystems.systems._bits_from_start"} <= set(caches)
    unbounded = {name for name, f in caches.items() if f.cache_parameters()["maxsize"] is None}
    assert unbounded == set()


def test_stirling_table_stops_at_total_62():
    # every count uses S(L, m) with L <= Omega(n) <= 62
    assert counting.stirling2(62, 31) > 0
    assert counting.stirling2(3000, 2) == 2**2999 - 1
    assert len(counting._stirling_rows) <= 63


@pytest.mark.parametrize(
    "jof",
    [((1, 16), (2, 16), (1, 16), (2, 16)), ((1, 32), (2, 32), (3, 32), (1, 32))],
    ids=["2^16", "2^20"],
)
def test_large_systems_leave_the_memos_alone(jof):
    plain = systems.build_sum_system(jof)
    before = [memo.cache_info() for memo in MEMOS]
    centred = systems.centre(plain)
    assert systems.verify_sum_system(plain) == systems.verify_centred(centred) == (True, None)
    assert centred == systems.build_centred(jof)
    # not even a lookup: no entry is made, and none is evicted
    assert [memo.cache_info() for memo in MEMOS] == before


def retained_by(fill, memo) -> int:
    """Bytes still traced after fill() runs from empty memos, once it has
    filled memo: what the memos keep."""
    for each in MEMOS:
        each.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fill()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert memo.cache_info().currsize == systems._MEMO
    for each in MEMOS:
        each.cache_clear()
    return kept


def test_full_memos_hold_bounded_memory():
    size = systems._MEMO

    def fill_centre():
        # palindromic 512-value components of N = 1024 systems with their
        # maxima summing below N, the largest keys centre's memo takes
        for k in range(size):
            systems.centre(SumSystem((tuple(range(256)) + tuple(range(256 + k, 512 + k)), (0, 1))))

    def fill_bits():
        # doubled 1024-value components of N = 1024, the largest keys the
        # certificate's memo takes, each past its guards
        for k in range(size):
            half = (*range(1, 512), 512 + k)
            assert not systems._certified((tuple(-v for v in reversed(half)) + half,), 1024, 2)

    centre_kept = retained_by(fill_centre, systems._centred_component)
    bits_kept = retained_by(fill_bits, systems._bits_from_start)
    # measured on Python 3.11: 7.5 MiB and 8.1 MiB
    assert centre_kept < 9 << 20 and bits_kept < 10 << 20, (centre_kept, bits_kept)
