"""Cache policy: the package has exactly its listed lru_caches, each
bounded; the Stirling table keeps only the totals a count can use; and the
per-component memos of small systems keep nothing of a large one and a
bounded memory when full."""

import gc
import importlib
import pkgutil
import tracemalloc

import pytest

import sumsystems
from sumsystems import counting, systems, verify
from sumsystems.systems import SumSystem

MEMOS = (systems._progressions, systems._centred_component, verify._bitset)


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
    # exactly these: a cache added or dropped is a decision this test records
    assert set(caches) == {
        "sumsystems.arith.factorise",
        "sumsystems.arith.divisors",
        "sumsystems.arith._difference_table",
        "sumsystems.counting._m_m",
        "sumsystems.counting._recurrence_row",
        "sumsystems.systems._progressions",
        "sumsystems.systems._centred_component",
        "sumsystems.verify._bitset",
    }
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
    before = [memo.cache_info() for memo in MEMOS]
    plain = systems.build_sum_system(jof)
    centred = systems.centre(plain)
    assert verify.verify_sum_system(plain) == verify.verify_centred(centred) == (True, None)
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
            assert not verify._certified((tuple(-v for v in reversed(half)) + half,), 1024, 2)

    def fill_progressions():
        # single-part systems of N = 1024 down to 769, one component each:
        # every value of a component lies below N <= 1024, and only a
        # single part holds more than 512, so these are the largest
        # components the memo keeps
        for n in range(1024, 1024 - size, -1):
            systems.build_sum_system(((1, n),))

    centre_kept = retained_by(fill_centre, systems._centred_component)
    bits_kept = retained_by(fill_bits, verify._bitset)
    progressions_kept = retained_by(fill_progressions, systems._progressions)
    # measured on Python 3.11: 7.5 MiB and 8.1 MiB
    assert centre_kept < 9 << 20 and bits_kept < 10 << 20, (centre_kept, bits_kept)
    # measured on Python 3.11: 6.8 MiB
    assert progressions_kept < 8 << 20, progressions_kept
