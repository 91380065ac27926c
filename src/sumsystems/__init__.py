"""Exact construction, verification and counting of m-part sum systems.

Each public name lives in one submodule, imported on the first use of any of
its names (PEP 562), so `import sumsystems` loads none of them.  _Record, the
base of every value class, lives here, as each of arith, counting and systems
needs it and each command loads this module anyway.
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "arith": (
        "PrimeFactorisation", "associated_divisor", "big_omega", "classical_divisor",
        "divisors", "factorise", "mobius", "modified_mobius", "nontrivial_divisor",
        "squarefree_ordered_count",
    ),
    "counting": (
        "CountResult", "DivisorSumReport", "brute_force_count", "count_by_recurrence",
        "count_m_part", "count_two_part", "count_unordered", "divisor_sum_check",
        "stirling2", "two_dim_fixed_tuple",
    ),
    "invariants": ("sigma_a", "tau_c"),
    "jof": ("count_for_tuple", "enumerate_jofs", "ordered_factorisations"),
    "shape": (
        "CapExceeded", "DEFAULT_CAP", "infer_parts", "jof_to_pairs", "jof_to_text",
        "parse_jof_text", "validate",
    ),
    "systems": (
        "CentredSumSystem", "SumAndDistanceSystem", "SumSystem", "build_centred",
        "build_sum_system", "centre", "from_sum_and_distance", "jof_of_system",
        "system_from_json", "system_to_json", "to_sum_and_distance",
    ),
    "verify": ("verify_centred", "verify_sum_system"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


class _Record(tuple):
    """Value semantics of the named-tuple records (PrimeFactorisation, and
    those of counting and systems): equal only to a record of the same
    class with equal fields, hashed as the tuple of the fields, and closed
    to assignment."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # NotImplemented would let tuple's own == match any equal tuple
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's own
    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


def __getattr__(name: str):
    if name in _PUBLIC:
        value = import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
