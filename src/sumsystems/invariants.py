"""Invariants of a target set: the sum and the sum of squares of the values
a sum system represents, checked against their closed forms N(N-1)/2 and
N(N^2 - 1)/12 on centred values.  The one Fraction of the package lives
here, so the builders and verifiers load no fractions.
"""

from __future__ import annotations

# module-level: importing it inside tau_c cost 1.3-1.8 us a call
from fractions import Fraction
from math import prod
from operator import mul

from .systems import CentredSumSystem, SumSystem


def sigma_a(system: SumSystem) -> int:
    """Sum of all N represented values, via components:
    sum over j of (N / n_j) * sum(A_j).  Equals N(N-1)/2 for genuine systems.
    """
    comps = system.components
    n = prod(map(len, comps))
    return sum([(n // len(comp)) * sum(comp) for comp in comps])


def tau_c(centred: CentredSumSystem) -> Fraction:
    """Sum of squares of all represented centred values, exactly.

    Computed on doubled values then divided by 4; equals N(N^2 - 1)/12 for
    genuine systems (denominator 1 or 2 once reduced).
    """
    comps = centred.components
    n = prod(map(len, comps))
    return Fraction(sum([(n // len(comp)) * sum(map(mul, comp, comp)) for comp in comps]), 4)
