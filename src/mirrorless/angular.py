"""Branching ratios of a dipole line between two Zeeman manifolds.

Every pump, probe and decay weight of one F_g -> F_e line is a squared
Clebsch-Gordan coefficient b = <F_g m_g; 1 mu|F_e m_e>^2, mu = m_e - m_g, of
a rank-1 coupling.  These have a closed form, one rational expression for
each F_e - F_g in {+1, 0, -1} and mu in {+1, 0, -1} (Edmonds, *Angular
Momentum in Quantum Mechanics*, Table 2), evaluated here in exact Fractions.
By the orthonormality of the Clebsch-Gordan coefficients every excited row
of b adds up to 1 with no renormalization, and b is the branching ratio of
the decay e -> g.  Half-integer magnetic quantum numbers are carried as
doubled integers (2m), which keeps them exact and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple


def _twice(x, name: str) -> int:
    """Return 2*x as an exact integer, rejecting non-half-integer input."""
    t = 2 * Fraction(x)
    if t.denominator != 1:
        raise ValueError(f"{name} must be integer or half-integer, got {x}")
    return int(t)


@dataclass(frozen=True)
class BranchingTable:
    """Spontaneous-decay branching ratios of one F_g <- F_e line.

    ``entries`` maps (m_e, m_g) to the exact branching ratio b as a Fraction;
    sublevels are identified by their magnetic quantum numbers (stored doubled
    to stay hashable for half-integer manifolds).  Every excited row sums to 1.
    """

    F_g: float
    F_e: float
    entries: Dict[Tuple[int, int], Fraction]


# <j M-mu; 1 mu|j+dj M>^2 keyed by (dj, mu), M the excited projection
# (Edmonds, Table 2); the nine rational expressions of a rank-1 coupling
_CG_SQUARED = {
    (1, 1): lambda j, M: (j + M) * (j + M + 1) / ((2 * j + 1) * (2 * j + 2)),
    (1, 0): lambda j, M: (j - M + 1) * (j + M + 1) / ((2 * j + 1) * (j + 1)),
    (1, -1): lambda j, M: (j - M) * (j - M + 1) / ((2 * j + 1) * (2 * j + 2)),
    (0, 1): lambda j, M: (j + M) * (j - M + 1) / (2 * j * (j + 1)),
    (0, 0): lambda j, M: M * M / (j * (j + 1)),
    (0, -1): lambda j, M: (j - M) * (j + M + 1) / (2 * j * (j + 1)),
    (-1, 1): lambda j, M: (j - M) * (j - M + 1) / (2 * j * (2 * j + 1)),
    (-1, 0): lambda j, M: (j - M) * (j + M) / (j * (2 * j + 1)),
    (-1, -1): lambda j, M: (j + M + 1) * (j + M) / (2 * j * (2 * j + 1)),
}


def branching_ratios(F_g, F_e) -> BranchingTable:
    """Exact branching ratios b(e->g) of one line, zero entries dropped.

    b = <F_g m_g; 1 mu|F_e m_e>^2 with mu = m_e - m_g, from the rank-1
    closed form; each excited row sums to 1.
    """
    tFg, tFe = _twice(F_g, "F_g"), _twice(F_e, "F_e")
    if tFe - tFg not in (-2, 0, 2):
        raise ValueError(f"F_e - F_g must be -1, 0 or +1 for a dipole line, "
                         f"got {F_g}->{F_e}")
    if tFg + tFe < 2:
        raise ValueError("F_g + F_e >= 1 required for a dipole-allowed line")

    j, dj = Fraction(tFg, 2), (tFe - tFg) // 2
    entries: Dict[Tuple[int, int], Fraction] = {}
    for tme in range(-tFe, tFe + 1, 2):
        for mu in (-1, 0, 1):
            tmg = tme - 2 * mu
            if abs(tmg) > tFg:
                continue
            b = _CG_SQUARED[dj, mu](j, Fraction(tme, 2))
            if b != 0:
                entries[(tme, tmg)] = b
    return BranchingTable(F_g=F_g, F_e=F_e, entries=entries)
