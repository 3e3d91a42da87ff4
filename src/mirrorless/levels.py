"""Level schemes, field couplings, the pump Hamiltonian and collapse operators.

Models one F_g -> F_e hyperfine line with full Zeeman degeneracy, driven by a
z-polarized pump (Delta m = 0) and an x-polarized probe (Delta m = +-1).  The
probe polarization is the circular superposition E_x = (i/sqrt(2)) (E_- + E_+),
which fixes the +-i phase pattern of the probe couplings; the global gauge is
chosen so pump couplings are real, and positive except on the m < 0 pi
pairs of F -> F lines, where the Clebsch-Gordan coefficients keep their
signs.  The test suite verifies that observables do not depend on this
gauge.  One table of signed weights per line feeds the pump and probe
couplings and the three decay channels, so the Rabi weights and the
branching ratios agree (b = w^2).  The driven two-level atom is the 0 -> 1
line: its pi pair is the only one the pump reaches, with w = 1, and the
excited m = +-1 stay empty.

All frequencies are in units of the excited-state decay rate Gamma and times
in 1/Gamma; physical units enter only in the propagation layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .angular import branching_ratios

GROUND = "ground"
EXCITED = "excited"

# 1/sqrt(2) from decomposing the x-polarized probe into its two circular
# components; each sigma transition sees this fraction of the reduced Rabi.
_X_COMPONENT = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class LevelScheme:
    """Ordered sublevel basis of one F_g -> F_e line.

    Sublevels are sorted by magnetic quantum number, ground before excited
    within the same m.  For F_g=1 -> F_e=2 this reproduces the conventional
    8-level numbering with excited states at (1-based) positions 1,3,5,7,8
    and ground states at 2,4,6.
    """

    F_g: float
    F_e: float
    sublevels: Tuple[Tuple[str, float], ...]
    # derived from sublevels, so left out of comparison and hashing
    index_map: Dict[Tuple[str, float], int] = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.sublevels)

    @property
    def ground_indices(self) -> List[int]:
        return [i for i, (man, _) in enumerate(self.sublevels) if man == GROUND]

    @property
    def excited_indices(self) -> List[int]:
        return [i for i, (man, _) in enumerate(self.sublevels) if man == EXCITED]

    def index(self, manifold: str, m) -> int:
        return self.index_map[(manifold, float(m))]

    def m_of(self, i: int) -> float:
        return self.sublevels[i][1]


@dataclass(frozen=True)
class FieldConfig:
    """Pump/probe Rabi frequencies and detunings, in units of Gamma.

    Detunings follow Delta = omega_0 - omega_field; the pump-probe offset
    delta = omega_p - omega_pr = delta_pr - delta_p is derived, never stored.
    """

    omega_p: float = 0.0
    omega_pr: float = 0.0
    delta_p: float = 0.0
    delta_pr: float = 0.0

    def __post_init__(self):
        if self.omega_p < 0 or self.omega_pr < 0:
            raise ValueError("reduced Rabi frequencies must be nonnegative")

    @property
    def delta(self) -> float:
        return self.delta_pr - self.delta_p


@dataclass(frozen=True)
class CollapseChannels:
    """Scaled lowering operators for the three spontaneous-decay channels.

    sigmas[k] carries the transitions with m_e - m_g = (0, -1, +1)[k]; the
    entry on (ground, excited) is sqrt(b) so that the Lindblad dissipator with
    overall rate Gamma reproduces the branching ratios, and
    sum_k sigma_k^+ sigma_k^- equals the projector onto the excited manifold.
    """

    sigmas: Tuple[np.ndarray, np.ndarray, np.ndarray]


def build_scheme(F_g, F_e) -> LevelScheme:
    """Construct the sublevel basis for an F_g -> F_e line."""
    if F_e - F_g not in (-1, 0, 1) or (2 * F_g) % 1 or F_g + F_e < 1:
        raise ValueError(f"invalid dipole line F_g={F_g} -> F_e={F_e}")
    if F_g < 0 or F_e < 0:
        raise ValueError("total angular momenta must be nonnegative")
    ms = sorted(
        [(-F_g + k, GROUND) for k in range(int(2 * F_g) + 1)]
        + [(-F_e + k, EXCITED) for k in range(int(2 * F_e) + 1)],
        key=lambda t: (t[0], t[1] == EXCITED),
    )
    sublevels = tuple((man, float(m)) for m, man in ms)
    index_map = {lv: i for i, lv in enumerate(sublevels)}
    return LevelScheme(F_g=float(F_g), F_e=float(F_e),
                       sublevels=sublevels, index_map=index_map)


@lru_cache(maxsize=16)
def _weights(scheme: LevelScheme) -> np.ndarray:
    """Signed weights w[e, g], w^2 = b, of one line, memoized, read-only.

    w[e, g] is the Clebsch-Gordan coefficient <F_g m_g; 1 mu|F_e m_e>,
    mu = m_e - m_g, and w^2 the branching ratio b of the decay e -> g, so
    w^2 sums to 1 over each excited row.  On F -> F lines w < 0 where
    mu = -1, or where mu = 0 and m_e < 0; elsewhere w = sqrt(b).  This is
    the coefficient up to the sign of both sigma components (F -> F) or of
    the pi component (F -> F - 1), a choice of sublevel phases that no
    observable sees.  With this normalization the resonant saturation
    parameter S = omega_p^2/(Gamma^2/4) reproduces the inversion threshold
    S ~ 4 of the F=1 -> F=2 line.
    """
    w = np.zeros((scheme.dim, scheme.dim))
    for (tme, tmg), b in branching_ratios(scheme.F_g,
                                          scheme.F_e).entries.items():
        negative = scheme.F_g == scheme.F_e and (tme < tmg or tme == tmg < 0)
        w[scheme.index(EXCITED, tme / 2),
          scheme.index(GROUND, tmg / 2)] = (-1.0 if negative else 1.0) \
            * np.sqrt(float(b))
    w.flags.writeable = False
    return w


@lru_cache(maxsize=48)
def _channel(scheme: LevelScheme, dm: int) -> np.ndarray:
    """The entries w[e, g] of the weight table with m_e - m_g = dm, read-only."""
    m = np.array([m for _, m in scheme.sublevels])
    w = np.where(np.subtract.outer(m, m) == dm, _weights(scheme), 0.0)
    w.flags.writeable = False
    return w


def pump_raising(scheme: LevelScheme) -> np.ndarray:
    """Raising part of the pi (z-polarized) coupling, unit reduced Rabi.

    The couplings are the real signed weights w of the line's table.
    """
    return _channel(scheme, 0).astype(complex)


def probe_raising(scheme: LevelScheme) -> np.ndarray:
    """Raising part of the x-polarized coupling, unit reduced Rabi.

    The x probe is the circular superposition (i/sqrt 2)(E_- + E_+); in the
    printed gauge every raising entry is -i w / sqrt(2) (the phase pattern
    of the printed 8-level Hamiltonian).
    """
    return -1j * _X_COMPONENT * (_channel(scheme, -1) + _channel(scheme, +1))


def pump_hamiltonian(scheme: LevelScheme, omega_p: float,
                     delta_p: float) -> np.ndarray:
    """Pump-only Hamiltonian in the frame rotating at the pump frequency.

    Every excited sublevel sits at delta_p (matrix diagonal 2*delta_p with the
    1/2 prefactor); only pi couplings are present.  This is the generator used
    for steady-state population studies and as the base of all weak-probe
    linear-response spectra.
    """
    d = scheme.dim
    m = np.zeros((d, d), dtype=complex)
    for e in scheme.excited_indices:
        m[e, e] = 2.0 * delta_p
    vp = pump_raising(scheme) * omega_p
    m += vp + vp.conj().T
    h = 0.5 * m
    h.flags.writeable = False
    return h


@lru_cache(maxsize=16)
def build_collapse(scheme: LevelScheme) -> CollapseChannels:
    """Collapse operators for the Delta m = 0, -1, +1 decay channels.

    Read from the line's weight table, sigma[g, e] = w[e, g] = +-sqrt(b).
    Memoized per line; the returned arrays are read-only."""
    # paper ordering k = 1, 2, 3
    sigmas = tuple(np.ascontiguousarray(_channel(scheme, dm).T,
                                        dtype=complex) for dm in (0, -1, +1))
    for s in sigmas:
        s.flags.writeable = False
    return CollapseChannels(sigmas=sigmas)

