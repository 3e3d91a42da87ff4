"""Level schemes, field couplings, Hamiltonians and collapse operators.

Models one F_g -> F_e hyperfine line with full Zeeman degeneracy, driven by a
z-polarized pump (Delta m = 0) and an x-polarized probe (Delta m = +-1).  The
probe polarization is the circular superposition E_x = (i/sqrt(2)) (E_- + E_+),
which fixes the +-i phase pattern of the probe couplings; the global gauge is
chosen so pump couplings are real positive.  Observables are verified to be
independent of this gauge in the test suite.

All frequencies are in units of the excited-state decay rate Gamma and times
in 1/Gamma; physical units enter only in the propagation layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .angular import branching_ratios, dipole_weight

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

    def is_excited(self, i: int) -> bool:
        return self.sublevels[i][0] == EXCITED

    def mirror_permutation(self) -> np.ndarray:
        """Index permutation implementing the m -> -m reflection."""
        perm = np.empty(self.dim, dtype=int)
        for i, (man, m) in enumerate(self.sublevels):
            perm[i] = self.index_map[(man, -m)]
        return perm


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

    def total_decay_diagonal(self) -> np.ndarray:
        d = self.sigmas[0].shape[0]
        acc = np.zeros((d, d), dtype=complex)
        for s in self.sigmas:
            acc += s.conj().T @ s
        return np.real(np.diag(acc))


def build_scheme(F_g, F_e) -> LevelScheme:
    """Construct the sublevel basis for an F_g -> F_e line."""
    if abs(F_g - F_e) > 1 or F_g + F_e < 1:
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


def coupling_weight(scheme: LevelScheme, m_g, m_e, q: int) -> float:
    """Signed per-transition coupling weight, normalized so weight^2 = b.

    The Rabi frequency of each transition is (reduced Rabi) * weight with
    weight = sign(3j factor) * sqrt(branching ratio), i.e. the Clebsch-Gordan
    coefficient <F_g m_g; 1 q|F_e m_e>.  With this normalization the sum of
    weight^2 over the ground sublevels reachable from any excited sublevel is
    exactly 1, and the resonant saturation parameter S = omega_p^2/(Gamma^2/4)
    reproduces the population-inversion threshold S ~ 4 of the F=1 -> F=2
    line.
    """
    w = dipole_weight(scheme.F_g, m_g, scheme.F_e, m_e, q)
    if w == 0.0:
        return 0.0
    scale = np.sqrt((2.0 * scheme.F_e + 1.0) / (2.0 * scheme.F_g + 1.0))
    return w * scale


def pi_weight(scheme: LevelScheme, m) -> float:
    """Signed pi coupling weight between (ground, m) and (excited, m)."""
    return coupling_weight(scheme, m, m, 0)


def pump_raising(scheme: LevelScheme, signed: bool = False) -> np.ndarray:
    """Raising part of the pi (z-polarized) coupling, unit reduced Rabi.

    By default the couplings are gauge-fixed real positive (|w|); with
    ``signed=True`` the natural signed weights are kept (used by the
    gauge-invariance tests).
    """
    d = scheme.dim
    out = np.zeros((d, d), dtype=complex)
    for g in scheme.ground_indices:
        m = scheme.m_of(g)
        key = (EXCITED, m)
        if key not in scheme.index_map:
            continue
        e = scheme.index_map[key]
        w = pi_weight(scheme, m)
        out[e, g] = w if signed else abs(w)
    return out


def probe_raising(scheme: LevelScheme, signed: bool = False) -> np.ndarray:
    """Raising part of the x-polarized coupling, unit reduced Rabi.

    The x probe is the circular superposition (i/sqrt 2)(E_- + E_+); in the
    default gauge every raising entry is -i |w| / sqrt(2) (the phase pattern
    of the printed 8-level Hamiltonian).  ``signed=True`` keeps the natural
    signed weights with a uniform +i/sqrt(2) prefactor instead.
    """
    d = scheme.dim
    out = np.zeros((d, d), dtype=complex)
    for g in scheme.ground_indices:
        m_g = scheme.m_of(g)
        for q in (-1, +1):
            key = (EXCITED, m_g - q)
            if key not in scheme.index_map:
                continue
            e = scheme.index_map[key]
            w = coupling_weight(scheme, m_g, m_g - q, q)
            if w == 0.0:
                continue
            if signed:
                out[e, g] = 1j * _X_COMPONENT * w
            else:
                out[e, g] = -1j * _X_COMPONENT * abs(w)
    return out


def pump_coupled_excited(scheme: LevelScheme) -> List[int]:
    """Excited indices with a nonzero pi coupling to the ground manifold."""
    out = []
    for e in scheme.excited_indices:
        m = scheme.m_of(e)
        if (GROUND, m) in scheme.index_map and pi_weight(scheme, m) != 0.0:
            out.append(e)
    return out


def build_hamiltonian(scheme: LevelScheme, fields: FieldConfig,
                      signed: bool = False) -> np.ndarray:
    """Rotating-frame field-interaction Hamiltonian, H = (1/2) M in Gamma units.

    Diagonal of M: 0 on ground sublevels, 2*delta_pr on excited sublevels
    coupled only by the probe, 2*(delta_p + delta_pr) on pump-coupled excited
    sublevels.  Off-diagonal: pump couplings omega_p * w on Delta m = 0 pairs,
    probe couplings -+ i omega_pr * w / sqrt(2) on Delta m = +-1 pairs.
    Hermitian by construction.
    """
    d = scheme.dim
    m = np.zeros((d, d), dtype=complex)
    pumped = set(pump_coupled_excited(scheme))
    for e in scheme.excited_indices:
        m[e, e] = (2.0 * (fields.delta_p + fields.delta_pr) if e in pumped
                   else 2.0 * fields.delta_pr)
    vp = pump_raising(scheme, signed=signed) * fields.omega_p
    vx = probe_raising(scheme, signed=signed) * fields.omega_pr
    m += vp + vp.conj().T + vx + vx.conj().T
    h = 0.5 * m
    h.flags.writeable = False
    return h


def pump_hamiltonian(scheme: LevelScheme, omega_p: float, delta_p: float,
                     signed: bool = False) -> np.ndarray:
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
    vp = pump_raising(scheme, signed=signed) * omega_p
    m += vp + vp.conj().T
    h = 0.5 * m
    h.flags.writeable = False
    return h


@lru_cache(maxsize=16)
def build_collapse(scheme: LevelScheme) -> CollapseChannels:
    """Collapse operators for the Delta m = 0, -1, +1 decay channels.

    Memoized per line; the returned arrays are read-only."""
    table = branching_ratios(scheme.F_g, scheme.F_e)
    d = scheme.dim
    sigmas = [np.zeros((d, d), dtype=complex) for _ in range(3)]
    channel_of = {0: 0, -1: 1, +1: 2}  # paper ordering k = 1, 2, 3
    for e in scheme.excited_indices:
        m_e = scheme.m_of(e)
        for g in scheme.ground_indices:
            m_g = scheme.m_of(g)
            dm = m_e - m_g
            if dm not in channel_of:
                continue
            b = table.value(m_e, m_g)
            if b == 0:
                continue
            sigmas[channel_of[dm]][g, e] = np.sqrt(float(b))
    for s in sigmas:
        s.flags.writeable = False
    return CollapseChannels(sigmas=tuple(sigmas))


def two_level_hamiltonian(omega: float, delta: float) -> np.ndarray:
    """Driven nondegenerate two-level atom, basis (excited, ground).

    H = (1/2) [[2*delta, omega], [omega, 0]]; the bare-Rabi reference system
    used for Mollow-spectrum placement and as a closed-form oracle target.
    """
    h = 0.5 * np.array([[2.0 * delta, omega], [omega, 0.0]], dtype=complex)
    h.flags.writeable = False
    return h


def two_level_collapse() -> CollapseChannels:
    """Single decay channel of the two-level reference atom."""
    d = np.zeros((2, 2), dtype=complex)
    s = d.copy()
    s[1, 0] = 1.0
    s.flags.writeable = False
    d.flags.writeable = False
    return CollapseChannels(sigmas=(s, d, d))


def two_level_dipole_raising() -> np.ndarray:
    """Unit raising operator |e><g| of the two-level reference atom."""
    o = np.zeros((2, 2), dtype=complex)
    o[0, 1] = 1.0
    o.flags.writeable = False
    return o
