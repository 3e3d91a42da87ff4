"""Intensity transport along the pencil-shaped cell.

Couples the z-polarized pump and the orthogonally polarized emission through

    dI_z/dy = -alpha_z I_z + (Phi/4pi) n hbar omega Gamma_z,
    dI_x/dy = -alpha_x I_x + (Phi/4pi) n hbar omega Gamma_x,

with absorption coefficients from the steady-state coherences and spontaneous
source factors from the branching-weighted excited populations.  All of them
come from the pump-only steady state per operating point.  alpha_x, the
response to the orthogonally polarized light at the pump frequency, equals
alpha_z: the model is rotation invariant, and an x field in phase with the
z pump only tilts the pump's polarization (the optical-pumping picture of
Happer, Rev. Mod. Phys. 44, 169 (1972)).  Internal atomic calculations stay
in Gamma = 1 scaled units; this module owns all SI conversions.  The default
treatment freezes alpha and Gamma at the entry steady state (the pump and the
generated field are degenerate, so the medium response is evaluated once); a
self-consistent per-step mode is provided as an opt-in extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .dynamics import pump_only_steady_state
from .levels import FieldConfig, LevelScheme, build_collapse, pump_raising
from .spectra import parallel_dipole

# CODATA 2022 (SI): c and h are exact, hbar = h / (2 pi) rounded to double
_c = 299792458.0              # m/s
_hbar = 1.0545718176461565e-34  # J s
_eps0 = 8.8541878188e-12      # F/m


@dataclass(frozen=True)
class CellConfig:
    """Geometry and SI parameters of the vapor cell.

    photon_energy is hbar*omega of the transition; solid_angle is the
    emission cone Phi subtended by the cell ends.  :meth:`pencil` derives
    both from the wavelength and the beam radius; the saturation intensity
    and the absorption scale follow from Gamma and omega through the reduced
    dipole moment.
    """

    length: float            # m
    density: float           # atoms / m^3
    gamma_phys: float        # Gamma in rad/s
    photon_energy: float     # J
    solid_angle: float       # sr
    grid: int = 200

    def __post_init__(self):
        for name in ("length", "density", "gamma_phys", "photon_energy",
                     "solid_angle"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.solid_angle > 4.0 * np.pi:
            raise ValueError("solid angle cannot exceed 4*pi")
        if self.grid < 2:
            raise ValueError("spatial grid needs at least 2 points")

    @classmethod
    def pencil(cls, length: float, density: float, gamma_phys: float,
               wavelength: float, beam_radius: float,
               grid: int = 200) -> "CellConfig":
        """Standard pencil-geometry estimate Phi = (beam area) / L^2."""
        omega = 2.0 * np.pi * _c / wavelength
        phi = np.pi * beam_radius ** 2 / length ** 2
        return cls(length=length, density=density, gamma_phys=gamma_phys,
                   photon_energy=_hbar * omega, solid_angle=phi, grid=grid)

    @property
    def omega_opt(self) -> float:
        return self.photon_energy / _hbar

    @property
    def reduced_dipole_sq(self) -> float:
        """mu_red^2 tied to the decay rate by the dipole sum rule.

        With transition weights normalized to sum of squares 1 per excited
        sublevel, Gamma = omega^3 mu_red^2 / (3 pi eps0 hbar c^3).
        """
        return 3.0 * np.pi * _eps0 * _hbar * _c ** 3 * self.gamma_phys \
            / self.omega_opt ** 3

    @property
    def saturation_intensity(self) -> float:
        """I_sat such that omega_p = Gamma sqrt(I / (2 I_sat))."""
        return (_c * _eps0 * self.gamma_phys ** 2 * _hbar ** 2
                / (4.0 * self.reduced_dipole_sq))

    @property
    def absorption_scale(self) -> float:
        """kappa = n omega mu_red^2 / (2 c eps0 hbar Gamma), in 1/m."""
        return (self.density * self.omega_opt * self.reduced_dipole_sq
                / (2.0 * _c * _eps0 * _hbar * self.gamma_phys))

    def omega_p_from_intensity(self, intensity: float) -> float:
        """Reduced pump Rabi frequency (units of Gamma) for intensity in W/m^2."""
        if intensity < 0:
            raise ValueError("intensity must be nonnegative")
        return float(np.sqrt(intensity / (2.0 * self.saturation_intensity)))

    def intensity_from_omega_p(self, omega_p: float) -> float:
        return 2.0 * self.saturation_intensity * omega_p ** 2


@dataclass(frozen=True)
class PropagationProfile:
    """Pump/orthogonal intensities and local medium response along the cell."""

    y: np.ndarray            # m
    I_z: np.ndarray          # W/m^2
    I_x: np.ndarray          # W/m^2
    alpha_z: np.ndarray      # 1/m
    alpha_x: np.ndarray      # 1/m
    Gamma_z: np.ndarray      # 1/s
    Gamma_x: np.ndarray      # 1/s
    clamped: bool = False

    def __post_init__(self):
        if np.any(self.I_z < 0) or np.any(self.I_x < 0):
            raise ValueError("intensities must be nonnegative")


def _coherence_sum(V: np.ndarray, rho: np.ndarray) -> float:
    """sum over excited diagonal of i [V + V^dag, rho], for raising V."""
    return 2.0 * float(np.imag(np.trace(V.conj().T @ rho)))


def spontaneous_sources(rho_ss: np.ndarray, scheme: LevelScheme
                        ) -> Tuple[float, float]:
    """(Gamma_z, Gamma_x) spontaneous source factors in units of Gamma.

    Gamma_z collects the pi-channel decays (b_eg rho_ee with m_e = m_g) and
    Gamma_x the two sigma channels, exactly the branching-weighted excited
    populations of the photon-rate analysis.
    """
    rates = [float(np.real(np.diag(s.conj().T @ s @ rho_ss)).sum())
             for s in build_collapse(scheme).sigmas]
    return rates[0], rates[1] + rates[2]


def _closed_form(I0: float, alpha: float, source: float, y):
    """I(y) = I0 e^{-a y} - source (e^{-a y} - 1)/a, and I0 + source y at a = 0.

    ``alpha`` is a scalar; ``y`` a scalar or an array."""
    if alpha == 0.0:
        return I0 + source * y
    return I0 * np.exp(-alpha * y) - source * (np.expm1(-alpha * y) / alpha)


@dataclass(frozen=True)
class TransportCoefficients:
    """Frozen medium response entering the transport equations."""

    alpha_z: float   # 1/m
    alpha_x: float   # 1/m
    gamma_z: float   # 1/s: spontaneous source factor, pi channel
    gamma_x: float   # 1/s: sigma channels
    source_z: float  # W/m^3: (Phi/4pi) n hbar omega Gamma_z
    source_x: float  # W/m^3


# below this reduced Rabi frequency the medium is treated as unpumped: the
# pump-only steady state degenerates (all ground distributions stationary)
# and the physical reference is the undriven equal ground mixture
_OMEGA_FLOOR = 1e-3


def transport_coefficients(scheme: LevelScheme, fields: FieldConfig,
                           cell: CellConfig) -> TransportCoefficients:
    """Absorption and source terms of the medium pumped at ``fields``.

    alpha = -(n omega / 2 c eps0 E0) * sum_excited i [mu, rho]_ii for the
    respective polarization, positive meaning attenuation.  alpha_z and the
    sources come from the pump-only steady state rho_ss.  alpha_x is
    alpha_z: the medium is isotropic, so its response to an x field in
    phase with the pump, the pump's polarization tilted, is the pump's own
    (the tests hold this to the omega_pr -> 0 linear response of rho_ss).

    Below ``_OMEGA_FLOOR`` the medium is unpumped: no sources, and
    alpha = kappa * peak_norm / (1 + 4 Delta_p^2) exactly, since every
    excited sublevel sits at Delta_p and each optical coherence of the equal
    ground mixture decays alone at Gamma/2, so the response is one
    Lorentzian of peak ``DipoleOperator.peak_norm`` (the spectra's unit).
    """
    kappa = cell.absorption_scale
    if fields.omega_p <= _OMEGA_FLOOR:
        lorentzian = kappa / (1.0 + 4.0 * fields.delta_p ** 2)
        alpha = lorentzian * parallel_dipole(scheme).peak_norm()
        return TransportCoefficients(
            alpha_z=alpha, alpha_x=alpha,
            gamma_z=0.0, gamma_x=0.0, source_z=0.0, source_x=0.0)
    rho_ss, _ = pump_only_steady_state(scheme, fields.omega_p, fields.delta_p)
    alpha = -kappa * _coherence_sum(pump_raising(scheme), rho_ss) \
        / fields.omega_p
    g_z, g_x = spontaneous_sources(rho_ss, scheme)
    prefac = (cell.solid_angle / (4.0 * np.pi)) * cell.density \
        * cell.photon_energy
    return TransportCoefficients(
        alpha_z=alpha, alpha_x=alpha,
        gamma_z=g_z * cell.gamma_phys, gamma_x=g_x * cell.gamma_phys,
        source_z=prefac * g_z * cell.gamma_phys,
        source_x=prefac * g_x * cell.gamma_phys)


def propagate(cell: CellConfig, scheme: LevelScheme, fields: FieldConfig,
              I_z0: float, I_x0: float = 0.0, mode: str = "closed_form",
              self_consistent: bool = False) -> PropagationProfile:
    """Propagate pump and orthogonal intensities along the cell.

    The entry pump is ``fields.omega_p``, or the Rabi frequency of ``I_z0``
    if that is 0; a positive ``fields.omega_p`` that differs from it by
    more than 1e-9 relative is a ValueError.  The ``simulate`` command
    gives it once, as ``I_z0`` with ``fields.omega_p = 0``.
    mode='closed_form' evaluates the analytic solution with alpha and the
    sources frozen at the entry steady state.
    mode='numeric' steps the grid: each step of length h maps
    I <- decay I + rise with decay = e^{-alpha h} and
    rise = source (1 - e^{-alpha h})/alpha, the exact propagator of the
    linear equation with the medium of the step's first point.  With the
    coefficients frozen at the entry the map is computed once;
    ``self_consistent=True`` (numeric only) recomputes the medium from the
    local pump intensity at every grid point, so the profile's alpha and
    Gamma vary along y.  A step that lands below zero is set to zero and
    sets ``clamped``; the closed form clips its profile the same way.
    """
    if I_z0 < 0 or I_x0 < 0:
        raise ValueError("entry intensities must be nonnegative")
    if mode not in ("closed_form", "numeric"):
        raise ValueError(f"unknown propagation mode {mode!r}")
    if self_consistent and mode != "numeric":
        raise ValueError("self-consistent propagation requires mode='numeric'")
    entry = cell.omega_p_from_intensity(I_z0)
    if fields.omega_p > 0 and abs(entry / fields.omega_p - 1.0) > 1e-9:
        raise ValueError(f"entry pump given twice: fields.omega_p = "
                         f"{fields.omega_p:g}, but I_z0 gives {entry:g}")
    y = np.linspace(0.0, cell.length, cell.grid)

    def medium(omega_p: float) -> TransportCoefficients:
        return transport_coefficients(
            scheme, FieldConfig(omega_p=omega_p, omega_pr=0.0,
                                delta_p=fields.delta_p,
                                delta_pr=fields.delta_p), cell)

    if not self_consistent:
        co = medium(fields.omega_p if fields.omega_p > 0 else entry)
    if mode == "closed_form":
        I_z = _closed_form(I_z0, co.alpha_z, co.source_z, y)
        I_x = _closed_form(I_x0, co.alpha_x, co.source_x, y)
        clamped = bool(np.any(I_z < 0) or np.any(I_x < 0))
        ones = np.ones_like(y)
        return PropagationProfile(
            y=y, I_z=np.clip(I_z, 0.0, None), I_x=np.clip(I_x, 0.0, None),
            alpha_z=co.alpha_z * ones, alpha_x=co.alpha_x * ones,
            Gamma_z=co.gamma_z * ones, Gamma_x=co.gamma_x * ones,
            clamped=clamped)

    # rows: I_z, I_x, alpha_z, alpha_x, Gamma_z, Gamma_x; the step runs on
    # plain floats
    out = np.empty((6, len(y)))
    z, x = float(I_z0), float(I_x0)
    clamped = False
    for i in range(len(y)):
        if self_consistent:
            co = medium(cell.omega_p_from_intensity(z))
        out[:, i] = z, x, co.alpha_z, co.alpha_x, co.gamma_z, co.gamma_x
        if i + 1 == len(y):
            break
        if self_consistent or i == 0:
            h = y[i + 1] - y[i]
            # alpha_x = alpha_z: both fields decay alike over the step
            decay = float(_closed_form(1.0, co.alpha_z, 0.0, h))
            rz = float(_closed_form(0.0, co.alpha_z, co.source_z, h))
            rx = float(_closed_form(0.0, co.alpha_x, co.source_x, h))
        z, x = decay * z + rz, decay * x + rx
        if z < 0.0 or x < 0.0:
            clamped = True
            z, x = max(z, 0.0), max(x, 0.0)
    return PropagationProfile(y, *out, clamped=clamped)


@dataclass(frozen=True)
class OutputPoint:
    I_z_in: float
    omega_p: float
    I_x_out: float


def output_curve(cell: CellConfig, scheme: LevelScheme, pump_intensities,
                 delta_p: float):
    """Exit intensity of the orthogonally polarized field vs pump input.

    For each pump intensity: convert to a reduced Rabi frequency, pump the
    medium to steady state, evaluate the transport coefficients, propagate
    with zero orthogonal seed, and record I_x at the cell exit.
    """
    rows = []
    for I_in in pump_intensities:
        I_in = float(I_in)
        fields = FieldConfig(omega_p=cell.omega_p_from_intensity(I_in),
                             omega_pr=0.0, delta_p=delta_p, delta_pr=delta_p)
        prof = propagate(cell, scheme, fields, I_z0=I_in, I_x0=0.0,
                         mode="closed_form")
        rows.append(OutputPoint(I_z_in=I_in, omega_p=fields.omega_p,
                                I_x_out=float(prof.I_x[-1])))
    return rows
