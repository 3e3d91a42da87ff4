"""Transport coefficients, closed-form/numeric propagation, output curve."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from mirrorless import (FieldConfig, build_collapse, build_liouvillian,
                        build_scheme, correlation_spectrum, equal_ground_state,
                        parallel_dipole, perpendicular_dipole, propagation,
                        pump_hamiltonian, pump_only_steady_state,
                        steady_state)
from mirrorless.levels import probe_raising, pump_raising
from mirrorless.propagation import (CellConfig, _closed_form,
                                    _coherence_sum, output_curve, propagate,
                                    spontaneous_sources,
                                    transport_coefficients)
from mirrorless.spectra import weak_probe_absorption

from oracles import (alpha_x_oracle, degenerate_probe_steady_state,
                     steady_state_mp_oracle, two_level_absorption)
from test_blocks import BRIGHT
from units import unit


@pytest.fixture(scope="module")
def cell():
    return CellConfig.pencil(length=0.1, density=1.16e16,
                             gamma_phys=2 * np.pi * 5.6e6,
                             wavelength=780.241e-9, beam_radius=1e-3)


def test_codata_constants_match_scipy():
    from scipy import constants
    assert propagation._c == constants.c
    assert propagation._hbar == constants.hbar
    assert propagation._eps0 == constants.epsilon_0


def test_cell_validation():
    with pytest.raises(ValueError):
        CellConfig(length=-1, density=1, gamma_phys=1, photon_energy=1,
                   solid_angle=0.1)
    with pytest.raises(ValueError):
        CellConfig(length=1, density=1, gamma_phys=1, photon_energy=1,
                   solid_angle=20.0)  # > 4 pi


def test_intensity_rabi_roundtrip(cell):
    for omega in (0.1, 0.4, 2.0):
        I = cell.intensity_from_omega_p(omega)
        assert cell.omega_p_from_intensity(I) == pytest.approx(omega)
    assert cell.omega_p_from_intensity(0.0) == 0.0
    # I_sat in the expected range for the Rb D2 line (~1.5-1.7 mW/cm^2)
    assert 10.0 < cell.saturation_intensity < 25.0


def test_spontaneous_sources_state5(scheme8):
    rho = np.zeros((8, 8), dtype=complex)
    rho[4, 4] = 1.0  # paper state 5 = (excited, m=0)
    g_z, g_x = spontaneous_sources(rho, scheme8)
    assert g_z == pytest.approx(2 / 3, abs=1e-14)
    assert g_x == pytest.approx(1 / 3, abs=1e-14)


def test_spontaneous_sources_ground_zero(scheme8):
    rho = np.zeros((8, 8), dtype=complex)
    for g in scheme8.ground_indices:
        rho[g, g] = 1 / 3
    assert spontaneous_sources(rho, scheme8) == (0.0, 0.0)


def test_spontaneous_sources_sum_rule(scheme8, rng):
    from conftest import random_density_matrix
    for _ in range(5):
        rho = random_density_matrix(rng, 8)
        g_z, g_x = spontaneous_sources(rho, scheme8)
        excited = sum(rho[e, e].real for e in scheme8.excited_indices)
        assert g_z + g_x == pytest.approx(excited, abs=1e-12)
        assert g_z >= -1e-15 and g_x >= -1e-15


def test_sources_equal_branching_weighted_populations(scheme8, rng):
    # printed form: Gamma_z = b32 rho33 + b54 rho55 + b76 rho77 and the
    # sigma analogue, with the paper's 1-based indexing
    from conftest import random_density_matrix
    rho = random_density_matrix(rng, 8)
    g_z, g_x = spontaneous_sources(rho, scheme8)
    r = np.real(np.diag(rho))
    assert g_z == pytest.approx(
        0.5 * r[2] + (2 / 3) * r[4] + 0.5 * r[6], abs=1e-12)
    assert g_x == pytest.approx(
        1.0 * r[0] + 0.5 * r[2] + (1 / 6 + 1 / 6) * r[4] + 0.5 * r[6]
        + 1.0 * r[7], abs=1e-12)


def test_commutator_sum_reduces_to_four_terms(scheme8):
    # full excited-diagonal commutator sum equals the reduced symmetric form
    # 4 (w21 Re rho12 + w43 Re rho34 + w65 Re rho56)
    f = FieldConfig(omega_p=3.0, omega_pr=3e-3, delta_p=0.0, delta_pr=0.0)
    rho = degenerate_probe_steady_state(scheme8, f)
    Vx = probe_raising(scheme8)
    mu_x = Vx + Vx.conj().T
    full = sum((1j * (mu_x @ rho - rho @ mu_x))[e, e].real
               for e in scheme8.excited_indices)
    w = np.abs(Vx)
    reduced = 4.0 * (w[0, 1] * rho[0, 1].real + w[2, 3] * rho[2, 3].real
                     + w[4, 5] * rho[4, 5].real)
    assert full == pytest.approx(reduced, abs=1e-12)


def test_resonant_alpha_positive(scheme8, cell):
    f = FieldConfig(omega_p=3.0, omega_pr=0.0, delta_p=0.0, delta_pr=0.0)
    co = transport_coefficients(scheme8, f, cell)
    # attenuation, no gain at resonance
    assert co.alpha_z > 0 and co.alpha_x > 0


def test_undriven_alpha_matches_two_level_oracle(scheme8, cell):
    # with the pump off, alpha reduces to ground-state linear absorption:
    # per-transition Lorentzians weighted by dipole strengths and equal
    # ground populations
    for delta in (0.0, 1.0, 3.0):
        f = FieldConfig(omega_p=0.0, omega_pr=0.0, delta_p=delta,
                        delta_pr=delta)
        co = transport_coefficients(scheme8, f, cell)
        alpha_z, alpha_x = co.alpha_z, co.alpha_x
        n_g = 3
        lor = two_level_absorption(delta)
        expect_z = cell.absorption_scale * 2.0 / n_g * lor \
            * float(np.sum(np.abs(pump_raising(scheme8)) ** 2))
        expect_x = cell.absorption_scale * 2.0 / n_g * lor \
            * float(np.sum(np.abs(probe_raising(scheme8)) ** 2))
        assert alpha_z == pytest.approx(expect_z, rel=1e-5)
        assert alpha_x == pytest.approx(expect_x, rel=1e-5)


# every valid F_g -> F_e line of at most 12 sublevels, dark lines included
LINES = [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2),
         (0.5, 0.5), (0.5, 1.5), (1.5, 0.5), (1.5, 1.5), (1.5, 2.5),
         (2.5, 1.5), (2.5, 2.5)]


@pytest.mark.parametrize("line", LINES, ids=lambda l: f"{l[0]:g}->{l[1]:g}")
def test_undriven_alpha_matches_regression_spectrum(line, cell):
    # the closed-form unpumped alpha against kappa times the regression
    # spectrum of the undriven equal ground mixture at delta = 0
    scheme = build_scheme(*line)
    rho = equal_ground_state(scheme)
    for delta in (0.0, 0.75, 3.0):
        f = FieldConfig(omega_p=0.0, omega_pr=0.0, delta_p=delta,
                        delta_pr=delta)
        co = transport_coefficients(scheme, f, cell)
        alphas = (co.alpha_z, co.alpha_x)
        L = build_liouvillian(pump_hamiltonian(scheme, 0.0, delta),
                              build_collapse(scheme))
        for alpha, d_op in zip(alphas, (parallel_dipole(scheme),
                                        perpendicular_dipole(scheme))):
            g = correlation_spectrum(L, rho, d_op, [0.0]).absorption[0] \
                * d_op.peak_norm()
            assert alpha == pytest.approx(cell.absorption_scale * g,
                                          rel=1e-12)


def _finite_probe_alpha_x(scheme, omega_p, delta_p, omega_pr, cell):
    """alpha_x from the static steady state with a degenerate x probe of
    Rabi frequency omega_pr, divided by omega_pr."""
    f = FieldConfig(omega_p=omega_p, omega_pr=omega_pr, delta_p=delta_p,
                    delta_pr=delta_p)
    rho = degenerate_probe_steady_state(scheme, f)
    return -cell.absorption_scale \
        * _coherence_sum(probe_raising(scheme), rho) / omega_pr


@pytest.mark.parametrize("line", [(1, 2), (2, 3)],
                         ids=lambda l: f"{l[0]:g}->{l[1]:g}")
def test_alpha_x_linear_response_matches_finite_probe(line, cell):
    # the exact omega_pr -> 0 response on the pump-only L against the
    # steady state with a finite degenerate probe: they differ by
    # O(omega_pr^2), so halving omega_pr cuts the gap 4-fold (at
    # omega_p = 0.1 the gap is at roundoff and only its size is checked)
    scheme = build_scheme(*line)
    for omega_p in (0.1, 0.4, 3.0):
        for delta_p in (0.0, 0.75):
            alpha_x = transport_coefficients(
                scheme, FieldConfig(omega_p=omega_p, omega_pr=0.0,
                                    delta_p=delta_p, delta_pr=delta_p),
                cell).alpha_x
            gaps = [abs(_finite_probe_alpha_x(scheme, omega_p, delta_p,
                                              w * omega_p, cell) - alpha_x)
                    / abs(alpha_x) for w in (1e-3, 5e-4)]
            assert gaps[0] <= 1e-5
            if omega_p > 0.1:
                assert gaps[0] / gaps[1] == pytest.approx(4.0, abs=0.5)


@pytest.mark.parametrize("line", [(0, 1), (0.5, 1.5), (1, 2), (1.5, 2.5),
                                  (2, 3), (3, 4)],
                         ids=lambda l: f"{l[0]:g}->{l[1]:g}")
def test_alpha_x_matches_perpendicular_spectrum_at_zero_offset(line, cell):
    # on an F -> F+1 line the static linear response alpha_x (one solve per
    # q = +-1 block) equals kappa g_perp(0) / F_e, with g_perp the
    # unnormalized regression spectrum (Schur route) of the same state and
    # L; on F -> F lines g_perp(0) vanishes while alpha_x does not
    scheme = build_scheme(*line)
    d_op = perpendicular_dipole(scheme)
    for omega_p, delta_p in ((0.4, 0.75), (3.0, 1.5), (1.0, 0.0), (5.0, 10.0)):
        alpha_x = transport_coefficients(
            scheme, FieldConfig(omega_p=omega_p, omega_pr=0.0,
                                delta_p=delta_p, delta_pr=delta_p),
            cell).alpha_x
        rho, L = pump_only_steady_state(scheme, omega_p, delta_p)
        g = correlation_spectrum(L, rho, d_op, [0.0]).absorption[0] \
            * d_op.peak_norm()
        assert alpha_x == pytest.approx(
            cell.absorption_scale * g / scheme.F_e, rel=1e-11)


@pytest.mark.parametrize("line", [(0, 1), (0.5, 1.5), (1, 2), (1.5, 2.5),
                                  (2, 3), (3, 4)],
                         ids=lambda l: f"{l[0]:g}->{l[1]:g}")
def test_alpha_x_matches_weak_probe_at_zero_offset(line, cell):
    # the same identity by the explicit route: the unnormalized weak probe
    # at omega_pr = 1e-4 omega_p on the L of transport_coefficients, which
    # differs from the linear response by O(omega_pr^2). The spectrum's
    # slope at delta = 0 puts g(+-1e-6) off g(0) (1.5e-4 relative on
    # 1 -> 2 at (0.4, 0.75)); the mean over delta = +-1e-6 cancels it, and
    # the route evaluates delta = 0 as that mean
    scheme = build_scheme(*line)
    d_op = perpendicular_dipole(scheme)
    for omega_p, delta_p in ((0.4, 0.75), (3.0, 1.5), (1.0, 0.0), (5.0, 10.0)):
        alpha_x = transport_coefficients(
            scheme, FieldConfig(omega_p=omega_p, omega_pr=0.0,
                                delta_p=delta_p, delta_pr=delta_p),
            cell).alpha_x
        _, L = pump_only_steady_state(scheme, omega_p, delta_p)
        g = weak_probe_absorption(scheme, L, 1e-4 * omega_p,
                                  [-1e-6, 0.0, 1e-6]).absorption \
            * d_op.peak_norm()
        for value in (g[[0, 2]].mean(), g[1]):
            assert alpha_x * scheme.F_e / cell.absorption_scale \
                == pytest.approx(value, rel=1e-6)


@pytest.mark.parametrize("line", BRIGHT, ids=lambda l: f"{l[0]:g}->{l[1]:g}")
def test_alpha_x_is_alpha_z_on_every_bright_line(line, cell):
    # the medium is isotropic: an x field in phase with the z pump only
    # tilts its polarization, so the exact linear response alpha_x of the
    # pump-only state (the oracle's solve on the assembled L) is alpha_z.
    # The gap is bounded in units of kappa * peak_norm, not relative: on
    # 1 -> 1 and 2 -> 2 the ground m = 0 state is dark and both alphas are
    # about 1e-14 kappa. Near the floor the oracle's state is the 40-digit
    # solve, not the SVD rule, which loses digits there and reads the
    # corner (1.1e-3, 10) as degenerate
    pytest.importorskip("mpmath")
    scheme = build_scheme(*line)
    kappa = cell.absorption_scale
    scale = kappa * parallel_dipole(scheme).peak_norm()
    for omega_p in (0.0, 5e-4, 1.1e-3, 0.01, 0.4, 3.0, 20.0):
        for delta_p in (0.0, 0.75, 3.0, 10.0):
            co = transport_coefficients(
                scheme, FieldConfig(omega_p=omega_p, omega_pr=0.0,
                                    delta_p=delta_p, delta_pr=delta_p),
                cell)
            assert co.alpha_x == co.alpha_z
            if omega_p <= propagation._OMEGA_FLOOR:
                continue
            L = build_liouvillian(pump_hamiltonian(scheme, omega_p, delta_p),
                                  build_collapse(scheme))
            rho = steady_state_mp_oracle(L.matrix, scheme) \
                if omega_p < 0.01 else steady_state(L)
            oracle = kappa * alpha_x_oracle(L.matrix, rho,
                                            probe_raising(scheme))
            bound = 2e-8 if omega_p < 0.01 else 5e-10
            assert abs(oracle - co.alpha_z) <= bound * scale


@pytest.mark.parametrize("line", BRIGHT, ids=lambda l: f"{l[0]:g}->{l[1]:g}")
def test_weak_far_detuned_pump_answers(line, cell):
    # just above the floor and ten linewidths off resonance the pumping
    # rate is about 3e-9 Gamma, yet the state is unique: no
    # DegenerateSteadyStateError, and finite coefficients
    co = transport_coefficients(build_scheme(*line), FieldConfig(
        omega_p=1.1e-3, omega_pr=0.0, delta_p=10.0, delta_pr=10.0), cell)
    assert np.all(np.isfinite(list(vars(co).values())))
    assert co.alpha_x == co.alpha_z


def test_alpha_x_near_floor_matches_extended_precision(scheme8, cell):
    # on 1 -> 2 at omega_p = 1.1e-3, Delta_p = 3, alpha_x against the
    # pump-only state of L's q = 0 block solved in 40-digit arithmetic
    # (the trace row in place of the first population's); the linear
    # response solved in double precision is off by 2.2e-7
    mpmath = pytest.importorskip("mpmath")
    omega_p, delta_p = 1.1e-3, 3.0
    L = build_liouvillian(pump_hamiltonian(scheme8, omega_p, delta_p),
                          build_collapse(scheme8)).matrix
    d = scheme8.dim
    m = np.array([scheme8.m_of(i) for i in range(d)])
    b = np.flatnonzero(np.subtract.outer(m, m).ravel() == 0)
    populations = [k for k, i in enumerate(b) if i // d == i % d]
    v = pump_raising(scheme8).reshape(-1)[b].real
    with mpmath.workdps(40):
        A = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row]
                           for row in L[np.ix_(b, b)]])
        rhs = mpmath.matrix(len(b), 1)
        for j in range(len(b)):
            A[populations[0], j] = 1 if j in populations else 0
        rhs[populations[0]] = 1
        x = mpmath.lu_solve(A, rhs)
        coherence = sum(mpmath.mpf(float(w)) * x[k]
                        for k, w in enumerate(v) if w)
        expected = -2 * mpmath.im(coherence) * cell.absorption_scale \
            / mpmath.mpf(omega_p)
    alpha_x = transport_coefficients(
        scheme8, FieldConfig(omega_p=omega_p, omega_pr=0.0, delta_p=delta_p,
                             delta_pr=delta_p), cell).alpha_x
    assert abs(alpha_x / expected - 1) <= 2e-8


def test_alpha_x_well_conditioned_near_floor(scheme8, cell):
    # just above _OMEGA_FLOOR the ground Zeeman coherences relax only at
    # the pumping rate, yet a 1e-13 relative change of omega_p may move
    # alpha_x by no more than 1e-8 relative
    alphas = [transport_coefficients(
        scheme8, FieldConfig(omega_p=omega_p, omega_pr=0.0, delta_p=0.75,
                             delta_pr=0.75), cell).alpha_x
        for omega_p in (1.3e-3, 1.3e-3 * (1.0 + 1e-13))]
    assert abs(alphas[1] - alphas[0]) <= 1e-8 * abs(alphas[0])


def test_closed_form_alpha_zero_limit():
    y = np.linspace(0.0, 0.1, 11)
    assert np.max(np.abs(_closed_form(0.0, 0.0, 5.0, y) - 5.0 * y)) < 1e-10
    # series branch continuous against the exact expression
    small = _closed_form(2.0, 1e-8, 5.0, y)
    assert np.max(np.abs(small - (2.0 + 5.0 * y))) < 1e-7


def test_closed_form_vs_numeric(scheme8, cell):
    f = FieldConfig(omega_p=0.4, omega_pr=0.0, delta_p=0.75, delta_pr=0.75)
    I0 = cell.intensity_from_omega_p(0.4)
    pc = propagate(cell, scheme8, f, I_z0=I0, mode="closed_form")
    pn = propagate(cell, scheme8, f, I_z0=I0, mode="numeric")
    scale_z = np.max(pc.I_z)
    scale_x = np.max(pc.I_x)
    assert np.max(np.abs(pc.I_z - pn.I_z)) / scale_z < 1e-8
    assert np.max(np.abs(pc.I_x - pn.I_x)) / scale_x < 1e-8


def test_numeric_propagation_imports_no_integrator():
    # in a fresh process, since the suite may have imported scipy.integrate
    env = dict(os.environ, PYTHONPATH=str(
        Path(propagation.__file__).resolve().parents[1]))
    code = ("import sys\n"
            "from mirrorless import FieldConfig, build_scheme\n"
            "from mirrorless.propagation import CellConfig, propagate\n"
            "cell = CellConfig.pencil(length=0.1, density=1.16e16, "
            "gamma_phys=3.5e7, wavelength=780e-9, beam_radius=1e-3)\n"
            "f = FieldConfig(omega_p=0.4, omega_pr=0.0, delta_p=0.75, "
            "delta_pr=0.75)\n"
            "propagate(cell, build_scheme(1, 2), f, "
            "I_z0=cell.intensity_from_omega_p(0.4), mode='numeric')\n"
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.split() == ["False"]


def test_profile_physical_bounds(scheme8, cell):
    f = FieldConfig(omega_p=0.4, omega_pr=0.0, delta_p=0.75, delta_pr=0.75)
    prof = propagate(cell, scheme8, f, I_z0=cell.intensity_from_omega_p(0.4))
    assert np.all(prof.I_z >= 0) and np.all(prof.I_x >= 0)
    assert prof.Gamma_z[0] >= 0 and prof.Gamma_x[0] >= 0
    # with positive alpha_x the orthogonal intensity approaches the
    # source/loss fixed point from below, monotonically
    fixed_point = (cell.solid_angle / (4 * np.pi)) * cell.density \
        * cell.photon_energy * prof.Gamma_x[0] / prof.alpha_x[0]
    assert np.all(np.diff(prof.I_x) >= -1e-18)
    assert prof.I_x[-1] <= fixed_point * (1 + 1e-9)


def test_source_positivity_and_fixed_point_approach(scheme8, cell):
    f = FieldConfig(omega_p=1.0, omega_pr=0.0, delta_p=0.0, delta_pr=0.0)
    long_cell = CellConfig(length=50.0, density=cell.density,
                           gamma_phys=cell.gamma_phys,
                           photon_energy=cell.photon_energy,
                           solid_angle=cell.solid_angle, grid=400)
    prof = propagate(long_cell, scheme8, f,
                     I_z0=cell.intensity_from_omega_p(1.0))
    prefac = (long_cell.solid_angle / (4 * np.pi)) * long_cell.density \
        * long_cell.photon_energy
    fixed_point = prefac * prof.Gamma_x[0] / prof.alpha_x[0]
    assert np.all(np.diff(prof.I_x) >= -1e-16 * fixed_point)
    assert prof.I_x[-1] == pytest.approx(fixed_point, rel=1e-6)


def test_self_consistent_mode_runs(scheme8, cell, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return transport_coefficients(*args)

    monkeypatch.setattr(propagation, "transport_coefficients", counted)
    f = FieldConfig(omega_p=0.4, omega_pr=0.0, delta_p=0.75, delta_pr=0.75)
    small = CellConfig(length=cell.length, density=cell.density,
                       gamma_phys=cell.gamma_phys,
                       photon_energy=cell.photon_energy,
                       solid_angle=cell.solid_angle, grid=41)
    prof = propagate(small, scheme8, f,
                     I_z0=cell.intensity_from_omega_p(0.4),
                     mode="numeric", self_consistent=True)
    # pump is strongly absorbed; the local alpha_z relaxes toward the
    # unsaturated value as the pump depletes
    assert prof.I_z[-1] < prof.I_z[0]
    assert np.all(prof.I_x >= 0)
    # the medium is evaluated once per grid point, the entry included
    assert len(calls) == 41


@pytest.mark.parametrize("self_consistent", [True, False])
def test_self_consistent_reports_clamping(scheme8, cell, monkeypatch,
                                         self_consistent):
    # both numeric variants step with the same map and the same clamp rule
    monkeypatch.setattr(propagation, "_closed_form",
                        lambda I0, alpha, source, y: -np.ones_like(y))
    f = FieldConfig(omega_p=0.4, omega_pr=0.0, delta_p=0.75, delta_pr=0.75)
    small = CellConfig(length=cell.length, density=cell.density,
                       gamma_phys=cell.gamma_phys,
                       photon_energy=cell.photon_energy,
                       solid_angle=cell.solid_angle, grid=3)
    prof = propagate(small, scheme8, f,
                     I_z0=cell.intensity_from_omega_p(0.4),
                     mode="numeric", self_consistent=self_consistent)
    assert prof.clamped is True
    assert np.all(prof.I_z[1:] == 0) and np.all(prof.I_x[1:] == 0)


def test_output_curve_zero_and_monotone(scheme8, cell):
    grid = np.linspace(0.0, cell.intensity_from_omega_p(6.0), 16)
    rows = output_curve(cell, scheme8, grid, 0.75)
    outs = np.array([r.I_x_out for r in rows])
    assert outs[0] == 0.0                        # zero pump -> zero output
    assert np.all(np.diff(outs) >= -1e-18)       # monotone nondecreasing
    slopes = np.diff(outs) / np.diff(grid)
    assert slopes[-1] < 0.8 * slopes[0]          # linear then saturating


def test_operating_point_finite_output(scheme8, cell):
    # recommended operating point: finite nonzero exit intensity dominated by
    # the spontaneous source
    rows = output_curve(cell, scheme8, [cell.intensity_from_omega_p(0.4)],
                        0.75)
    assert rows[0].I_x_out > 0
    co = transport_coefficients(
        scheme8, FieldConfig(omega_p=0.4, omega_pr=0.0, delta_p=0.75,
                             delta_pr=0.75), cell)
    assert co.source_x > 0
    # source/loss fixed point bounds the output
    assert rows[0].I_x_out <= co.source_x / co.alpha_x * (1 + 1e-9)


def test_transport_equation_dimensional_consistency(scheme8, cell):
    # both terms of dI/dy = -alpha I + (Phi/4pi) n hbar omega Gamma carry
    # W/m^3 when evaluated with unit-tagged scalars
    W = unit(1.0, kg=1, m=2, s=-3)
    meter = unit(1.0, m=1)
    second = unit(1.0, s=1)
    intensity = 5.0 * W / (meter * meter)
    alpha = unit(115.0, m=-1)
    density = unit(cell.density, m=-3)
    photon_energy = unit(cell.photon_energy, kg=1, m=2, s=-2)
    gamma = unit(cell.gamma_phys, s=-1)
    phi_over_4pi = unit(cell.solid_angle / (4 * np.pi))  # dimensionless
    loss = -(alpha * intensity)
    source = phi_over_4pi * density * photon_energy * gamma
    total = loss + source  # raises TypeError on dimension mismatch
    expected = W / (meter * meter * meter)
    assert total.same_dims(expected)
    assert (intensity / meter).same_dims(expected)  # dI/dy has the same unit


def test_propagate_rejects_bad_input(scheme8, cell):
    f = FieldConfig(omega_p=0.4, omega_pr=0.0, delta_p=0.0, delta_pr=0.0)
    with pytest.raises(ValueError):
        propagate(cell, scheme8, f, I_z0=-1.0)
    with pytest.raises(ValueError):
        propagate(cell, scheme8, f, I_z0=1.0, mode="magic")
    with pytest.raises(ValueError):
        propagate(cell, scheme8, f, I_z0=1.0, mode="closed_form",
                  self_consistent=True)


@pytest.mark.parametrize("mode, self_consistent",
                         [("closed_form", False), ("numeric", False),
                          ("numeric", True)])
def test_propagate_rejects_two_entry_pumps(scheme8, cell, mode,
                                           self_consistent):
    # omega_p and I_z0 both fix the entry pump; when they disagree, no
    # route may pick one of them silently
    f = FieldConfig(omega_p=0.4, omega_pr=0.0, delta_p=0.75, delta_pr=0.75)
    with pytest.raises(ValueError, match="entry pump given twice"):
        propagate(cell, scheme8, f, I_z0=cell.intensity_from_omega_p(0.8),
                  mode=mode, self_consistent=self_consistent)
