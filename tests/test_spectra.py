"""Regression-theorem spectra, weak-probe route, minimum-absorption scans."""

import numpy as np
import pytest

from mirrorless import DegenerateSteadyStateError, FieldConfig, \
    build_collapse, build_liouvillian, build_scheme, \
    pump_only_steady_state, steady_state
from mirrorless.levels import probe_raising, pump_hamiltonian, pump_raising
from mirrorless.spectra import (CorrelationWindowError, correlation_spectrum,
                                min_absorption_scan, parallel_dipole,
                                perpendicular_dipole,
                                perpendicular_gain_spectrum,
                                resolvent_spectrum, weak_probe_absorption)

from oracles import (commutator_correlation_oracle,
                     degenerate_probe_steady_state, half_fourier_oracle,
                     two_level_absorption, two_level_collapse,
                     two_level_dipole, two_level_hamiltonian,
                     weak_probe_oracle)


def _tls(omega, delta):
    H = two_level_hamiltonian(omega, delta)
    L = build_liouvillian(H, two_level_collapse())
    rho = steady_state(L) if omega > 0 else np.diag([0.0, 1.0]).astype(complex)
    return L, rho


def _sign_changes(grid, a):
    out = []
    for i in range(len(a) - 1):
        if a[i] * a[i + 1] < 0:
            x = grid[i] - a[i] * (grid[i + 1] - grid[i]) / (a[i + 1] - a[i])
            out.append(x)
    return out


def test_undriven_atom_lorentzian():
    L, rho = _tls(0.0, 0.0)
    grid = np.linspace(-4, 4, 161)
    spec = correlation_spectrum(L, rho, two_level_dipole(), grid)
    a = spec.absorption
    assert np.all(a > 0)                        # strictly absorptive
    assert a.max() == pytest.approx(1.0, abs=1e-5)   # normalized peak
    assert grid[np.argmax(a)] == 0.0            # at the atomic frequency
    half = a[np.argmin(np.abs(grid - 0.5))]
    assert half == pytest.approx(0.5, abs=1e-4)      # HWHM Gamma/2
    # matches the closed-form Lorentzian everywhere
    assert np.max(np.abs(a - two_level_absorption(grid))) < 1e-4


def test_regression_matches_resolvent():
    cases = [_tls(0.0, 0.0), _tls(4.0, 0.0), _tls(4.0, 2.0)]
    scheme = build_scheme(1, 2)
    rho, L = pump_only_steady_state(scheme, 3.0, 0.0)
    grid = np.linspace(-7, 7, 57)
    for Lc, rhoc in cases:
        s1 = correlation_spectrum(Lc, rhoc, two_level_dipole(), grid)
        s2 = resolvent_spectrum(Lc, rhoc, two_level_dipole(), grid)
        assert np.max(np.abs(s1.absorption - s2.absorption)) < 2e-5
    s1 = correlation_spectrum(L, rho, perpendicular_dipole(scheme), grid)
    s2 = resolvent_spectrum(L, rho, perpendicular_dipole(scheme), grid)
    assert np.max(np.abs(s1.absorption - s2.absorption)) < 2e-5


def test_commutator_correlation_initial_value_real():
    scheme = build_scheme(1, 2)
    rho, L = pump_only_steady_state(scheme, 3.0, 0.5)
    _, c, _ = commutator_correlation_oracle(
        L.matrix, rho, perpendicular_dipole(scheme).d_plus, dt=0.02,
        t_window=0.02)
    assert abs(c[0].imag) < 1e-10 * max(abs(c[0]), 1e-30)


@pytest.mark.parametrize("case", ["two-level", "8-level"])
def test_regression_matches_time_domain_oracle(case):
    if case == "two-level":
        (L, rho), d_op, t_window = _tls(4.0, 2.0), two_level_dipole(), 60.0
    else:
        scheme = build_scheme(1, 2)
        rho, L = pump_only_steady_state(scheme, 3.0, 0.5)
        d_op, t_window = perpendicular_dipole(scheme), 120.0
    grid = np.linspace(-7, 7, 57)
    dt = 0.01
    taus, c, slopes = commutator_correlation_oracle(L.matrix, rho, d_op.d_plus,
                                                    dt, t_window)
    oracle = np.real(half_fourier_oracle(taus, c, -grid, slopes))
    g = correlation_spectrum(L, rho, d_op, grid).absorption * d_op.peak_norm()
    # the oracle's own error: the neglected tail beyond the window (the
    # trailing tenth of |C| decaying at the slowest rate) plus the corrected
    # trapezoid's dt^4/720 * int |f^(4)|, taking
    # |f^(4)| <= (|omega| + |L|)^4 |C| for f = e^{i omega tau} C
    eigs = np.linalg.eigvals(L.matrix)
    rates = -eigs.real[eigs.real < -1e-9]
    truncation = np.max(np.abs(c[-len(c) // 10:])) / rates.min()
    reach = np.max(np.abs(grid)) + np.max(np.abs(eigs))
    quadrature = dt ** 4 / 720 * reach ** 4 * np.sum(np.abs(c)) * dt
    err = np.max(np.abs(g - oracle))
    assert err <= 2 * (truncation + quadrature)


def test_exceptional_point_matches_dense_solve():
    # Omega = Gamma/4 on resonance: the two population-coherence modes merge
    # into a defective eigenvalue -3/4, where eigenvector-based routes lose
    # digits; the Schur route stays at rounding level
    L, rho = _tls(0.25, 0.0)
    d_op = two_level_dipole()
    grid = np.linspace(-3, 3, 61)
    M = L.matrix + np.outer(rho.reshape(-1), np.eye(2).reshape(-1))
    x0 = (d_op.d_plus @ rho - rho @ d_op.d_plus).reshape(-1)
    ref = [-np.real(np.trace(d_op.d_minus @ np.linalg.solve(
        M - 1j * delta * np.eye(4), x0).reshape(2, 2))) for delta in grid]
    g = correlation_spectrum(L, rho, d_op, grid).absorption * d_op.peak_norm()
    assert np.max(np.abs(g - ref)) <= 1e-13


def test_mollow_resonant_sidebands_at_rabi():
    # dispersive gain/absorption features centered (zero crossing) at +-Omega
    L, rho = _tls(4.0, 0.0)
    grid = np.linspace(-8, 8, 321)
    spec = correlation_spectrum(L, rho, two_level_dipole(), grid)
    a = spec.absorption
    assert np.max(np.abs(a - a[::-1])) < 1e-6 * np.max(np.abs(a))  # symmetric
    crossings = np.array(_sign_changes(grid, a))
    outer_pos = crossings[crossings > 1.0]
    outer_neg = crossings[crossings < -1.0]
    step = grid[1] - grid[0]
    assert len(outer_pos) and abs(outer_pos[-1] - 4.0) < 2 * step
    assert len(outer_neg) and abs(outer_neg[0] + 4.0) < 2 * step
    assert a.min() < 0  # gain lobes present


def test_mollow_detuned_gain_single_sideband():
    L, rho = _tls(4.0, 2.0)
    grid = np.linspace(-8, 8, 641)
    spec = resolvent_spectrum(L, rho, two_level_dipole(), grid)
    a = spec.absorption
    assert np.max(np.abs(a - a[::-1])) > 0.1 * np.max(np.abs(a))  # asymmetric
    gen_rabi = np.hypot(4.0, 2.0)
    lo = np.abs(grid + gen_rabi) < 1.5
    hi = np.abs(grid - gen_rabi) < 1.5
    mins = sorted([a[lo].min(), a[hi].min()])
    assert mins[0] < 0 <= mins[1]  # amplification on exactly one sideband


def test_f23_parallel_spectrum_features(scheme12):
    rho, L = pump_only_steady_state(scheme12, 4.0, 0.0)
    grid = np.linspace(-8, 8, 321)
    spec = resolvent_spectrum(L, rho, parallel_dipole(scheme12), grid)
    a = spec.absorption
    # symmetric under delta -> -delta at resonance
    assert np.max(np.abs(a - a[::-1])) < 1e-6 * np.max(np.abs(a))
    # gain/absorption sidebands near the dressed frequencies (strongest pair
    # Rabi = 4 * sqrt(3/5)), plus a central interference feature
    crossings = np.array(_sign_changes(grid, a))
    outermost = np.max(np.abs(crossings))
    strongest = 4.0 * np.sqrt(3.0 / 5.0)
    assert strongest * 0.8 < outermost < 4.0 * 1.1
    assert a.min() < 0
    i0 = np.argmin(np.abs(grid))
    assert abs(a[i0 - 1] - a[i0 + 1]) < 1e-8  # extremum at delta = 0


def test_f23_parallel_detuned_one_sided_amplification(scheme12):
    rho, L = pump_only_steady_state(scheme12, 4.0, 2.0)
    grid = np.linspace(-9, 9, 721)
    a = resolvent_spectrum(L, rho, parallel_dipole(scheme12), grid).absorption
    assert np.max(np.abs(a - a[::-1])) > 0.1 * np.max(np.abs(a))
    # sideband windows around the per-pair generalized Rabi frequencies
    # sqrt((omega_p w)^2 + delta_p^2) of the pi pairs
    w = np.abs(pump_raising(scheme12))
    sidebands = np.hypot(4.0 * w[w > 0], 2.0)
    side = sidebands.max()
    lo = (grid > -side - 1.5) & (grid < -sidebands.min() + 1.5) & (grid < -1.5)
    hi = (grid < side + 1.5) & (grid > 1.5)
    mins = sorted([a[lo].min(), a[hi].min()])
    assert mins[0] < 0 <= mins[1]


def test_perpendicular_resonant_no_gain(scheme8):
    rho, L = pump_only_steady_state(scheme8, 3.0, 0.0)
    grid = np.linspace(-6, 6, 241)
    a = resolvent_spectrum(L, rho, perpendicular_dipole(scheme8), grid).absorption
    assert np.all(a > -1e-10)


def test_perpendicular_detuned_gain_window_positions(scheme8):
    # far-detuned pump opens a narrow Raman gain window near delta = 0
    for dp in (10.0, 15.0):
        rho, L = pump_only_steady_state(scheme8, 3.0, dp)
        grid = np.linspace(-2.0, 2.0, 801)
        a = resolvent_spectrum(L, rho, perpendicular_dipole(scheme8),
                               grid).absorption
        neg = grid[a < 0]
        assert neg.size, f"no gain window at delta_p={dp}"
        center = 0.5 * (neg.min() + neg.max())
        assert abs(center) < 1.0


def test_routes_agree(scheme8):
    f = FieldConfig(omega_p=3.0, omega_pr=3e-3, delta_p=0.0, delta_pr=0.0)
    grid = np.linspace(-6, 6, 49)
    pg = perpendicular_gain_spectrum(scheme8, f, grid)
    a, b = pg.absorption, pg.weak_probe_absorption
    peak = np.max(np.abs(a))
    mask = np.abs(a) > 1e-3 * peak
    assert np.all(np.sign(a[mask]) == np.sign(b[mask]))
    assert np.max(np.abs((a[mask] - b[mask]) / a[mask])) < 0.05


def test_weak_probe_linearity(scheme8):
    grid = np.linspace(-5, 5, 21)
    _, L = pump_only_steady_state(scheme8, 3.0, 0.0)
    w1 = weak_probe_absorption(scheme8, L, 3e-3, grid).absorption
    w2 = weak_probe_absorption(scheme8, L, 1.5e-3, grid).absorption
    rel = np.abs(w1 - w2) / np.maximum(np.abs(w1), 1e-12)
    assert np.max(rel) < 1e-3  # halving the probe changes alpha < 0.1%


@pytest.mark.parametrize("probe_ratio", [1e-3, 0.1], ids=["weak", "strong"])
@pytest.mark.parametrize("n_harmonics", [1, 2, 3])
@pytest.mark.parametrize("line", [(1, 2), (1.5, 2.5), (2, 3)],
                         ids=["8-level", "10-level", "12-level"])
def test_weak_probe_matches_bordered_oracle(line, n_harmonics, probe_ratio):
    scheme = build_scheme(*line)
    omega_p, delta_p = 3.0, 1.5
    omega_pr = probe_ratio * omega_p
    grid = np.linspace(-4.0, 4.0, 5)  # contains delta = 0
    _, L = pump_only_steady_state(scheme, omega_p, delta_p)
    got = weak_probe_absorption(scheme, L, omega_pr, grid,
                                n_harmonics=n_harmonics).absorption
    d_op = perpendicular_dipole(scheme)
    ref = weak_probe_oracle(L.matrix, omega_pr * d_op.d_plus, grid,
                            n_harmonics)
    ref *= 2.0 / (omega_pr ** 2 * d_op.peak_norm())
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_weak_probe_matches_lstsq_oracle(scheme8):
    # the dense least-squares solve of the bordered system, the sparse
    # saddle-point oracle's own reference, on one 8-level case
    omega_p, delta_p, omega_pr = 3.0, 1.5, 0.3
    grid = np.linspace(-4.0, 4.0, 5)
    _, L = pump_only_steady_state(scheme8, omega_p, delta_p)
    L0, d_op = L.matrix, perpendicular_dipole(scheme8)
    got = weak_probe_absorption(scheme8, L, omega_pr, grid,
                                n_harmonics=3).absorption * d_op.peak_norm()
    v_plus = omega_pr * d_op.d_plus
    dense = weak_probe_oracle(L0, v_plus, grid, 3, solver="lstsq")
    dense *= 2.0 / omega_pr ** 2
    sparse = weak_probe_oracle(L0, v_plus, grid, 3) * 2.0 / omega_pr ** 2
    assert np.max(np.abs(got - dense)) <= 1e-9 * np.max(np.abs(dense))
    assert np.max(np.abs(sparse - dense)) <= 1e-9 * np.max(np.abs(dense))


def test_weak_probe_converges_in_harmonics(scheme8):
    grid = np.linspace(-6, 6, 25)
    _, L = pump_only_steady_state(scheme8, 3.0, 0.0)
    spectra = [weak_probe_absorption(scheme8, L, 0.3, grid,
                                     n_harmonics=n).absorption
               for n in range(1, 8)]
    steps = [np.max(np.abs(b - a)) for a, b in zip(spectra, spectra[1:])]
    assert steps[0] > 1e-4 * np.max(np.abs(spectra[-1]))  # strong probe
    assert np.all(np.diff(steps) < 0)
    assert steps[-1] < 1e-10 * np.max(np.abs(spectra[-1]))


@pytest.mark.parametrize("omega_pr, n_harmonics", [(0.0, 2), (3e-3, 0)])
def test_weak_probe_rejects_bad_input(scheme8, omega_pr, n_harmonics):
    _, L = pump_only_steady_state(scheme8, 3.0, 0.0)
    with pytest.raises(ValueError):
        weak_probe_absorption(scheme8, L, omega_pr, [0.0, 1.0],
                              n_harmonics=n_harmonics)


@pytest.mark.parametrize("line", [(2, 1), (1.5, 0.5)])
def test_weak_probe_dark_line_raises(line):
    # the weak probe runs on the pump L whose steady state the ground rate
    # matrix has found unique: on a dark line that count raises first
    f = FieldConfig(omega_p=3.0, omega_pr=3e-3, delta_p=0.0, delta_pr=0.0)
    with pytest.raises(DegenerateSteadyStateError) as err:
        perpendicular_gain_spectrum(build_scheme(*line), f, [0.0, 1.0])
    assert err.value.dimension > 1


@pytest.mark.parametrize("line, omega_p, dimension", [((2, 1), 3.0, 4),
                                                     ((1, 2), 0.0, 9),
                                                     ((2, 1), 1e-5, 4)])
def test_weak_probe_rejects_dark_or_undriven_liouvillian(line, omega_p,
                                                         dimension):
    # handed the pump L of a dark or an undriven line directly, the weak
    # probe counts the elements of rho that nothing moves, L's all-zero
    # columns: the four on the dark m_g = +-2 pair however weak the pump
    scheme = build_scheme(*line)
    L = build_liouvillian(pump_hamiltonian(scheme, omega_p, 0.0),
                          build_collapse(scheme))
    with pytest.raises(DegenerateSteadyStateError) as err:
        weak_probe_absorption(scheme, L, 3e-3, [0.0, 1.0])
    assert err.value.dimension == dimension


def test_degenerate_probe_coherences_resonant(scheme8):
    # criterion-6 structure: at resonance the probe coherences are real and
    # the mirror-symmetric pairs are equal
    f = FieldConfig(omega_p=3.0, omega_pr=3e-3, delta_p=0.0, delta_pr=0.0)
    rho = degenerate_probe_steady_state(scheme8, f)
    for (e, g) in [(0, 1), (2, 3), (4, 5)]:     # rho12, rho34, rho56
        assert abs(rho[e, g].imag) < 1e-8
    assert abs(rho[1, 0] - rho[5, 7]) < 1e-10   # rho21 = rho68
    assert abs(rho[1, 4] - rho[5, 4]) < 1e-10   # rho25 = rho65
    assert abs(rho[3, 2] - rho[3, 6]) < 1e-10   # rho43 = rho47
    # the 8-level resonant case has no net gain: coherence sum negative
    s = rho[0, 1].real + rho[2, 3].real + rho[4, 5].real
    assert s < 0
    assert rho[4, 5].real > 0   # inverted-manifold term reduces absorption


def test_degenerate_probe_coherences_detuned_imaginary(scheme8):
    f = FieldConfig(omega_p=3.0, omega_pr=3e-3, delta_p=0.1, delta_pr=0.1)
    rho = degenerate_probe_steady_state(scheme8, f)
    assert max(abs(rho[e, g].imag) for e, g in [(0, 1), (2, 3), (4, 5)]) > 1e-8


def test_degenerate_probe_halves_raman_peak(scheme8):
    # at the exactly degenerate two-photon point the static response folds in
    # the four-wave-mixing partner and halves the delta -> 0 limit
    f = FieldConfig(omega_p=3.0, omega_pr=3e-4, delta_p=0.0, delta_pr=0.0)
    rho = degenerate_probe_steady_state(scheme8, f)
    Vu = probe_raising(scheme8)
    a_static = -2 * np.imag(np.trace(Vu.conj().T @ rho)) / f.omega_pr
    rho0, L = pump_only_steady_state(scheme8, 3.0, 0.0)
    d_op = perpendicular_dipole(scheme8)
    g0 = resolvent_spectrum(L, rho0, d_op, [0.0]).absorption[0] \
        * d_op.peak_norm()
    assert a_static / g0 == pytest.approx(0.5, rel=1e-3)


def test_min_absorption_scan_resonant_nonnegative(scheme12):
    scan = min_absorption_scan(scheme12, 0.0, np.linspace(0.3, 6.0, 8))
    assert all(p.min_absorption >= -1e-6 for p in scan.points)
    assert not any(p.min_absorption < 0.0 for p in scan.points)


def test_min_absorption_scan_detuned_gain(scheme12):
    scan = min_absorption_scan(scheme12, 0.75, np.linspace(0.3, 6.0, 8))
    assert any(p.min_absorption < 0 for p in scan.points)


def test_min_absorption_resonant_tie_resolves_to_lowest_delta(scheme12):
    # the resonant spectrum is mirror-symmetric: its two edge minima tie
    scan = min_absorption_scan(scheme12, 0.0, np.linspace(0.3, 6.0, 20))
    assert all(p.delta_at_min <= 0 for p in scan.points)


@pytest.mark.parametrize("delta_p", [0.0, 0.75])
def test_min_absorption_scan_matches_eigen_route(scheme8, scheme12, delta_p):
    # the Schur-engine minimum against the eigenmode resolvent on its grid
    grid = np.linspace(-6.0, 6.0, 61)
    for scheme in (scheme8, scheme12):
        d_op = perpendicular_dipole(scheme)
        scan = min_absorption_scan(scheme, delta_p, [0.5, 2.0, 4.0],
                                   delta_grid=grid)
        for p in scan.points:
            rho, L = pump_only_steady_state(scheme, p.omega_p, delta_p)
            ref = resolvent_spectrum(L, rho, d_op, grid).absorption
            bound = 1e-10 * np.max(np.abs(ref))
            at_min = resolvent_spectrum(L, rho, d_op,
                                        [p.delta_at_min]).absorption[0]
            assert abs(p.min_absorption - at_min) <= bound
            assert ref.min() >= p.min_absorption - bound


def test_min_absorption_vanishing_drive(scheme12):
    scan = min_absorption_scan(scheme12, 0.0, [0.02])
    p = scan.points[0]
    assert p.min_absorption >= -1e-6
    assert p.min_absorption < 1e-2  # spectrum tends to zero off resonance


def test_dressed_ladder_predicts_spectrum_extrema():
    # the dressed-state sidebands of the resonant two-level atom, +-Omega,
    # coincide with the spectrum's outermost dispersive feature (zero
    # crossing) within one grid step
    L, rho = _tls(4.0, 0.0)
    grid = np.linspace(-8, 8, 641)
    a = resolvent_spectrum(L, rho, two_level_dipole(), grid).absorption
    crossings = np.array(_sign_changes(grid, a))
    step = grid[1] - grid[0]
    for p in (-4.0, 4.0):
        assert np.min(np.abs(crossings - p)) < 2 * step


def test_spectrum_grid_validation(scheme8):
    rho, L = pump_only_steady_state(scheme8, 3.0, 0.0)
    with pytest.raises(ValueError):
        resolvent_spectrum(L, rho, perpendicular_dipole(scheme8), [1.0, 0.0])


def test_nondecaying_correlation_reported(scheme8):
    # purely Hamiltonian dynamics never decays: the window is exhausted and
    # the achieved decay level is reported
    from mirrorless.levels import CollapseChannels
    zeros = np.zeros((8, 8), dtype=complex)
    ch = CollapseChannels(sigmas=(zeros, zeros, zeros))
    L = build_liouvillian(pump_hamiltonian(scheme8, 2.0, 0.0), ch)
    rho = np.zeros((8, 8), dtype=complex)
    for g in scheme8.ground_indices:
        rho[g, g] = 1 / 3
    with pytest.raises(CorrelationWindowError) as err:
        correlation_spectrum(L, rho, perpendicular_dipole(scheme8),
                             np.linspace(-2, 2, 5))
    assert err.value.achieved > 0.1
