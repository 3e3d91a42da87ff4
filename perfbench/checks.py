"""Output checks and reference routes, run outside the timed region.

Every output table is parsed in full. The tolerances are the test suite's:

- regression spectrum against ``resolvent_spectrum``: 2e-5, absolute on
  the normalized absorption (tests/test_spectra.py);
- explicit weak probe against the regression route: 5 % relative on points
  above 1e-3 of the peak, with equal signs (tests/test_spectra.py);
- numeric against closed-form transport: 1e-8 relative to each profile's
  maximum (tests/test_propagation.py);
- populations non-negative to -1e-8 and summing to 1 within 1e-10
  (tests/test_dynamics.py); time evolution against ``expm`` of the
  Liouvillian within 1e-8, the kernel suite's bound against a reference
  integrator.

Reference routes are built from ``mirrorless.__all__`` names only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
from scipy.linalg import expm

import mirrorless as ml

TOL_RESOLVENT = 2e-5
TOL_WEAK_PROBE = 0.05
NEGLIGIBLE = 1e-3
TOL_TRANSPORT = 1e-8
TOL_EVOLVE = 1e-8
TOL_NEGATIVE = 1e-8
TOL_TRACE = 1e-10
TOL_GRID = 1e-12


@dataclass
class Table:
    names: List[str]
    units: List[str]
    data: np.ndarray  # rows x columns

    def col(self, name: str) -> np.ndarray:
        return self.data[:, self.names.index(name)]


def parse_table(path) -> Table:
    """Read a CSV result table: header, unit row and numeric rows; the
    provenance lines are skipped."""
    rows: List[List[float]] = []
    names: Optional[List[str]] = None
    units: Optional[List[str]] = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if names is None:
                names = line.split(",")
            elif units is None:
                units = [u.strip("[]") for u in line.split(",")]
            else:
                rows.append([float(v) for v in line.split(",")])
    if names is None or units is None or len(units) != len(names):
        raise ValueError("table has no header and unit row")
    data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return Table(names, units, data)


@dataclass
class Outcome:
    """Result of checking one output; ``gap`` is the relative gap to the
    scenario's reference route, when it has one."""

    problems: List[str] = field(default_factory=list)
    gap: Optional[float] = None
    weak_probe_gap: Optional[float] = None


def _rel_gap(values: np.ndarray, ref: np.ndarray) -> float:
    scale = float(np.max(np.abs(ref))) or 1.0
    return float(np.max(np.abs(values - ref))) / scale


def _grid(spec) -> np.ndarray:
    lo, hi, n = spec
    return np.linspace(lo, hi, n)


def _expect(out: Outcome, cond: bool, message: str) -> None:
    if not cond:
        out.problems.append(message)


def _spectrum_reference(p: Dict, grid: np.ndarray) -> np.ndarray:
    if p["line"] is None:
        # the two-level reference atom, basis (excited, ground)
        w, dp = p["omega_p"], p["delta_p"]
        H = 0.5 * np.array([[2.0 * dp, w], [w, 0.0]], dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        lower, raising = zero.copy(), zero.copy()
        lower[1, 0] = raising[0, 1] = 1.0
        channels = ml.CollapseChannels(sigmas=(lower, zero, zero))
        d_op = ml.DipoleOperator(d_plus=raising, polarization="parallel",
                                 n_ground=1)
    else:
        scheme = ml.build_scheme(*p["line"])
        H = ml.pump_hamiltonian(scheme, p["omega_p"], p["delta_p"])
        channels = ml.build_collapse(scheme)
        d_op = (ml.parallel_dipole(scheme) if p["polarization"] == "parallel"
                else ml.perpendicular_dipole(scheme))
    L = ml.build_liouvillian(H, channels)
    return ml.resolvent_spectrum(L, ml.steady_state(L), d_op,
                                 grid).absorption


def _populations_reference(p: Dict, times: np.ndarray):
    scheme = ml.build_scheme(*p["line"])
    H = ml.pump_hamiltonian(scheme, p["omega_p"], p["delta_p"])
    if p["omega_pr"] > 0:
        V = ml.probe_raising(scheme) * p["omega_pr"]
        H = H + 0.5 * (V + V.conj().T)
    L = ml.build_liouvillian(H, ml.build_collapse(scheme)).matrix
    step = expm(L * (times[1] - times[0]))
    y = ml.equal_ground_state(scheme).reshape(-1)
    states = [y]
    for _ in range(len(times) - 1):
        y = step @ y
        states.append(y)
    return scheme, np.array(states)


def _transport_reference(p: Dict):
    c = p["cell"]
    cell = ml.CellConfig.pencil(c["length_m"], c["density_m3"],
                                c["gamma_rad_s"], c["wavelength_m"],
                                c["beam_radius_m"], grid=c["grid_points"])
    fields = ml.FieldConfig(omega_p=p["omega_p"], omega_pr=0.0,
                            delta_p=p["delta_p"], delta_pr=p["delta_p"])
    return ml.propagate(cell, ml.build_scheme(*p["line"]), fields,
                        I_z0=cell.intensity_from_omega_p(p["omega_p"]),
                        mode="closed_form")


def _check_populations_block(out: Outcome, pops: np.ndarray) -> None:
    _expect(out, bool(np.all(pops >= -TOL_NEGATIVE)),
            f"negative population {pops.min():.3e}")
    drift = float(np.max(np.abs(pops.sum(axis=1) - 1.0)))
    _expect(out, drift <= TOL_TRACE, f"populations sum off 1 by {drift:.3e}")


def _level_index(scheme, label: str) -> int:
    manifold = "excited" if label[0] == "e" else "ground"
    return scheme.index(manifold, float(label[1:]))


class Checker:
    """Checks outputs; reference routes are computed once per scenario."""

    def __init__(self):
        self._refs: Dict[str, object] = {}

    def _ref(self, scenario, make):
        if scenario.id not in self._refs:
            self._refs[scenario.id] = make()
        return self._refs[scenario.id]

    def check(self, scenario, path) -> Outcome:
        out = Outcome()
        try:
            table = parse_table(path)
            _expect(out, bool(np.all(np.isfinite(table.data))),
                    "non-finite values in the table")
            getattr(self, "_" + scenario.workflow.replace("-", "_"))(
                scenario, table, out)
        except Exception as exc:  # a failed check never stops the benchmark
            out.problems.append(f"check failed: {type(exc).__name__}: {exc}")
        return out

    def _spectrum(self, s, table: Table, out: Outcome) -> None:
        grid = _grid(s.grid["delta"])
        delta = table.col("delta")
        _expect(out, delta.shape == grid.shape
                and np.allclose(delta, grid, rtol=0, atol=TOL_GRID),
                "offset column differs from the requested grid")
        if out.problems:
            return
        a = table.col("absorption")
        ref = self._ref(s, lambda: _spectrum_reference(s.params, grid))
        gap = float(np.max(np.abs(a - ref)))
        _expect(out, gap <= TOL_RESOLVENT,
                f"regression vs resolvent gap {gap:.3e} > {TOL_RESOLVENT}")
        # relative to the undriven line's peak, the unit the absorption is
        # normalized to: far-detuned spectra peak far below it, and their
        # own peak would turn the same absolute error into a seed-dependent
        # relative one
        out.gap = gap
        if "absorption_weak_probe" in table.names:
            b = table.col("absorption_weak_probe")
            mask = np.abs(a) > NEGLIGIBLE * np.max(np.abs(a))
            _expect(out, bool(np.all(np.sign(a[mask]) == np.sign(b[mask]))),
                    "weak probe and regression differ in sign")
            out.weak_probe_gap = float(np.max(np.abs((a[mask] - b[mask])
                                                     / a[mask])))
            _expect(out, out.weak_probe_gap < TOL_WEAK_PROBE,
                    f"weak probe vs regression gap {out.weak_probe_gap:.3e}")

    def _populations(self, s, table: Table, out: Outcome) -> None:
        times = _grid(s.grid["t"])
        t = table.col("t")
        _expect(out, t.shape == times.shape
                and np.allclose(t, times, rtol=0, atol=TOL_GRID),
                "time column differs from the requested grid")
        if out.problems:
            return
        scheme, states = self._ref(
            s, lambda: _populations_reference(s.params, times))
        d = scheme.dim
        got, want = [], []
        pops = []
        for k, name in enumerate(table.names):
            part, _, label = name.partition("_")
            if part == "pop":
                i = _level_index(scheme, label)
                pops.append(table.data[:, k])
                got.append(table.data[:, k])
                want.append(states[:, i * d + i].real)
            elif part in ("re", "im") and label.startswith("rho_"):
                e_lbl, g_lbl = label[4:].split("_")
                e, g = _level_index(scheme, e_lbl), _level_index(scheme, g_lbl)
                ref = states[:, e * d + g]
                got.append(table.data[:, k])
                want.append(ref.real if part == "re" else ref.imag)
        _expect(out, len(pops) == d, f"{len(pops)} population columns, "
                                     f"expected {d}")
        if out.problems:
            return
        _check_populations_block(out, np.array(pops).T)
        out.gap = _rel_gap(np.array(got), np.array(want))
        _expect(out, out.gap <= TOL_EVOLVE,
                f"evolve vs expm gap {out.gap:.3e} > {TOL_EVOLVE}")

    def _inversion_scan(self, s, table: Table, out: Outcome) -> None:
        grid = _grid(s.grid["s"])
        S = table.col("S")
        _expect(out, S.shape == grid.shape
                and np.allclose(S, grid, rtol=TOL_GRID, atol=0),
                "S column differs from the requested grid")
        if out.problems:
            return
        omega = np.array([ml.omega_from_saturation(x, s.params["delta_p"])
                          for x in grid])
        _expect(out, np.allclose(table.col("omega_p"), omega, rtol=TOL_GRID,
                                 atol=0), "omega_p column inconsistent with S")
        pops = table.data[:, [k for k, n in enumerate(table.names)
                              if n.startswith("pop_")]]
        _check_populations_block(out, pops)
        flags = table.col("inversion_flag")
        _expect(out, bool(np.all((flags == 0) | (flags == 1))),
                "inversion_flag is not 0/1")

    def _min_absorption_scan(self, s, table: Table, out: Outcome) -> None:
        grid = _grid(s.grid["omega_p"])
        w = table.col("omega_p")
        _expect(out, w.shape == grid.shape
                and np.allclose(w, grid, rtol=TOL_GRID, atol=0),
                "omega_p column differs from the requested grid")

    def _output_curve(self, s, table: Table, out: Outcome) -> None:
        grid = _grid(s.grid["pump"])
        i_in = table.col("I_z_in")
        _expect(out, i_in.shape == grid.shape
                and np.allclose(i_in, grid, rtol=TOL_GRID, atol=0),
                "I_z_in column differs from the requested grid")
        _expect(out, bool(np.all(table.col("I_x_out") >= 0)),
                "negative exit intensity")

    def _propagate(self, s, table: Table, out: Outcome) -> None:
        c = s.params["cell"]
        y = np.linspace(0.0, c["length_m"], c["grid_points"])
        _expect(out, table.col("y").shape == y.shape
                and np.allclose(table.col("y"), y, rtol=TOL_GRID, atol=0),
                "y column differs from the cell grid")
        if out.problems:
            return
        I_z, I_x = table.col("I_z"), table.col("I_x")
        _expect(out, bool(np.all(I_z >= 0) and np.all(I_x >= 0)),
                "negative intensity")
        if s.params["self_consistent"]:
            return
        ref = self._ref(s, lambda: _transport_reference(s.params))
        out.gap = max(_rel_gap(I_z, ref.I_z), _rel_gap(I_x, ref.I_x))
        _expect(out, out.gap <= TOL_TRANSPORT,
                f"numeric vs closed-form transport gap {out.gap:.3e}")


def digits(gap: float) -> float:
    """-log10 of a relative gap, clamped at 1e-12 (roundoff reads 12.0)."""
    return -math.log10(max(gap, 1e-12))
