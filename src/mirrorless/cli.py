"""Scenario-driven command line front end.

``simulate <config.ini>`` parses an INI scenario, dispatches one of the six
analysis workflows, and writes a machine-readable table (CSV by default, or
line-delimited JSON).  Atomic workflows run in scaled units (Gamma = 1); the
propagation workflows additionally require the [cell] section in SI units.

Every scenario key is one row of ``_KEYS``: its type, the workflows that
read it, the ScenarioConfig field it sets and the constraint on its value.
A key outside the table, a value that breaks its row's constraint, and a
key that the chosen workflow does not read are configuration errors that
name the key.  Rules that compare several keys follow the table.

Exit codes: 0 success, 2 numerical failure, 3 configuration or usage
error.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .dynamics import (DegenerateSteadyStateError, build_liouvillian,
                       equal_ground_state, evolve, inversion_pair,
                       inversion_scan, omega_from_saturation,
                       pump_only_steady_state, steady_state)
from .levels import (FieldConfig, LevelScheme, build_collapse, build_scheme,
                     probe_raising, pump_hamiltonian, two_level_collapse,
                     two_level_hamiltonian)
from .propagation import CellConfig, output_curve, propagate
from .spectra import (correlation_spectrum, min_absorption_scan,
                      parallel_dipole, perpendicular_gain_spectrum,
                      two_level_dipole)

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_CONFIG = 3

# each workflow and the [scan] grid it cannot run without
WORKFLOWS = {"populations": None, "inversion-scan": "s", "spectrum": "delta",
             "min-absorption-scan": "omega_p", "propagate": None,
             "output-curve": "pump"}


class ConfigError(ValueError):
    """Invalid scenario configuration."""


class _Key(NamedTuple):
    """One scenario key; see ``_KEYS``."""

    kind: type     # float (finite), int, bool or str
    readers: str   # the workflows that read the key, or "all"
    target: Optional[str]
    check: object = None  # "positive", "nonnegative", a minimum or choices


_PUMPED = "populations spectrum propagate"
_SPECTRAL = "spectrum min-absorption-scan"
_MINABS = "min-absorption-scan"
_CELL = "propagate output-curve"

# [section] key: type, readers, target, constraint.  The target is the
# ScenarioConfig field the value sets, or "field.part" for a part of one: a
# grid's min/max/points/scale, a CellConfig.pencil argument, or the
# saturation or offset from which omega_p or delta_pr is derived.
_KEYS: Dict[str, Dict[str, _Key]] = {
    "transition": {
        "f_ground": _Key(float, "all", "f_ground"),
        "f_excited": _Key(float, "all", "f_excited"),
        "two_level": _Key(bool, "spectrum", "two_level")},
    "fields": {
        "omega_p": _Key(float, _PUMPED, "omega_p", "nonnegative"),
        "saturation": _Key(float, _PUMPED, "omega_p.saturation",
                           "nonnegative"),
        "omega_pr": _Key(float, "populations spectrum", "omega_pr",
                         "nonnegative"),
        "delta_p": _Key(float, "all", "delta_p"),
        "delta_pr": _Key(float, "populations", "delta_pr"),
        "offset": _Key(float, "populations", "delta_pr.offset"),
        "probe_polarization": _Key(str, "spectrum", "probe_polarization",
                                   ("parallel", "perpendicular"))},
    "scan": {
        "workflow": _Key(str, "all", "workflow", tuple(WORKFLOWS)),
        "t_final": _Key(float, "populations", "t_final", "positive"),
        "t_points": _Key(int, "populations", "t_points", 2),
        "s_min": _Key(float, "inversion-scan", "s_grid.min", "nonnegative"),
        "s_max": _Key(float, "inversion-scan", "s_grid.max"),
        "s_points": _Key(int, "inversion-scan", "s_grid.points", 1),
        "s_scale": _Key(str, "inversion-scan", "s_grid.scale",
                        ("linear", "log")),
        "delta_min": _Key(float, _SPECTRAL, "delta_grid.min"),
        "delta_max": _Key(float, _SPECTRAL, "delta_grid.max"),
        "delta_points": _Key(int, _SPECTRAL, "delta_grid.points", 1),
        "omega_p_min": _Key(float, _MINABS, "omega_p_grid.min",
                            "nonnegative"),
        "omega_p_max": _Key(float, _MINABS, "omega_p_grid.max"),
        "omega_p_points": _Key(int, _MINABS, "omega_p_grid.points", 1),
        "pump_min": _Key(float, "output-curve", "pump_grid.min",
                         "nonnegative"),
        "pump_max": _Key(float, "output-curve", "pump_grid.max"),
        "pump_points": _Key(int, "output-curve", "pump_grid.points", 1),
        "input_intensity": _Key(float, "propagate", "input_intensity",
                                "nonnegative"),
        "seed_intensity": _Key(float, "propagate", "seed_intensity",
                               "nonnegative"),
        "mode": _Key(str, "propagate", "mode", ("closed_form", "numeric")),
        "self_consistent": _Key(bool, "propagate", "self_consistent")},
    "cell": {
        "length_m": _Key(float, _CELL, "cell.length", "positive"),
        "density_m3": _Key(float, _CELL, "cell.density", "positive"),
        "gamma_rad_s": _Key(float, _CELL, "cell.gamma_phys", "positive"),
        "wavelength_m": _Key(float, _CELL, "cell.wavelength", "positive"),
        "beam_radius_m": _Key(float, _CELL, "cell.beam_radius", "positive"),
        "grid_points": _Key(int, _CELL, "cell.grid", 2)},
    "numerics": {
        # read by no workflow, yet accepted by all: the benchmark's
        # evolution scenarios (perfbench/scenarios.py) still write it
        "evolve_tol": _Key(float, "all", None),
        "n_harmonics": _Key(int, "spectrum", "n_harmonics", 1)},
    "output": {
        "path": _Key(str, "all", "output_path"),
        "format": _Key(str, "all", "output_format", ("csv", "json"))},
}


@dataclass
class ScenarioConfig:
    """Validated scenario: transition, fields, scan grids, cell, numerics."""

    workflow: str
    f_ground: float = 1.0
    f_excited: float = 2.0
    two_level: bool = False
    omega_p: float = 0.0
    omega_pr: float = 0.0
    delta_p: float = 0.0
    delta_pr: Optional[float] = None
    probe_polarization: str = "perpendicular"
    t_final: float = 50.0
    t_points: int = 201
    s_grid: Optional[np.ndarray] = None
    delta_grid: Optional[np.ndarray] = None
    omega_p_grid: Optional[np.ndarray] = None
    pump_grid: Optional[np.ndarray] = None
    input_intensity: Optional[float] = None
    seed_intensity: float = 0.0
    mode: str = "closed_form"
    self_consistent: bool = False
    cell: Optional[CellConfig] = None
    n_harmonics: int = 2
    output_path: Optional[str] = None
    output_format: str = "csv"
    source_sha256: str = ""

    def fields(self) -> FieldConfig:
        delta_pr = self.delta_p if self.delta_pr is None else self.delta_pr
        return FieldConfig(omega_p=self.omega_p, omega_pr=self.omega_pr,
                           delta_p=self.delta_p, delta_pr=delta_pr)

    def scheme(self) -> LevelScheme:
        return build_scheme(self.f_ground, self.f_excited)


@dataclass
class ResultTable:
    """Result as one float array: ``rows[i, k]`` is row i of column k, whose
    (name, unit) is ``columns[k]``, plus a provenance block. A column of unit
    ``bool`` holds 0.0 or 1.0 and prints as 0 or 1."""

    columns: List[Tuple[str, str]]
    rows: np.ndarray
    provenance: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise ValueError(f"result table of shape {self.rows.shape} for "
                             f"{len(self.columns)} columns")

    def write_csv(self, fh) -> None:
        cells = self.rows.astype(object)  # Python floats: repr is the text
        flags = [k for k, (_, unit) in enumerate(self.columns)
                 if unit == "bool"]
        cells[:, flags] = self.rows[:, flags].astype(int)
        lines = [f"# {key}: {val}" for key, val in self.provenance.items()]
        lines.append(",".join(name for name, _ in self.columns))
        lines.append(",".join(f"[{unit}]" for _, unit in self.columns))
        lines += [",".join(map(repr, row)) for row in cells.tolist()]
        fh.write("\n".join(lines) + "\n")

    def write_json(self, fh) -> None:
        names = [n for n, _ in self.columns]
        lines = [json.dumps({"provenance": self.provenance,
                             "units": dict(self.columns)}, sort_keys=True)]
        lines += [json.dumps(dict(zip(names, row)), sort_keys=True)
                  for row in self.rows.tolist()]
        fh.write("\n".join(lines) + "\n")


def _value(section: str, key: str, text: str):
    """``text`` as the key's type, checked against its constraint."""
    row = _KEYS[section][key]
    try:
        if row.kind is bool:
            value = configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        else:
            value = row.kind(text)
        if row.kind is float and not np.isfinite(value):
            raise ValueError(text)
    except (KeyError, ValueError) as exc:
        expected = "finite float" if row.kind is float else row.kind.__name__
        raise ConfigError(f"[{section}] {key} = {text!r}: not a valid "
                          f"{expected}") from exc
    rule = row.check
    if isinstance(rule, tuple):
        ok, rule = value in rule, "one of " + ", ".join(rule)
    elif isinstance(rule, int):
        ok, rule = value >= rule, f">= {rule}"
    else:
        ok = rule is None or (value > 0 if rule == "positive" else value >= 0)
    if not ok:
        raise ConfigError(f"[{section}] {key} = {value!r}: must be {rule}")
    return value


def _grid(name: str, parts: Dict) -> np.ndarray:
    """The grid ``<prefix>_grid`` from its min, max, points and scale."""
    prefix = name[:-len("_grid")]
    lo, hi, n = parts["min"], parts["max"], parts["points"]
    if n > 1 and not hi > lo:
        raise ConfigError(f"grid '{prefix}' must be increasing "
                          f"({prefix}_min < {prefix}_max)")
    if parts.get("scale") == "log":
        if lo <= 0:
            raise ConfigError(f"log-scale grid '{prefix}' needs {prefix}_min > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def parse_config(path: str) -> ScenarioConfig:
    """Read and validate a scenario file (INI key = value sections)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    workflow = parser.get("scan", "workflow", fallback=None)
    if workflow is None:
        raise ConfigError("missing required keys: [scan] workflow")
    workflow = _value("scan", "workflow", workflow)
    unknown = []
    config: Dict = {}              # ScenarioConfig field -> value
    parts: Dict[str, Dict] = {}    # ScenarioConfig field -> its parts
    for section in parser.sections():
        if section not in _KEYS:
            unknown.append(f"[{section}]")
            continue
        for key, text in parser.items(section):
            row = _KEYS[section].get(key)
            if row is None:
                unknown.append(f"[{section}] {key}")
                continue
            value = _value(section, key, text)
            if row.readers != "all" and workflow not in row.readers.split():
                raise ConfigError(
                    f"[{section}] {key} is not read by workflow "
                    f"'{workflow}', only by {', '.join(row.readers.split())}"
                    + (f"; '{workflow}' runs in scaled units"
                       if section == "cell" else ""))
            if row.target is not None:
                name, _, part = row.target.partition(".")
                if part:
                    parts.setdefault(name, {})[part] = value
                else:
                    config[name] = value
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))

    given = parser.has_option
    if given("fields", "omega_p") and given("fields", "saturation"):
        raise ConfigError(
            "[fields] omega_p and saturation are both given: overdetermined "
            "(S fixes omega_p at the given detuning)")
    if given("fields", "delta_pr") and given("fields", "offset"):
        raise ConfigError("[fields] delta_pr and offset are both given: "
                          "offset = delta_pr - delta_p is derived")
    two_level = config.get("two_level", False)
    required = [] if two_level else [("transition", "f_ground"),
                                     ("transition", "f_excited")]
    # the workflow's own grid and any grid the file begins need all three
    grids = [WORKFLOWS[workflow]] + [n[:-len("_grid")] for n in parts
                                     if n.endswith("_grid")]
    required += [("scan", f"{g}_{p}") for g in dict.fromkeys(grids) if g
                 for p in ("min", "max", "points")]
    if workflow in _CELL.split():
        required += [("cell", k) for k in _KEYS["cell"] if k != "grid_points"]
    missing = [f"[{s}] {k}" for s, k in required if not given(s, k)]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))
    if not two_level:
        try:
            build_scheme(config["f_ground"], config["f_excited"])
        except ValueError as exc:
            raise ConfigError(f"[transition] f_ground = "
                              f"{config['f_ground']:g}, f_excited = "
                              f"{config['f_excited']:g}: {exc}") from exc
    pump = [f"[fields] {k}" for k in ("omega_p", "saturation")
            if given("fields", k)]
    if given("scan", "input_intensity") and pump:
        raise ConfigError(f"[scan] input_intensity and {pump[0]} are both "
                          f"given: either fixes the entry pump")

    try:
        cell = CellConfig.pencil(**parts["cell"]) if "cell" in parts else None
    except ValueError as exc:
        raise ConfigError(f"[cell] {exc}") from exc
    cfg = ScenarioConfig(**config, cell=cell,
                         **{n: _grid(n, p) for n, p in parts.items()
                            if n.endswith("_grid")},
                         source_sha256=hashlib.sha256(raw).hexdigest())
    if "omega_p" in parts:
        cfg.omega_p = float(omega_from_saturation(
            parts["omega_p"]["saturation"], cfg.delta_p))
    if "delta_pr" in parts:
        cfg.delta_pr = cfg.delta_p + parts["delta_pr"]["offset"]
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig) -> None:
    """Checks on the built config, where an omitted key holds its default."""
    if cfg.workflow == "propagate" and cfg.input_intensity is None \
            and cfg.omega_p == 0.0:
        raise ConfigError("workflow 'propagate' needs [scan] input_intensity "
                          "or [fields] omega_p")
    if cfg.two_level and cfg.probe_polarization != "parallel":
        raise ConfigError("the two-level reference atom has no orthogonal "
                          "polarization; set probe_polarization = parallel")
    if cfg.self_consistent and cfg.mode != "numeric":
        raise ConfigError("[scan] self_consistent = true requires "
                          "mode = numeric")
    # only populations reads delta_pr and offset, so only it can fail here
    if cfg.omega_pr > 0 and abs(cfg.fields().delta) > 1e-12:
        raise ConfigError("populations workflow with a probe requires "
                          "offset = 0 (degenerate probe)")
    if cfg.workflow == "inversion-scan":
        try:
            inversion_pair(cfg.scheme())
        except ValueError as exc:
            raise ConfigError(f"[transition] {exc}") from exc


def _sublevel_label(scheme: LevelScheme, i: int) -> str:
    man, m = scheme.sublevels[i]
    return f"{'e' if man == 'excited' else 'g'}{m:+.0f}" if float(m).is_integer() \
        else f"{'e' if man == 'excited' else 'g'}{m:+.1f}"


def _run_populations(cfg: ScenarioConfig) -> ResultTable:
    scheme = cfg.scheme()
    fields = cfg.fields()
    if cfg.omega_pr > 0:
        Vx = probe_raising(scheme) * cfg.omega_pr
        H = pump_hamiltonian(scheme, fields.omega_p, fields.delta_p) \
            + 0.5 * (Vx + Vx.conj().T)
    else:
        H = pump_hamiltonian(scheme, fields.omega_p, fields.delta_p)
    L = build_liouvillian(H, build_collapse(scheme))
    ev = evolve(L, equal_ground_state(scheme), cfg.t_final,
                n_samples=cfg.t_points)
    return _populations_table(scheme, ev)


def _populations_table(scheme: LevelScheme, ev) -> ResultTable:
    """Time, every population, then (re, im) of every sigma coherence."""
    cols: List[Tuple[str, str]] = [("t", "1/Gamma")]
    cols += [(f"pop_{_sublevel_label(scheme, i)}", "1")
             for i in range(scheme.dim)]
    sigma_pairs = [(e, g) for g in scheme.ground_indices
                   for e in scheme.excited_indices
                   if abs(scheme.m_of(e) - scheme.m_of(g)) == 1]
    for e, g in sigma_pairs:
        lbl = f"{_sublevel_label(scheme, e)}_{_sublevel_label(scheme, g)}"
        cols += [(f"re_rho_{lbl}", "1"), (f"im_rho_{lbl}", "1")]
    diag = np.arange(scheme.dim)
    sigma = ev.states[:, [e for e, _ in sigma_pairs],
                      [g for _, g in sigma_pairs]]
    # (re, im) of each pair side by side, in the order of the columns
    reim = np.stack([sigma.real, sigma.imag], axis=-1)
    return ResultTable(columns=cols, rows=np.column_stack(
        [ev.times, ev.states[:, diag, diag].real,
         reim.reshape(len(ev.times), -1)]))


def _run_inversion_scan(cfg: ScenarioConfig) -> ResultTable:
    scheme = cfg.scheme()
    scan = inversion_scan(scheme, cfg.delta_p, cfg.s_grid)
    cols = [("S", "1"), ("omega_p", "Gamma")]
    cols += [(f"pop_{_sublevel_label(scheme, i)}", "1")
             for i in range(scheme.dim)]
    cols += [("inversion_flag", "bool")]
    rows = np.column_stack([_columns(scan.points, "S", "omega_p"),
                            [p.populations for p in scan.points],
                            _columns(scan.points, "inverted")])
    prov = {}
    if scan.s_star is not None:
        prov["s_star"] = repr(float(scan.s_star))
    return ResultTable(columns=cols, rows=rows, provenance=prov)


def _run_spectrum(cfg: ScenarioConfig) -> ResultTable:
    delta_grid = cfg.delta_grid
    if cfg.two_level:
        H = two_level_hamiltonian(cfg.omega_p, cfg.delta_p)
        L = build_liouvillian(H, two_level_collapse())
        rho = steady_state(L)
        spec = correlation_spectrum(L, rho, two_level_dipole(), delta_grid)
        return ResultTable(columns=[("delta", "Gamma"), ("absorption", "arb")],
                           rows=np.column_stack([spec.delta, spec.absorption]))
    scheme = cfg.scheme()
    if cfg.probe_polarization == "parallel":
        rho, L = pump_only_steady_state(scheme, cfg.omega_p, cfg.delta_p)
        spec = correlation_spectrum(L, rho, parallel_dipole(scheme),
                                    delta_grid)
        return ResultTable(columns=[("delta", "Gamma"), ("absorption", "arb")],
                           rows=np.column_stack([spec.delta, spec.absorption]))
    pg = perpendicular_gain_spectrum(scheme, cfg.fields(), delta_grid,
                                     n_harmonics=cfg.n_harmonics)
    return ResultTable(
        columns=[("delta", "Gamma"), ("absorption", "arb"),
                 ("absorption_weak_probe", "arb")],
        rows=np.column_stack([pg.delta, pg.absorption,
                              pg.weak_probe_absorption]))


def _run_min_absorption(cfg: ScenarioConfig) -> ResultTable:
    scan = min_absorption_scan(cfg.scheme(), cfg.delta_p, cfg.omega_p_grid,
                               delta_grid=cfg.delta_grid)
    return ResultTable(columns=[("omega_p", "Gamma"),
                                ("min_absorption", "arb"),
                                ("delta_at_min", "Gamma")],
                       rows=_columns(scan.points, "omega_p", "min_absorption",
                                     "delta_at_min"))


def _run_propagate(cfg: ScenarioConfig) -> ResultTable:
    cell = cfg.cell
    fields = FieldConfig(omega_p=cfg.omega_p, omega_pr=0.0,
                         delta_p=cfg.delta_p, delta_pr=cfg.delta_p)
    # with input_intensity, omega_p is 0 and propagate derives it from I0
    I0 = (cell.intensity_from_omega_p(cfg.omega_p)
          if cfg.input_intensity is None else cfg.input_intensity)
    prof = propagate(cell, cfg.scheme(), fields, I_z0=I0,
                     I_x0=cfg.seed_intensity, mode=cfg.mode,
                     self_consistent=cfg.self_consistent)
    cols = [("y", "m"), ("I_z", "W/m^2"), ("I_x", "W/m^2"),
            ("alpha_z", "1/m"), ("alpha_x", "1/m"),
            ("Gamma_z", "1/s"), ("Gamma_x", "1/s")]
    rows = np.column_stack([prof.y, prof.I_z, prof.I_x, prof.alpha_z,
                            prof.alpha_x, prof.Gamma_z, prof.Gamma_x])
    prov = {"clamped": str(prof.clamped).lower()}
    return ResultTable(columns=cols, rows=rows, provenance=prov)


def _run_output_curve(cfg: ScenarioConfig) -> ResultTable:
    points = output_curve(cfg.cell, cfg.scheme(), cfg.pump_grid, cfg.delta_p)
    return ResultTable(columns=[("I_z_in", "W/m^2"), ("omega_p", "Gamma"),
                                ("I_x_out", "W/m^2")],
                       rows=_columns(points, "I_z_in", "omega_p", "I_x_out"))


def _columns(points, *attrs) -> np.ndarray:
    """One column per attribute of a list of result points."""
    return np.column_stack([[getattr(p, a) for p in points] for a in attrs])


def run(cfg: ScenarioConfig) -> ResultTable:
    """Execute the selected workflow and attach provenance."""
    t0 = time.perf_counter()
    dispatch = {
        "populations": _run_populations,
        "inversion-scan": _run_inversion_scan,
        "spectrum": _run_spectrum,
        "min-absorption-scan": _run_min_absorption,
        "propagate": _run_propagate,
        "output-curve": _run_output_curve,
    }
    table = dispatch[cfg.workflow](cfg)
    prov = {"tool": f"mirrorless {__version__}",
            "workflow": cfg.workflow,
            "config_sha256": cfg.source_sha256}
    prov.update(table.provenance)
    prov["wall_time_s"] = f"{time.perf_counter() - t0:.3f}"
    table.provenance = prov
    return table


def _cannot_write(path: str, reason) -> int:
    print(f"config error: cannot write output {path}: {reason}",
          file=sys.stderr)
    return EXIT_CONFIG


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run one analysis workflow of the mirrorless-lasing "
                    "simulator from an INI scenario file.")
    parser.add_argument("config", help="path to the scenario .ini file")
    parser.add_argument("--output", help="output file (default: [output] "
                                         "path from the config, else stdout)")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="override the output format")
    parser.add_argument("--threads", type=int, default=1,
                        help="ignored; accepted so that older command "
                             "lines still run (grids run serially)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; it exits 0 after --help and 2,
        # this program's numerical-failure code, on a usage error
        if exc.code == 0:
            raise
        return EXIT_CONFIG

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # an output path that cannot be written fails before the computation;
    # the write below still catches what these checks cannot see
    fmt = args.format or cfg.output_format
    path = args.output or cfg.output_path
    if path and os.path.isdir(path):
        return _cannot_write(path, "is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        return _cannot_write(path, "its directory does not exist")

    try:
        table = run(cfg)
    except DegenerateSteadyStateError as exc:
        print(f"numerical failure ({cfg.workflow}): the F_g = "
              f"{cfg.f_ground:g} -> F_e = {cfg.f_excited:g} line has no "
              f"unique steady state (null space of dimension "
              f"{exc.dimension}): the line is undriven, or it is an "
              f"F -> F-1 line with dark states; the populations workflow "
              f"runs on such a line", file=sys.stderr)
        return EXIT_NUMERICAL
    # CorrelationWindowError is a RuntimeError
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure ({cfg.workflow}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                table.write_csv(fh) if fmt == "csv" else table.write_json(fh)
        except OSError as exc:
            return _cannot_write(path, exc)
    else:
        table.write_csv(sys.stdout) if fmt == "csv" \
            else table.write_json(sys.stdout)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
