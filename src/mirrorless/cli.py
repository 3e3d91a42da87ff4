"""Scenario-driven command line front end.

``simulate <config.ini>`` parses an INI scenario, dispatches one of the six
analysis workflows, and writes a machine-readable table (CSV by default, or
line-delimited JSON).  Atomic workflows run in scaled units (Gamma = 1); the
propagation workflows additionally require the [cell] section in SI units.

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
from dataclasses import dataclass, field, fields as _fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .dynamics import (build_liouvillian, equal_ground_state, evolve,
                       inversion_pair, inversion_scan, omega_from_saturation,
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

WORKFLOWS = ("populations", "inversion-scan", "spectrum",
             "min-absorption-scan", "propagate", "output-curve")

_SCHEMA: Dict[str, Dict[str, str]] = {
    "transition": {"f_ground": "float", "f_excited": "float",
                   "two_level": "bool"},
    "fields": {"omega_p": "float", "saturation": "float", "omega_pr": "float",
               "delta_p": "float", "delta_pr": "float", "offset": "float",
               "probe_polarization": "str"},
    "scan": {"workflow": "str",
             "t_final": "float", "t_points": "int",
             "s_min": "float", "s_max": "float", "s_points": "int",
             "s_scale": "str",
             "delta_min": "float", "delta_max": "float", "delta_points": "int",
             "omega_p_min": "float", "omega_p_max": "float",
             "omega_p_points": "int",
             "pump_min": "float", "pump_max": "float", "pump_points": "int",
             "input_intensity": "float", "seed_intensity": "float",
             "mode": "str", "self_consistent": "bool"},
    "cell": {"length_m": "float", "density_m3": "float",
             "gamma_rad_s": "float", "wavelength_m": "float",
             "beam_radius_m": "float", "grid_points": "int"},
    # evolve_tol is ignored; it still parses so that older scenario files run
    "numerics": {"evolve_tol": "float", "n_harmonics": "int"},
    "output": {"path": "str", "format": "str"},
}

_CELL_WORKFLOWS = ("propagate", "output-curve")
# [scan] keys that only the propagate workflow reads
_PROPAGATE_KEYS = ("mode", "self_consistent", "input_intensity",
                   "seed_intensity")
# INI keys whose ScenarioConfig field is named otherwise; every other
# scenario key names its field
_FIELD_OF_KEY = {"path": "output_path", "format": "output_format"}
# the CellConfig.pencil argument of each [cell] key
_CELL_ARG = {"length_m": "length", "density_m3": "density",
             "gamma_rad_s": "gamma_phys", "wavelength_m": "wavelength",
             "beam_radius_m": "beam_radius", "grid_points": "grid"}


class ConfigError(ValueError):
    """Invalid scenario configuration."""


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


_CONFIG_FIELDS = {f.name for f in _fields(ScenarioConfig)}


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


def _coerce(section: str, key: str, raw: str):
    kind = _SCHEMA[section][key]
    try:
        if kind == "float":
            value = float(raw)
            if np.isfinite(value):
                return value
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "bool":
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return raw.strip()
    except ValueError as exc:
        expected = "finite float" if kind == "float" else kind
        raise ConfigError(f"[{section}] {key} = {raw!r}: not a valid "
                          f"{expected}") from exc


def _grid(vals: Dict, prefix: str, scale: Optional[str] = None
          ) -> Optional[np.ndarray]:
    lo = vals.get(f"{prefix}_min")
    hi = vals.get(f"{prefix}_max")
    n = vals.get(f"{prefix}_points")
    given = [k for k, v in ((f"{prefix}_min", lo), (f"{prefix}_max", hi),
                            (f"{prefix}_points", n)) if v is not None]
    if not given:
        return None
    if len(given) != 3:
        raise ConfigError(f"grid '{prefix}' needs {prefix}_min, {prefix}_max "
                          f"and {prefix}_points (got only {', '.join(given)})")
    if n < 1:
        raise ConfigError(f"empty grid: {prefix}_points must be >= 1")
    if n > 1 and not hi > lo:
        raise ConfigError(f"grid '{prefix}' must be increasing "
                          f"({prefix}_min < {prefix}_max)")
    if scale == "log":
        if lo <= 0:
            raise ConfigError(f"log-scale grid '{prefix}' needs {prefix}_min > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _require_sign(vals: Dict, section: str, keys: Sequence[str],
                  positive: bool) -> None:
    for key in keys:
        v = vals.get(key)
        if v is not None and not (v > 0 if positive else v >= 0):
            raise ConfigError(f"[{section}] {key} = {v!r}: must be "
                              + ("positive" if positive else "nonnegative"))


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

    unknown = []
    vals: Dict[str, Dict] = {s: {} for s in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            unknown.append(f"[{section}]")
            continue
        for key, rawval in parser.items(section):
            if key not in _SCHEMA[section]:
                unknown.append(f"[{section}] {key}")
            else:
                vals[section][key] = _coerce(section, key, rawval)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))

    missing = []
    scan = vals["scan"]
    workflow = scan.get("workflow")
    if workflow is None:
        missing.append("[scan] workflow")
    elif workflow not in WORKFLOWS:
        raise ConfigError(f"unknown workflow {workflow!r}; expected one of "
                          + ", ".join(WORKFLOWS))

    tr = vals["transition"]
    two_level = tr.get("two_level")
    if not two_level:
        for key in ("f_ground", "f_excited"):
            if key not in tr and workflow is not None:
                missing.append(f"[transition] {key}")

    fl = vals["fields"]
    if "omega_p" in fl and "saturation" in fl:
        raise ConfigError(
            "[fields] omega_p and saturation are both given: overdetermined "
            "(S fixes omega_p at the given detuning)")
    if "delta_pr" in fl and "offset" in fl:
        raise ConfigError("[fields] delta_pr and offset are both given: "
                          "offset = delta_pr - delta_p is derived")

    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))
    stray = [k for k in _PROPAGATE_KEYS if k in scan]
    if stray and workflow != "propagate":
        raise ConfigError(f"[scan] {', '.join(stray)}: only valid for "
                          f"workflow 'propagate', not '{workflow}'")
    if scan.get("s_scale", "linear") not in ("linear", "log"):
        raise ConfigError(f"[scan] s_scale must be linear or log, got "
                          f"{scan['s_scale']!r}")
    if not two_level:
        try:
            build_scheme(tr["f_ground"], tr["f_excited"])
        except ValueError as exc:
            raise ConfigError(f"[transition] f_ground = {tr['f_ground']:g}, "
                              f"f_excited = {tr['f_excited']:g}: {exc}") from exc
    _require_sign(fl, "fields", ("saturation", "omega_p", "omega_pr"), False)
    _require_sign(scan, "scan", ("t_final",), True)
    _require_sign(scan, "scan", ("input_intensity", "seed_intensity", "s_min",
                                 "omega_p_min", "pump_min"), False)
    pump = [f"[fields] {k}" for k in ("omega_p", "saturation") if k in fl]
    if "input_intensity" in scan and pump:
        raise ConfigError(f"[scan] input_intensity and {pump[0]} are both "
                          f"given: either fixes the entry pump")

    # a key the file omits keeps the default of its ScenarioConfig field
    given = {_FIELD_OF_KEY.get(k, k): v for keys in vals.values()
             for k, v in keys.items()}
    cfg = ScenarioConfig(
        **{k: v for k, v in given.items() if k in _CONFIG_FIELDS},
        s_grid=_grid(scan, "s", scan.get("s_scale")),
        delta_grid=_grid(scan, "delta"),
        omega_p_grid=_grid(scan, "omega_p"),
        pump_grid=_grid(scan, "pump"),
        cell=_cell(vals["cell"], workflow),
        source_sha256=hashlib.sha256(raw).hexdigest())
    if "saturation" in fl:
        cfg.omega_p = float(omega_from_saturation(fl["saturation"],
                                                  cfg.delta_p))
    if "offset" in fl:
        cfg.delta_pr = cfg.delta_p + fl["offset"]
    _validate(cfg)
    return cfg


def _cell(cl: Dict, workflow: str) -> Optional[CellConfig]:
    """The [cell] section (SI units) as a CellConfig, None if absent."""
    if not cl:
        if workflow in _CELL_WORKFLOWS:
            raise ConfigError(f"workflow '{workflow}' requires the [cell] "
                              f"section")
        return None
    if workflow not in _CELL_WORKFLOWS:
        raise ConfigError(
            f"[cell] section is only valid for workflows "
            f"{', '.join(_CELL_WORKFLOWS)} (SI units); '{workflow}' runs "
            f"in scaled units")
    missing = [k for k in _CELL_ARG if k != "grid_points" and k not in cl]
    if missing:
        raise ConfigError("missing required [cell] keys: "
                          + ", ".join(missing))
    _require_sign(cl, "cell", [k for k in cl if k != "grid_points"], True)
    if "grid_points" in cl and cl["grid_points"] < 2:
        raise ConfigError("[cell] grid_points must be >= 2")
    try:
        return CellConfig.pencil(**{_CELL_ARG[k]: v for k, v in cl.items()})
    except ValueError as exc:
        raise ConfigError(f"[cell] {exc}") from exc


def _validate(cfg: ScenarioConfig) -> None:
    """Checks on the built config, where an omitted key holds its default."""
    if cfg.probe_polarization not in ("parallel", "perpendicular"):
        raise ConfigError(f"[fields] probe_polarization must be parallel or "
                          f"perpendicular, got {cfg.probe_polarization!r}")
    if cfg.n_harmonics < 1:
        raise ConfigError("[numerics] n_harmonics must be >= 1")
    if cfg.output_format not in ("csv", "json"):
        raise ConfigError(f"[output] format must be csv or json, got "
                          f"{cfg.output_format!r}")
    need = {
        "inversion-scan": ("s_grid", "s"),
        "spectrum": ("delta_grid", "delta"),
        "min-absorption-scan": ("omega_p_grid", "omega_p"),
        "output-curve": ("pump_grid", "pump"),
    }.get(cfg.workflow)
    if need and getattr(cfg, need[0]) is None:
        raise ConfigError(f"workflow '{cfg.workflow}' requires the "
                          f"[scan] {need[1]}_min/{need[1]}_max/{need[1]}_points grid")
    if cfg.workflow == "propagate" and cfg.input_intensity is None \
            and cfg.omega_p == 0.0:
        raise ConfigError("workflow 'propagate' needs [scan] input_intensity "
                          "or [fields] omega_p")
    if cfg.two_level and cfg.workflow != "spectrum":
        raise ConfigError("two_level = true is only meaningful for the "
                          "spectrum workflow")
    if cfg.two_level and cfg.probe_polarization != "parallel":
        raise ConfigError("the two-level reference atom has no orthogonal "
                          "polarization; set probe_polarization = parallel")
    if cfg.mode not in ("closed_form", "numeric"):
        raise ConfigError(f"[scan] mode must be closed_form or numeric, got "
                          f"{cfg.mode!r}")
    if cfg.self_consistent and cfg.mode != "numeric":
        raise ConfigError("[scan] self_consistent = true requires "
                          "mode = numeric")
    if cfg.workflow == "populations" and cfg.t_points < 2:
        raise ConfigError("empty grid: t_points must be >= 2")
    if cfg.workflow == "inversion-scan":
        scheme = cfg.scheme()
        try:
            inversion_pair(scheme)
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
        if abs(fields.delta) > 1e-12:
            raise ConfigError("populations workflow with a probe requires "
                              "offset = 0 (degenerate probe)")
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
    # DegenerateSteadyStateError and CorrelationWindowError are RuntimeErrors
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure ({cfg.workflow}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

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
