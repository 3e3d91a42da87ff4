"""Config parsing, workflow dispatch, output format, exit codes."""

import importlib.util
import io
import json
import re
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from mirrorless.cli import (_KEYS, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                            WORKFLOWS, ConfigError, ResultTable,
                            ScenarioConfig, parse_config, run)
from mirrorless import build_liouvillian, correlation_spectrum, steady_state
from oracles import (table_csv_oracle, table_json_oracle, two_level_collapse,
                     two_level_dipole, two_level_hamiltonian)

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ROOT / "presets"


def write_config(tmp_path, body, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(body, encoding="utf-8")
    return str(p)


MINIMAL_POPULATIONS = """
[transition]
f_ground = 1
f_excited = 2

[fields]
saturation = 36
delta_p = 0

[scan]
workflow = populations
t_final = 2
t_points = 5
"""


def test_minimal_config_parses_and_roundtrips(tmp_path):
    path = write_config(tmp_path, MINIMAL_POPULATIONS)
    cfg = parse_config(path)
    assert cfg.workflow == "populations"
    assert cfg.omega_p == pytest.approx(3.0)  # from S = 36 at resonance
    # round-trip through serialization: rewrite the parsed values and reparse
    body = (f"[transition]\nf_ground = {cfg.f_ground}\n"
            f"f_excited = {cfg.f_excited}\n\n"
            f"[fields]\nomega_p = {cfg.omega_p!r}\ndelta_p = {cfg.delta_p!r}\n\n"
            f"[scan]\nworkflow = {cfg.workflow}\nt_final = {cfg.t_final!r}\n"
            f"t_points = {cfg.t_points}\n")
    cfg2 = parse_config(write_config(tmp_path, body, "roundtrip.ini"))
    for attr in ("workflow", "f_ground", "f_excited", "omega_p", "delta_p",
                 "t_final", "t_points"):
        assert getattr(cfg2, attr) == getattr(cfg, attr)


def test_overdetermined_saturation_rejected(tmp_path):
    body = MINIMAL_POPULATIONS.replace("saturation = 36",
                                       "saturation = 36\nomega_p = 3")
    with pytest.raises(ConfigError, match="overdetermined"):
        parse_config(write_config(tmp_path, body))


def test_unknown_keys_rejected(tmp_path):
    body = MINIMAL_POPULATIONS + "\n[output]\npath2 = x\n"
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config(write_config(tmp_path, body))
    body = MINIMAL_POPULATIONS.replace("delta_p = 0", "delta_p = 0\ndelta = 1")
    with pytest.raises(ConfigError, match="unknown"):
        parse_config(write_config(tmp_path, body))


def test_missing_keys_listed_collectively(tmp_path):
    body = "[scan]\nworkflow = populations\n"
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, body))
    msg = str(err.value)
    assert "f_ground" in msg and "f_excited" in msg


def test_empty_grid_names_offending_key(tmp_path):
    body = """
[transition]
f_ground = 1
f_excited = 2

[scan]
workflow = inversion-scan
s_min = 1
s_max = 10
s_points = 0
"""
    with pytest.raises(ConfigError, match="s_points"):
        parse_config(write_config(tmp_path, body))


def test_cell_section_boundary(tmp_path):
    body = MINIMAL_POPULATIONS + """
[cell]
length_m = 0.1
density_m3 = 1e16
gamma_rad_s = 3.5e7
wavelength_m = 780e-9
beam_radius_m = 1e-3
"""
    with pytest.raises(ConfigError, match="scaled units"):
        parse_config(write_config(tmp_path, body))


def test_delta_pr_offset_exclusive(tmp_path):
    body = MINIMAL_POPULATIONS.replace(
        "delta_p = 0", "delta_p = 0\ndelta_pr = 0\noffset = 0")
    with pytest.raises(ConfigError, match="derived"):
        parse_config(write_config(tmp_path, body))


def test_exit_codes_via_entry_point(tmp_path):
    from mirrorless.cli import main
    ok = write_config(tmp_path, MINIMAL_POPULATIONS)
    out = tmp_path / "out.csv"
    assert main([ok, "--output", str(out)]) == EXIT_OK
    assert out.exists()
    bad = write_config(tmp_path, "[scan]\nworkflow = nope\n", "bad.ini")
    assert main([bad, "--output", str(out)]) == EXIT_CONFIG
    assert main([str(tmp_path / "missing.ini")]) == EXIT_CONFIG
    # numerical failure: undriven inversion scan hits the degenerate null
    # space (S = 0 -> no pump)
    numfail = write_config(tmp_path, """
[transition]
f_ground = 1
f_excited = 2

[scan]
workflow = inversion-scan
s_min = 0
s_max = 0
s_points = 1
""", "numfail.ini")
    assert main([numfail, "--output", str(out)]) == EXIT_NUMERICAL


@pytest.mark.parametrize("argv, message", [(["x.ini", "--bogus"],
                                             "unrecognized arguments"),
                                            ([], "required")])
def test_usage_errors_exit_config_error(argv, message, capsys):
    from mirrorless.cli import main
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_csv_output_shape(tmp_path):
    from mirrorless.cli import main
    path = write_config(tmp_path, MINIMAL_POPULATIONS)
    out = tmp_path / "table.csv"
    assert main([path, "--output", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    provenance = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    assert any("tool:" in l for l in provenance)
    # the embedded hash identifies the exact config that produced the table
    import hashlib
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    hash_line = next(l for l in provenance if "config_sha256" in l)
    assert hash_line.split(":")[1].strip() == digest
    header, units = data[0].split(","), data[1].split(",")
    assert len(header) == len(units)
    assert header[0] == "t" and units[0] == "[1/Gamma]"
    assert len(data) - 2 == 5  # t_points rows
    for row in data[2:]:
        assert len(row.split(",")) == len(header)


def test_json_output(tmp_path):
    from mirrorless.cli import main
    path = write_config(tmp_path, MINIMAL_POPULATIONS)
    out = tmp_path / "table.jsonl"
    assert main([path, "--output", str(out), "--format", "json"]) == EXIT_OK
    lines = out.read_text().splitlines()
    head = json.loads(lines[0])
    assert "provenance" in head and "units" in head
    rec = json.loads(lines[1])
    assert rec["t"] == 0.0


def _strip_wall_time(text):
    return "\n".join(l for l in text.splitlines()
                     if not l.startswith("# wall_time_s"))


def test_determinism_bit_identical(tmp_path):
    from mirrorless.cli import main
    path = write_config(tmp_path, MINIMAL_POPULATIONS)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([path, "--output", str(out1)]) == EXIT_OK
    assert main([path, "--output", str(out2)]) == EXIT_OK
    a = _strip_wall_time(out1.read_text())
    b = _strip_wall_time(out2.read_text())
    assert a == b  # byte-identical apart from the wall-time line


def test_threads_do_not_change_results(tmp_path):
    body = """
[transition]
f_ground = 1
f_excited = 2

[fields]
delta_p = 0.75

[scan]
workflow = min-absorption-scan
omega_p_min = 0.5
omega_p_max = 2.0
omega_p_points = 4
"""
    from mirrorless.cli import main
    path = write_config(tmp_path, body)
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main([path, "--output", str(out1), "--threads", "1"]) == EXIT_OK
    assert main([path, "--output", str(out2), "--threads", "4"]) == EXIT_OK
    assert _strip_wall_time(out1.read_text()) == _strip_wall_time(out2.read_text())


MINIMAL_SPECTRUM = """
[transition]
f_ground = 1
f_excited = 2

[fields]
omega_p = 3
delta_p = 0.5

[scan]
workflow = spectrum
delta_min = -4
delta_max = 4
delta_points = 9
"""

IGNORED_NUMERICS_KEYS = """
[numerics]
evolve_tol = 1e-3
"""


def test_ignored_numerics_keys_change_nothing(tmp_path):
    from mirrorless.cli import main
    for name, body in [("populations", MINIMAL_POPULATIONS),
                       ("spectrum", MINIMAL_SPECTRUM)]:
        plain = write_config(tmp_path, body, f"{name}.ini")
        legacy = write_config(tmp_path, body + IGNORED_NUMERICS_KEYS,
                              f"{name}_legacy.ini")
        out1, out2 = tmp_path / f"{name}.csv", tmp_path / f"{name}_legacy.csv"
        assert main([plain, "--output", str(out1)]) == EXIT_OK
        assert main([legacy, "--output", str(out2)]) == EXIT_OK
        # the config hash names the input file, which differs by design
        a, b = (_strip_wall_time(o.read_text()).splitlines()
                for o in (out1, out2))
        assert [l for l in a if not l.startswith("# config_sha256")] == \
            [l for l in b if not l.startswith("# config_sha256")]
        assert len(a) > 5


MINIMAL_PROPAGATE = """
[transition]
f_ground = 1
f_excited = 2

[fields]
omega_p = 0.4
delta_p = 0.75

[scan]
workflow = propagate
mode = closed_form

[cell]
length_m = 0.1
density_m3 = 1e16
gamma_rad_s = 3.5e7
wavelength_m = 780e-9
beam_radius_m = 1e-3
grid_points = 11
"""


MINIMAL_INVERSION = """
[transition]
f_ground = 1
f_excited = 2

[scan]
workflow = inversion-scan
s_min = 1
s_max = 10
s_points = 3
"""


INVALID_VALUES = [
    (MINIMAL_POPULATIONS, "saturation = 36", "saturation = -1", "saturation"),
    (MINIMAL_POPULATIONS, "saturation = 36", "omega_p = -2", "omega_p"),
    (MINIMAL_POPULATIONS, "t_final = 2", "t_final = -5", "t_final"),
    (MINIMAL_POPULATIONS, "f_excited = 2", "f_excited = 3", "f_excited"),
    # both integer or both half-integer, never a traceback
    (MINIMAL_POPULATIONS, "f_ground = 1", "f_ground = 1.5",
     "F_g=1.5 -> F_e=2.0"),
    (MINIMAL_POPULATIONS, "f_excited = 2", "f_excited = 1.2",
     "F_g=1.0 -> F_e=1.2"),
    # a '%' is a character, not an interpolation
    (MINIMAL_POPULATIONS, "delta_p = 0", "delta_p = 5%", "delta_p = '5%'"),
    (MINIMAL_PROPAGATE, "length_m = 0.1", "length_m = -0.1", "length_m"),
    (MINIMAL_PROPAGATE, "mode = closed_form",
     "mode = closed_form\ninput_intensity = -5", "input_intensity"),
    # the entry pump is given once: by intensity or by Rabi frequency
    (MINIMAL_PROPAGATE, "mode = closed_form",
     "mode = closed_form\ninput_intensity = 5.0",
     "[scan] input_intensity and [fields] omega_p"),
    (MINIMAL_PROPAGATE, "mode = closed_form", "mode = bogus", "mode"),
    (MINIMAL_PROPAGATE, "mode = closed_form",
     "mode = closed_form\nself_consistent = true", "self_consistent"),
    (MINIMAL_SPECTRUM, "delta_points = 9",
     "delta_points = 9\n[numerics]\nn_harmonics = 0", "n_harmonics"),
    # non-finite numbers are rejected when parsed, before any solver sees them
    (MINIMAL_PROPAGATE, "omega_p = 0.4", "omega_p = inf", "omega_p"),
    (MINIMAL_PROPAGATE, "delta_p = 0.75", "delta_p = nan", "delta_p"),
    (MINIMAL_SPECTRUM, "delta_max = 4", "delta_max = inf", "delta_max"),
    # keys no longer accepted: an old scenario file exits 3 naming them
    (MINIMAL_SPECTRUM, "delta_points = 9",
     "delta_points = 9\n[numerics]\ndecay_rel_tol = 1e-2", "decay_rel_tol"),
    (MINIMAL_SPECTRUM, "delta_points = 9",
     "delta_points = 9\n[numerics]\nt_max_correlation = 5",
     "t_max_correlation"),
    # the inversion criterion compares excited m = 0 with ground m = +-1
    (MINIMAL_INVERSION, "f_ground = 1\nf_excited = 2",
     "f_ground = 0.5\nf_excited = 1.5", "F_g = 0.5 -> F_e = 1.5"),
    (MINIMAL_INVERSION, "f_ground = 1\nf_excited = 2",
     "f_ground = 1.5\nf_excited = 2.5", "F_g = 1.5 -> F_e = 2.5"),
    (MINIMAL_INVERSION, "f_ground = 1\nf_excited = 2",
     "f_ground = 0\nf_excited = 1", "F_g = 0 -> F_e = 1"),
    # a misspelt scale would otherwise give a linear grid
    (MINIMAL_INVERSION, "s_points = 3", "s_points = 3\ns_scale = logarithmic",
     "s_scale"),
    # keys that only the propagate workflow reads
    (MINIMAL_SPECTRUM, "delta_points = 9", "delta_points = 9\nmode = numeric",
     "mode"),
    # the cell is given by wavelength and beam radius only
    (MINIMAL_PROPAGATE, "grid_points = 11",
     "grid_points = 11\nsolid_angle_sr = 0.01", "solid_angle_sr"),
    # S fixes omega_p^2 = S (1/4 + delta_p^2), which overflows here
    (MINIMAL_POPULATIONS, "delta_p = 0", "delta_p = 1e200", "saturation"),
]


@pytest.mark.parametrize("base, old, new, key", INVALID_VALUES,
                         ids=[c[2].splitlines()[-1] for c in INVALID_VALUES])
def test_invalid_values_exit_config_error(tmp_path, capsys, base, old, new,
                                          key):
    from mirrorless.cli import main
    assert old in base
    path = write_config(tmp_path, base.replace(old, new))
    assert main([path, "--output", str(tmp_path / "out.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize("workflow", ["spectrum", "min-absorption-scan"])
def test_overflowing_grid_exits_config_error(tmp_path, capsys, workflow):
    # both ends are finite, but the span between them overflows, so the
    # offsets would be non-finite: the spectrum died with a traceback and
    # the minimum scan wrote nan
    from mirrorless.cli import main
    body = re.sub(r"delta_\w+ = .*\n", "", scenario_text(workflow)).replace(
        "[scan]\n", "[scan]\ndelta_min = -1e308\ndelta_max = 1e308\n"
                     "delta_points = 3\n")
    path = write_config(tmp_path, body)
    assert main([path, "--output", str(tmp_path / "out.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == ("config error: grid 'delta' has a non-finite point: the "
                   "span delta_max - delta_min overflows\n")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("via", ["option", "config"])
@pytest.mark.parametrize("target", ["missing/out.csv", ""],
                         ids=["missing-directory", "directory"])
def test_unwritable_output_exits_config_error(tmp_path, capsys, monkeypatch,
                                              via, target):
    # a path that cannot be opened for writing, whether given by --output
    # or by [output] path, is a configuration error, not a traceback, and
    # it is found before the computation runs
    from mirrorless.cli import main
    calls = []
    monkeypatch.setattr("mirrorless.cli.run", calls.append)
    out = tmp_path / target
    body = MINIMAL_POPULATIONS
    argv = ["--output", str(out)]
    if via == "config":
        body, argv = body + f"\n[output]\npath = {out}\n", []
    assert main([write_config(tmp_path, body)] + argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output {out}: ")
    assert calls == []


def test_non_utf8_config_exits_config_error(tmp_path, capsys):
    from mirrorless.cli import main
    path = tmp_path / "latin1.ini"
    path.write_bytes(MINIMAL_POPULATIONS.replace("delta_p = 0",
                                                 "delta_p = 0 # \u00b5")
                     .encode("latin-1"))
    assert main([str(path), "--output", str(tmp_path / "out.csv")]) \
        == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(path) in err


@pytest.mark.parametrize("name", ["out%d.csv", "out.%(format)s"])
def test_percent_in_output_path_is_literal(tmp_path, name):
    # no interpolation: the file is written under the name as given
    from mirrorless.cli import main
    out = tmp_path / name
    body = MINIMAL_POPULATIONS + f"\n[output]\nformat = csv\npath = {out}\n"
    assert main([write_config(tmp_path, body)]) == EXIT_OK
    assert out.exists()


def test_default_section_is_unknown(tmp_path, capsys):
    # [DEFAULT] is an ordinary section, not merged into the others
    from mirrorless.cli import main
    body = "[DEFAULT]\nformat = csv\n" + MINIMAL_POPULATIONS
    path = write_config(tmp_path, body)
    assert main([path, "--output", str(tmp_path / "out.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "config error: unknown config keys: [DEFAULT]\n"


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "mirrorless.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "workflow" in proc.stdout or "scenario" in proc.stdout


def test_simulate_entry_point_on_path():
    import shutil
    exe = shutil.which("simulate")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0


def test_two_level_requires_parallel_polarization(tmp_path):
    body = """
[transition]
two_level = true

[fields]
omega_p = 4
probe_polarization = perpendicular

[scan]
workflow = spectrum
delta_min = -8
delta_max = 8
delta_points = 11
"""
    with pytest.raises(ConfigError, match="parallel"):
        parse_config(write_config(tmp_path, body))


@pytest.mark.parametrize("keys", ["f_ground = 0", "f_excited = 1",
                                  "f_ground = 1\nf_excited = 2"])
def test_two_level_with_a_line_exits_config_error(tmp_path, capsys, keys):
    # two_level = true is the 0 -> 1 line: a line given beside it is given
    # twice, and would otherwise be ignored
    from mirrorless.cli import main
    body = (f"[transition]\ntwo_level = true\n{keys}\n"
            "[fields]\nomega_p = 4\nprobe_polarization = parallel\n"
            "[scan]\nworkflow = spectrum\ndelta_min = -8\ndelta_max = 8\n"
            "delta_points = 5\n")
    path = write_config(tmp_path, body)
    assert main([path, "--output", str(tmp_path / "out.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    named = [k.split(" = ")[0] for k in keys.split("\n")]
    assert err.startswith(f"config error: [transition] two_level and "
                          f"{', '.join(named)} are both given")


@pytest.mark.parametrize("preset", ["mollow_parallel_resonant",
                                    "mollow_parallel_detuned"])
def test_two_level_presets_match_the_two_by_two_atom(preset):
    # two_level = true runs as the 0 -> 1 line; the hand-built 2 x 2 atom
    # gives the same spectrum on the preset's grid
    cfg = parse_config(str(PRESETS / f"{preset}.ini"))
    assert (cfg.f_ground, cfg.f_excited) == (0.0, 1.0)
    table = run(cfg)
    L = build_liouvillian(two_level_hamiltonian(cfg.omega_p, cfg.delta_p),
                          two_level_collapse())
    ref = correlation_spectrum(L, steady_state(L), two_level_dipole(),
                               cfg.delta_grid)
    assert np.array_equal(table.rows[:, 0], ref.delta)
    assert np.max(np.abs(table.rows[:, 1] - ref.absorption)) <= 1e-12


def test_all_presets_parse():
    presets = sorted(PRESETS.glob("*.ini"))
    assert len(presets) >= 12
    for p in presets:
        cfg = parse_config(str(p))
        assert isinstance(cfg, ScenarioConfig)


def test_inversion_preset_reports_threshold():
    cfg = parse_config(str(PRESETS / "inversion_scan.ini"))
    table = run(cfg)
    s_star = float(table.provenance["s_star"])
    assert 3.6 <= s_star <= 4.4
    names = [n for n, _ in table.columns]
    assert names[0] == "S" and "inversion_flag" in names
    # flag flips from 0 to 1 across the threshold
    flags = [row[-1] for row in table.rows]
    s_vals = [row[0] for row in table.rows]
    for s, flag in zip(s_vals, flags):
        if s < s_star - 0.3:
            assert not flag
        if s > s_star + 0.3:
            assert flag


def test_weak_far_detuned_inversion_scan_exits_ok(tmp_path):
    # a weak pump far off resonance is no dark line: the scan exits 0, and
    # the ground populations lie within O(S) of their omega_p -> 0 limit
    # on 1 -> 2, 4/17, 9/17, 4/17
    from mirrorless.cli import main
    path = write_config(tmp_path, """
[transition]
f_ground = 1
f_excited = 2

[fields]
delta_p = 10

[scan]
workflow = inversion-scan
s_min = 1e-8
s_max = 1e-6
s_points = 3
s_scale = log
""")
    out = tmp_path / "out.csv"
    assert main([path, "--output", str(out)]) == EXIT_OK
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    names = lines[0].split(",")
    rows = np.array([[float(v) for v in l.split(",")] for l in lines[2:]])
    ground = rows[:, [names.index(f"pop_g{m}") for m in ("-1", "+0", "+1")]]
    limit = np.array([4, 9, 4]) / 17
    assert np.all(np.abs(ground - limit) <= 0.1 * rows[:, :1])


def test_populations_report_trace_drift(tmp_path):
    # evolve re-Hermitizes each sample but leaves the trace alone: the
    # populations table states the largest |Tr rho - 1| over its samples,
    # which an extreme pump drives to O(1) (last-row trace 3.85) while the
    # preset stays at rounding level
    extreme = parse_config(write_config(tmp_path, MINIMAL_POPULATIONS
                                        .replace("saturation = 36",
                                                 "omega_p = 1e15")
                                        .replace("t_final = 2",
                                                 "t_final = 50")
                                        .replace("t_points = 5",
                                                 "t_points = 201")))
    preset = parse_config(str(PRESETS / "populations_s36.ini"))
    assert float(run(extreme).provenance["max_trace_drift"]) >= 2.8
    assert float(run(preset).provenance["max_trace_drift"]) <= 1e-13


def test_propagate_preset_runs():
    cfg = parse_config(str(PRESETS / "propagate_operating_point.ini"))
    table = run(cfg)
    names = [n for n, _ in table.columns]
    assert names == ["y", "I_z", "I_x", "alpha_z", "alpha_x", "Gamma_z",
                     "Gamma_x"]
    I_x = [row[2] for row in table.rows]
    assert I_x[0] == 0.0 and I_x[-1] > 0.0


def test_mollow_detuned_preset_one_sided_gain(tmp_path):
    cfg = parse_config(str(PRESETS / "mollow_parallel_detuned.ini"))
    table = run(cfg)
    delta = np.array([row[0] for row in table.rows])
    absorption = np.array([row[1] for row in table.rows])
    gen = np.hypot(4.0, 2.0)
    lo = absorption[np.abs(delta + gen) < 1.5].min()
    hi = absorption[np.abs(delta - gen) < 1.5].min()
    assert min(lo, hi) < 0 <= max(lo, hi)


def _per_value_rows(table):
    # the rows as per-row tuples: a Python bool in a bool column, numpy
    # float64 scalars elsewhere
    flags = [unit == "bool" for _, unit in table.columns]
    return [tuple(bool(v) if flag else v for v, flag in zip(row, flags))
            for row in table.rows]


def _written(table, writer):
    fh = io.StringIO()
    getattr(table, writer)(fh)
    return fh.getvalue()


def _synthetic_table():
    values = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2]
    return ResultTable(columns=[("x", "1"), ("flag", "bool"), ("y", "arb")],
                       rows=np.column_stack([values, [1, 0, 1, 0, 1],
                                             values[::-1]]),
                       provenance={"note": "edge values"})


@pytest.mark.parametrize("source", ["populations_s36", "inversion_scan",
                                    "propagate_operating_point",
                                    "mollow_parallel_resonant", "synthetic"])
def test_one_pass_writers_match_per_value_oracle(source):
    if source == "synthetic":
        table = _synthetic_table()
    else:
        table = run(parse_config(str(PRESETS / f"{source}.ini")))
    assert table.rows.dtype == np.float64 and table.rows.ndim == 2
    args = (table.columns, _per_value_rows(table), table.provenance)
    # the first differing line, not a diff of the whole text, on failure
    for writer, oracle in (("write_csv", table_csv_oracle),
                           ("write_json", table_json_oracle)):
        lines = zip_longest(_written(table, writer).split("\n"),
                            oracle(*args).split("\n"))
        assert next(((k, a, b) for k, (a, b) in enumerate(lines) if a != b),
                    None) is None, writer


def test_synthetic_table_text():
    lines = _written(_synthetic_table(), "write_csv").splitlines()
    assert lines[3:] == ["-0.0,1,0.30000000000000004", "5e-324,0,1e-05",
                         "1e+16,1,1e+16", "1e-05,0,5e-324",
                         "0.30000000000000004,1,-0.0"]


def test_ragged_table_rejected():
    with pytest.raises(ValueError, match="shape"):
        ResultTable(columns=[("a", "1"), ("b", "1")], rows=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="shape"):
        ResultTable(columns=[("a", "1")], rows=np.zeros(3))


@pytest.mark.parametrize("line", [(1, 2), (1.5, 2.5)])
def test_populations_columns_hold_the_entries_they_name(line, rng):
    from mirrorless import build_scheme
    from mirrorless.cli import _populations_table, _sublevel_label
    from mirrorless.dynamics import Evolution
    scheme = build_scheme(*line)
    d = scheme.dim
    states = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    table = _populations_table(scheme, Evolution(times=np.arange(3.0),
                                                 states=states))
    index = {_sublevel_label(scheme, i): i for i in range(d)}
    assert table.columns[0] == ("t", "1/Gamma")
    assert np.array_equal(table.rows[:, 0], np.arange(3.0))
    n_sigma = 0
    for k, (name, _) in enumerate(table.columns[1:], start=1):
        part, *labels = name.split("_")
        if part == "pop":
            i = index[labels[0]]
            expected = states[:, i, i].real
        else:
            e, g = index[labels[1]], index[labels[2]]
            assert abs(scheme.m_of(e) - scheme.m_of(g)) == 1
            n_sigma += 1
            expected = getattr(states[:, e, g], {"re": "real",
                                                  "im": "imag"}[part])
        assert np.array_equal(table.rows[:, k], expected), name
    assert len(table.columns) == 1 + d + n_sigma


CELL_KEYS = {"length_m": "0.1", "density_m3": "1e16", "gamma_rad_s": "3.5e7",
             "wavelength_m": "780e-9", "beam_radius_m": "1e-3"}
# what each workflow needs beside the 1 -> 2 line and [scan] workflow
NEEDS = {
    "populations": {"fields": {"omega_p": "3"}},
    "inversion-scan": {"scan": {"s_min": "1", "s_max": "10",
                                "s_points": "3"}},
    "spectrum": {"fields": {"omega_p": "3"},
                 "scan": {"delta_min": "-4", "delta_max": "4",
                          "delta_points": "9"}},
    "min-absorption-scan": {"scan": {"omega_p_min": "0.5",
                                     "omega_p_max": "2",
                                     "omega_p_points": "2"}},
    "propagate": {"fields": {"omega_p": "0.4"}, "cell": CELL_KEYS},
    "output-curve": {"scan": {"pump_min": "0", "pump_max": "100",
                              "pump_points": "2"}, "cell": CELL_KEYS},
}


def scenario_text(workflow, section=None, key=None, value=None):
    sections = {"transition": {"f_ground": "1", "f_excited": "2"},
                "scan": {"workflow": workflow}}
    for name, keys in NEEDS[workflow].items():
        sections.setdefault(name, {}).update(keys)
    if key is not None:
        sections.setdefault(section, {})[key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                            for k, v in keys.items())
                   for name, keys in sections.items())


def _pump(workflow, omega_p):
    return pytest.param(workflow, "fields", "omega_p", omega_p,
                        id=f"{workflow}-{omega_p}")


@pytest.mark.parametrize("workflow, section, key, value", [
    _pump("populations", "1e20"),  # the propagator e^{L dt} overflows
    _pump("propagate", "1e-200"),  # the entry intensity underflows to 0
    _pump("propagate", "1e-160"),  # ... to a subnormal
    _pump("propagate", "1e160"),   # ... overflows
    # delta_p^2 overflows: in omega_from_saturation, in the unpumped floor
    ("inversion-scan", "fields", "delta_p", "1e200"),
    ("output-curve", "fields", "delta_p", "1e200"),
    # the solid angle pi r^2 / L^2 overflows or divides by 0
    ("propagate", "cell", "length_m", "1e300"),
    ("propagate", "cell", "beam_radius_m", "1e300"),
    ("propagate", "cell", "length_m", "1e-300"),
    # mu_red^2 underflows to 0, or the absorption scale overflows
    ("propagate", "cell", "gamma_rad_s", "1e-300"),
    ("propagate", "cell", "wavelength_m", "1e-300"),
    ("propagate", "cell", "density_m3", "1e300"),
])
def test_extreme_pump_keeps_the_exit_contract(tmp_path, capsys, workflow,
                                              section, key, value):
    # a valid but extreme key writes finite values, or exits 2 or 3 with
    # a message: never a traceback, never a nan or an inf
    from mirrorless.cli import main
    out = tmp_path / "out.csv"
    path = write_config(tmp_path, scenario_text(workflow, section, key,
                                                value))
    code = main([path, "--output", str(out)])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_NUMERICAL, EXIT_CONFIG)
    assert "Traceback" not in err
    if code == EXIT_OK:
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")][2:]
        values = np.array([[float(v) for v in l.split(",")] for l in rows])
        assert values.size and np.all(np.isfinite(values))
    elif code == EXIT_CONFIG:
        # the cell's scales derive from several of its keys
        named = f"[{section}]" if section == "cell" else f"[{section}] {key}"
        assert err.startswith(f"config error: {named}")
    else:
        assert err.startswith(f"numerical failure ({workflow})")


def test_non_finite_table_is_a_numerical_failure(tmp_path, capsys,
                                                 monkeypatch):
    from mirrorless import cli
    run_populations = cli._run_populations

    def overflowed(cfg):
        table = run_populations(cfg)
        table.rows[-1, -1] = np.inf
        return table

    monkeypatch.setattr(cli, "_run_populations", overflowed)
    out = tmp_path / "out.csv"
    path = write_config(tmp_path, scenario_text("populations"))
    assert cli.main([path, "--output", str(out)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure (populations): the result table holds a "
        "non-finite value\n")
    assert not out.exists()


def test_parallel_spectrum_accepts_n_harmonics(tmp_path):
    # the spectrum workflow reads n_harmonics; that its parallel branch has
    # no use for it is not a configuration error
    body = scenario_text("spectrum", "fields", "probe_polarization",
                         "parallel") + "[numerics]\nn_harmonics = 3\n"
    assert parse_config(write_config(tmp_path, body)).n_harmonics == 3


UNREAD = [(section, key, workflow) for section, keys in _KEYS.items()
          for key, row in keys.items() for workflow in WORKFLOWS
          if row.readers != "all" and workflow not in row.readers.split()]


@pytest.mark.parametrize("section, key, workflow", UNREAD,
                         ids=[f"{k}-{w}" for _, k, w in UNREAD])
def test_unread_key_exits_config_error(tmp_path, capsys, section, key,
                                       workflow):
    from mirrorless.cli import main
    row = _KEYS[section][key]
    value = row.check[0] if isinstance(row.check, tuple) \
        else {float: "1.0", int: "2", bool: "false"}[row.kind]
    path = write_config(tmp_path, scenario_text(workflow, section, key, value))
    assert main([path, "--output", str(tmp_path / "out.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: [{section}] {key} is not read by workflow "
        f"'{workflow}'")


@pytest.mark.parametrize("line, workflow, keys", [
    ((2, 1), "spectrum", "delta_min = -4\ndelta_max = 4\ndelta_points = 5"),
    ((2, 1), "min-absorption-scan",
     "omega_p_min = 3\nomega_p_max = 3\nomega_p_points = 1"),
    # S = 0: the undriven line
    ((1, 2), "inversion-scan", "s_min = 0\ns_max = 0\ns_points = 1"),
])
def test_degenerate_steady_state_message(tmp_path, capsys, line, workflow,
                                         keys):
    # the message speaks to a command-line user: no library call to make
    from mirrorless.cli import main
    pump = "omega_p = 3\n" if workflow == "spectrum" else ""
    body = (f"[transition]\nf_ground = {line[0]}\nf_excited = {line[1]}\n"
            f"[fields]\n{pump}[scan]\nworkflow = {workflow}\n{keys}\n")
    path = write_config(tmp_path, body)
    assert main([path, "--output", str(tmp_path / "out.csv")]) \
        == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure ({workflow}): the F_g = "
                          f"{line[0]} -> F_e = {line[1]} line")
    # the density matrices on the two dark ground states of 2 -> 1, and
    # on the three ground states of the undriven 1 -> 2
    dimension = 4 if line == (2, 1) else 9
    assert f"null space of dimension {dimension})" in err
    assert "populations" in err


def test_weakly_pumped_dark_line_message(tmp_path, capsys):
    # at S = 1e-10 the 3 -> 2 line still has two dark ground states, and no
    # more: the message gives the null space they span
    from mirrorless.cli import main
    body = ("[transition]\nf_ground = 3\nf_excited = 2\n"
            "[fields]\ndelta_p = 0.741\n[scan]\nworkflow = inversion-scan\n"
            "s_min = 1e-10\ns_max = 1e-9\ns_points = 2\n")
    path = write_config(tmp_path, body)
    assert main([path, "--output", str(tmp_path / "out.csv")]) \
        == EXIT_NUMERICAL
    assert "(null space of dimension 4)" in capsys.readouterr().err


def test_benchmark_scenarios_parse(tmp_path, monkeypatch):
    # the benchmark's own scenario generator, loaded read-only: no bytecode
    # is written beside it
    spec = importlib.util.spec_from_file_location(
        "perfbench_scenarios", ROOT / "perfbench" / "scenarios.py")
    scenarios = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, scenarios)  # for dataclass
    spec.loader.exec_module(scenarios)
    cases = [s for workload in scenarios.WORKLOADS for seed in range(1, 11)
             for tiny in (False, True)
             for s in scenarios.generate(workload, seed, tiny)]
    cases += scenarios.dark_line_scenarios(1)
    for k, s in enumerate(cases):
        path = write_config(tmp_path, s.ini, f"{k}.ini")
        assert parse_config(path).workflow == s.workflow, s.id


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # the benchmark's tracer, loaded read-only, wraps the layer functions of
    # the loaded program and puts every binding back
    import mirrorless.cli  # noqa: F401  (the program as the benchmark runs it)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(tracer)
    assert [layer for layer in tracer.LAYERS
            if f"mirrorless.{layer}" not in sys.modules] == []
    modules = [m for name, m in sys.modules.items()
               if name.partition(".")[0] == "mirrorless"]
    before = [(m, dict(vars(m))) for m in modules]
    levels = sys.modules["mirrorless.levels"]
    branching, write_csv = levels.branching_ratios, ResultTable.write_csv
    t = tracer.Tracer("t")
    t.install()
    try:
        # the level layer's one call into angular is traced
        assert levels.branching_ratios is not branching
        assert ResultTable.write_csv is not write_csv
    finally:
        t.restore()
    assert ResultTable.write_csv is write_csv
    assert [(m.__name__, k) for m, names in before for k, v in names.items()
            if vars(m).get(k) is not v] == []


def test_readme_key_table_matches_code():
    rows = re.findall(r"^\| `\[(\w+)\]` \| (.+?) \| (\w+) \| (.*?) \| (.+?) \|$",
                      (ROOT / "README.md").read_text(encoding="utf-8"),
                      re.M)
    listed = {(section, key): (kind, rule, readers.replace(",", " ").split())
              for section, keys, kind, rule, readers in rows
              for key in re.findall(r"`(\w+)`", keys)}
    in_code = {}
    for section, keys in _KEYS.items():
        for key, row in keys.items():
            rule = row.check
            rule = ("one of " + ", ".join(rule) if isinstance(rule, tuple)
                    else f">= {rule}" if isinstance(rule, int) else rule or "")
            in_code[section, key] = (row.kind.__name__, rule,
                                     row.readers.split())
    assert listed == in_code
