"""Stage costs of the populations workflow and the wall time of every preset.

    python bench/tables.py [--output BENCH_tables.json]

Run from the root of a source checkout: the program is imported from
``src/`` and the per-value table writer from ``tests/oracles.py``.

``populations``: at the three pump-only points of the benchmark's
``evolution`` workload (1 -> 2 and 3/2 -> 5/2 at Delta_p = 3.1, 2 -> 3 at
Delta_p = 25, each at saturation S = 1; 401 samples over 1000/Gamma), the
stages of the populations workflow are timed apart:

- ``evolve_s``: the exact-propagator evolution of the prebuilt L;
- ``assemble_s``: the result table, one float array from whole columns;
- ``write_csv_s``: the one-pass CSV writer, against ``write_csv_oracle_s``,
  the per-value writer it replaced (``table_csv_oracle``), on the same
  rows; ``csv_identical`` says whether the two texts are equal.

``presets``: every scenario in ``presets/`` through ``simulate`` (the CLI's
``main``, CSV to a temporary file): ``wall_time_s`` is the median of the
table's own ``# wall_time_s`` line, which covers the workflow but not the
write, and ``main_s`` the median time of the whole call, write included.

Each time is the median of ``REPEATS`` runs (the constant of
``bench/layers.py``, whose timing helpers this script shares) in this
process after one warm-up, in seconds.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import mirrorless  # noqa: E402,F401  (before numpy: pins BLAS to one thread)
from mirrorless import (build_collapse, build_liouvillian,  # noqa: E402
                        build_scheme, evolve)
from mirrorless.cli import _populations_table  # noqa: E402
from mirrorless.cli import main as simulate  # noqa: E402
from mirrorless.dynamics import (equal_ground_state,  # noqa: E402
                                 omega_from_saturation)
from mirrorless.levels import pump_hamiltonian  # noqa: E402
from layers import REPEATS, _conditions, _median_time, _sig  # noqa: E402
from oracles import table_csv_oracle  # noqa: E402

SATURATION, T_FINAL, SAMPLES = 1.0, 1000.0, 401
LINES = {"1->2": ((1, 2), 3.1), "3/2->5/2": ((1.5, 2.5), 3.1),
         "2->3": ((2, 3), 25.0)}


def _populations(line, delta_p):
    scheme = build_scheme(*line)
    omega_p = float(omega_from_saturation(SATURATION, delta_p))
    L = build_liouvillian(pump_hamiltonian(scheme, omega_p, delta_p),
                          build_collapse(scheme))
    rho0 = equal_ground_state(scheme)
    ev = evolve(L, rho0, T_FINAL, n_samples=SAMPLES)
    table = _populations_table(scheme, ev)
    rows = [tuple(row) for row in table.rows.tolist()]

    def write_csv():
        fh = io.StringIO()
        table.write_csv(fh)
        return fh.getvalue()

    def write_csv_oracle():
        return table_csv_oracle(table.columns, rows, table.provenance)

    return {"dim": scheme.dim, "omega_p": _sig(omega_p), "delta_p": delta_p,
            "columns": len(table.columns),
            "evolve_s": _sig(_median_time(
                lambda: evolve(L, rho0, T_FINAL, n_samples=SAMPLES))),
            "assemble_s": _sig(_median_time(
                lambda: _populations_table(scheme, ev))),
            "write_csv_s": _sig(_median_time(write_csv)),
            "write_csv_oracle_s": _sig(_median_time(write_csv_oracle)),
            "csv_identical": write_csv() == write_csv_oracle()}


def _preset(path, out):
    argv = [str(path), "--output", out, "--format", "csv"]
    walls, mains = [], []
    for _ in range(REPEATS + 1):
        start = time.perf_counter()
        if simulate(argv) != 0:
            raise RuntimeError(f"{path.name} failed")
        mains.append(time.perf_counter() - start)
        with open(out, encoding="utf-8") as fh:
            walls += [float(ln.split(":")[1]) for ln in fh
                      if ln.startswith("# wall_time_s")]
    # the first run is the warm-up
    return {"wall_time_s": statistics.median(walls[1:]),
            "main_s": _sig(statistics.median(mains[1:]))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(ROOT / "BENCH_tables.json"))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "table.csv")
        presets = {p.stem: _preset(p, out)
                   for p in sorted((ROOT / "presets").glob("*.ini"))}
    report = {
        "script": "bench/tables.py",
        "timing": f"median of {REPEATS} runs after one warm-up, s",
        "conditions": _conditions(),
        "populations": {
            "saturation": SATURATION, "t_final": T_FINAL, "samples": SAMPLES,
            "lines": {name: _populations(line, delta_p)
                      for name, (line, delta_p) in LINES.items()}},
        "presets": presets,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n",
                                 encoding="utf-8")
    print(json.dumps({k: report[k] for k in ("populations", "presets")},
                     indent=1))


if __name__ == "__main__":
    main()
