"""Cost of the regression engine with one Schur form per conjugate block
pair, against a baseline checkout, and the presets that use it.

    python bench/regression.py [--output BENCH_pairing.json]
                               [--baseline DIR]

Run from the root of a source checkout. A Lindblad L maps rho^H to
L[rho]^H, so the perpendicular dipole's blocks q = +1 and q = -1 are
conjugates of each other under the transpose of the vec indices, and the
regression engine factorizes one of them for both. For the 8-, 10- and
12-level lines (1 -> 2, 3/2 -> 5/2, 2 -> 3) at the pump detunings of the
``min_absorption_*`` presets, each tree's engine is timed in its own fresh
process:

- ``schur_sizes``: the sizes of the Schur forms it computes, recorded from
  its calls of ``schur``;
- ``factor_s``: building the engine (the Schur forms and their
  projections);
- ``eval_321_s`` and ``eval_41_s``: evaluating it on the scan's coarse grid
  of 321 offsets and on its 41-offset refinement around the coarse minimum;
- ``max_dev``: the largest absolute difference on both grids from
  ``regression_oracle`` (one Schur form of the whole M, in
  ``tests/oracles.py`` of this checkout), divided by the oracle's largest
  magnitude.

Each time is the median of ``REPEATS`` runs (the constant of
``bench/layers.py``) after one warm-up, in seconds. ``presets``: each
``min_absorption_*`` and ``perpendicular_spectrum_*`` preset through the
CLI's ``main``, timed as in ``bench/weak_probe.py``. ``after`` is this
checkout; ``before`` is the source checkout given as ``--baseline`` (for
instance the parent commit, unpacked with ``git archive``), its process
started right before this checkout's. Without ``--baseline`` only ``after``
is written.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import mirrorless  # noqa: E402,F401  (before numpy: pins BLAS to one thread)
from layers import REPEATS, _conditions  # noqa: E402
from weak_probe import _preset_wall  # noqa: E402

OMEGA_P = 3.0
DELTAS_P = (0.0, 0.75)
LINES = {"1->2": (1, 2), "3/2->5/2": (1.5, 2.5), "2->3": (2, 3)}

# the engine's costs on every line and detuning, as JSON; argv: the lines
# and detunings, as JSON
_ENGINE_RUNS = """
import json, statistics, sys, time
sys.path[:0] = [{src!r}, {tests!r}]
import mirrorless
import numpy as np
from mirrorless import build_scheme, pump_only_steady_state, spectra
from mirrorless.levels import pump_raising
from oracles import regression_oracle

def median_time(fn):
    fn()
    times = []
    for _ in range({repeats}):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(f"{{statistics.median(times):.3g}}")

lines, deltas = json.loads(sys.argv[1]), json.loads(sys.argv[2])
sizes, schur = [], spectra.schur
def recorded(a, **kw):
    sizes.append(len(a))
    return schur(a, **kw)
out = {{}}
for name, line in lines.items():
    scheme = build_scheme(*line)
    d_op = spectra.perpendicular_dipole(scheme)
    wmax = float(np.max(np.abs(pump_raising(scheme))))
    for delta_p in deltas:
        rho, L = pump_only_steady_state(scheme, {omega_p}, delta_p)
        span = np.sqrt((wmax * {omega_p}) ** 2 + delta_p ** 2) \\
            + abs(delta_p) + 8.0
        grid = np.linspace(-span, span, 321)
        sizes.clear()
        spectra.schur = recorded
        engine = spectra._regression_engine(L, rho, d_op)
        spectra.schur = schur
        i = int(np.argmin(engine(grid)))
        step = grid[1] - grid[0]
        fine = np.linspace(grid[i] - 1.5 * step, grid[i] + 1.5 * step, 41)
        dev = max(float(np.max(np.abs(engine(g) - ref))
                        / np.max(np.abs(ref)))
                  for g in (grid, fine)
                  for ref in [regression_oracle(L.matrix, rho,
                                                d_op.d_plus, g)])
        out[f"{{name}} delta_p={{delta_p}}"] = {{
            "schur_sizes": list(sizes),
            "factor_s": median_time(
                lambda: spectra._regression_engine(L, rho, d_op)),
            "eval_321_s": median_time(lambda: engine(grid)),
            "eval_41_s": median_time(lambda: engine(fine)),
            "max_dev": float(f"{{dev:.3g}}")}}
print(json.dumps(out))
"""


def _engine_costs(tree):
    """The engine's costs in a fresh process of ``tree``."""
    code = _ENGINE_RUNS.format(src=str(Path(tree) / "src"),
                               tests=str(ROOT / "tests"), repeats=REPEATS,
                               omega_p=OMEGA_P)
    return json.loads(subprocess.run(
        [sys.executable, "-c", code, json.dumps(LINES),
         json.dumps(DELTAS_P)], capture_output=True, text=True, check=True,
        timeout=600).stdout)


def _presets(trees):
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "table.csv")
        return {p.stem: {name: {"wall_time_s": _preset_wall(tree, p, out)}
                         for name, tree in trees.items()}
                for pattern in ("min_absorption_*.ini",
                                "perpendicular_spectrum_*.ini")
                for p in sorted((ROOT / "presets").glob(pattern))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(ROOT / "BENCH_pairing.json"))
    parser.add_argument("--baseline", default=None,
                        help="source checkout that is 'before'")
    args = parser.parse_args(argv)
    trees = {"before": args.baseline, "after": ROOT} if args.baseline else \
        {"after": ROOT}
    report = {
        "script": "bench/regression.py",
        "operating_points": {"omega_p": OMEGA_P, "delta_p": list(DELTAS_P)},
        "timing": f"median of {REPEATS} runs after one warm-up, s; "
                  f"presets: s per run",
        "conditions": _conditions(),
        "engine": {name: _engine_costs(tree) for name, tree in trees.items()},
        "presets": _presets(trees),
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n",
                                 encoding="utf-8")
    print(json.dumps({k: report[k] for k in ("engine", "presets")},
                     indent=1))


if __name__ == "__main__":
    main()
