"""Per-offset cost of the weak-probe harmonic balance on its halved sectors
against the full size, and the perpendicular presets before and after.

    python bench/weak_probe.py [--output BENCH_reflection.json]
                               [--baseline DIR]

Run from the root of a source checkout: the program is imported from
``src/`` and the full-size route from ``tests/oracles.py``. For the
8-, 10- and 12-level lines (1 -> 2, 3/2 -> 5/2, 2 -> 3) at one operating
point and 1 to 3 harmonics, the perpendicular weak-probe spectrum is
computed by the program's matrix continued fraction, which solves each
harmonic on one half of its parity sector (even or odd coherence order,
split again by the parity under the m -> -m reflection), and by the same
continued fraction on the whole d^2 index set (``weak_probe_full_oracle``).

Each time is the median of ``REPEATS`` runs (the constant of
``bench/layers.py``, whose timing helpers this script shares) in this
process after one warm-up, divided by the number of offsets, in seconds per
offset.
``max_dev`` is the largest absolute difference between the two spectra,
divided by the largest magnitude of the full route's spectrum.
``sector_sizes`` are the sizes of the systems the program solves, largest
first, recorded from its calls of ``np.linalg.solve``.

``presets``: each ``perpendicular_spectrum_*`` preset through the CLI's
``main`` (CSV to a temporary file), ``REPEATS`` runs after one warm-up in
one fresh process per tree; ``wall_time_s`` is the median of the table's
own ``# wall_time_s`` line. ``after`` is this checkout; ``before`` is the
source checkout given as ``--baseline`` (for instance the parent commit,
unpacked with ``git archive``), its process started right before this
checkout's for each preset. Without ``--baseline`` only ``after`` is
written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import mirrorless  # noqa: E402,F401  (before numpy: pins BLAS to one thread)
import numpy as np  # noqa: E402
from mirrorless import (build_collapse, build_liouvillian,  # noqa: E402
                        build_scheme)
from mirrorless.levels import pump_hamiltonian  # noqa: E402
from mirrorless.spectra import (perpendicular_dipole,  # noqa: E402
                                weak_probe_absorption)
from layers import REPEATS, _conditions, _median_time, _sig  # noqa: E402
from oracles import weak_probe_full_oracle  # noqa: E402

OMEGA_P, DELTA_P = 3.0, 1.5
OMEGA_PR = 1e-3 * OMEGA_P
N_HARMONICS = (1, 2, 3)
LINES = {"1->2": (1, 2), "3/2->5/2": (1.5, 2.5), "2->3": (2, 3)}
GRID = np.linspace(-6.0, 6.0, 9)

# the # wall_time_s of REPEATS + 1 runs of one preset in a fresh process;
# argv: preset, output path
_PRESET_RUNS = """
import sys
sys.path[:0] = [{src!r}]
from mirrorless.cli import main
argv = [sys.argv[1], "--output", sys.argv[2], "--format", "csv"]
for _ in range({runs}):
    if main(argv) != 0:
        raise SystemExit(sys.argv[1] + " failed")
    with open(sys.argv[2], encoding="utf-8") as fh:
        print(*(ln.split(":")[1].strip() for ln in fh
                if ln.startswith("# wall_time_s")))
"""


def _solve_sizes(fn):
    """Sizes of the systems ``fn`` solves, largest first."""
    sizes, solve = set(), np.linalg.solve

    def recorded(a, b):
        sizes.add(len(a))
        return solve(a, b)

    np.linalg.solve = recorded
    try:
        fn()
    finally:
        np.linalg.solve = solve
    return sorted(sizes, reverse=True)


def _line(line):
    scheme = build_scheme(*line)
    L = build_liouvillian(pump_hamiltonian(scheme, OMEGA_P, DELTA_P),
                          build_collapse(scheme))
    d_op = perpendicular_dipole(scheme)
    v_plus = OMEGA_PR * d_op.d_plus
    out = {"dim": scheme.dim}
    for nh in N_HARMONICS:
        def sector():
            return weak_probe_absorption(scheme, L, OMEGA_PR, GRID,
                                         nh).absorption * d_op.peak_norm()

        def full():
            return weak_probe_full_oracle(L.matrix, v_plus, GRID,
                                          nh) * 2.0 / OMEGA_PR ** 2

        out.setdefault("sector_sizes", _solve_sizes(sector))
        ref = full()
        s, f = _median_time(sector), _median_time(full)
        out[f"n_harmonics_{nh}"] = {
            "sector_s": _sig(s / len(GRID)), "full_s": _sig(f / len(GRID)),
            "speedup": _sig(f / s),
            "max_dev": _sig(float(np.max(np.abs(sector() - ref))
                                  / np.max(np.abs(ref))))}
    return out


def _preset_wall(tree, preset, out):
    """Median ``# wall_time_s`` of one preset in a fresh process of ``tree``."""
    code = _PRESET_RUNS.format(src=str(Path(tree) / "src"),
                               runs=REPEATS + 1)
    walls = subprocess.run([sys.executable, "-c", code, str(preset), out],
                           capture_output=True, text=True, check=True,
                           timeout=600).stdout.split()
    return statistics.median(float(w) for w in walls[1:])  # [0]: warm-up


def _presets(baseline):
    trees = {"before": baseline, "after": ROOT} if baseline else \
        {"after": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "table.csv")
        return {p.stem: {name: {"wall_time_s": _preset_wall(tree, p, out)}
                         for name, tree in trees.items()}
                for p in sorted((ROOT / "presets")
                                .glob("perpendicular_spectrum_*.ini"))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output",
                        default=str(ROOT / "BENCH_reflection.json"))
    parser.add_argument("--baseline", default=None,
                        help="source checkout whose presets are 'before'")
    args = parser.parse_args(argv)
    report = {
        "script": "bench/weak_probe.py",
        "operating_point": {"omega_p": OMEGA_P, "delta_p": DELTA_P,
                            "omega_pr": OMEGA_PR},
        "offsets": len(GRID),
        "timing": f"median of {REPEATS} runs after one warm-up, "
                  f"s per offset; presets: s per run",
        "conditions": _conditions(),
        "lines": {name: _line(line) for name, line in LINES.items()},
        "presets": _presets(args.baseline),
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n",
                                 encoding="utf-8")
    print(json.dumps({k: report[k] for k in ("lines", "presets")},
                     indent=1))


if __name__ == "__main__":
    main()
