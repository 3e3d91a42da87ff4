"""Per-offset cost of the weak-probe harmonic balance, parity sectors vs full size.

    python bench/weak_probe.py [--output BENCH_weak_probe.json]

Run from the root of a source checkout: the program is imported from
``src/`` and the full-size route from ``tests/oracles.py``. For the
8-, 10- and 12-level lines (1 -> 2, 3/2 -> 5/2, 2 -> 3) at one operating
point and 1 to 3 harmonics, the perpendicular weak-probe spectrum is
computed by the program's matrix continued fraction, which solves each
harmonic in its parity sector (even or odd coherence order), and by the
same continued fraction on the whole d^2 index set
(``weak_probe_full_oracle``).

Each time is the median of ``REPEATS`` runs (the constant of
``bench/layers.py``, whose timing helpers this script shares) in this
process after one warm-up, divided by the number of offsets, in seconds per
offset.
``max_dev`` is the largest absolute difference between the two spectra,
divided by the largest magnitude of the full route's spectrum.
``sectors`` are the sizes of the even and odd index sets, the indices of
even and odd coherence order q = m_i - m_j.
"""

from __future__ import annotations

import argparse
import json
import sys
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


def _line(line):
    scheme = build_scheme(*line)
    L = build_liouvillian(pump_hamiltonian(scheme, OMEGA_P, DELTA_P),
                          build_collapse(scheme))
    d_op = perpendicular_dipole(scheme)
    v_plus = OMEGA_PR * d_op.d_plus
    ms = np.array([m for _, m in scheme.sublevels])
    odd = int(np.sum(np.subtract.outer(ms, ms) % 2 == 1))
    out = {"dim": scheme.dim, "sectors": [scheme.dim ** 2 - odd, odd]}
    for nh in N_HARMONICS:
        def sector():
            return weak_probe_absorption(scheme, L, OMEGA_PR, GRID,
                                         nh).absorption * d_op.peak_norm()

        def full():
            return weak_probe_full_oracle(L.matrix, v_plus, GRID,
                                          nh) * 2.0 / OMEGA_PR ** 2

        ref = full()
        s, f = _median_time(sector), _median_time(full)
        out[f"n_harmonics_{nh}"] = {
            "sector_s": _sig(s / len(GRID)), "full_s": _sig(f / len(GRID)),
            "speedup": _sig(f / s),
            "max_dev": _sig(float(np.max(np.abs(sector() - ref))
                                  / np.max(np.abs(ref))))}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output",
                        default=str(ROOT / "BENCH_weak_probe.json"))
    args = parser.parse_args(argv)
    report = {
        "script": "bench/weak_probe.py",
        "operating_point": {"omega_p": OMEGA_P, "delta_p": DELTA_P,
                            "omega_pr": OMEGA_PR},
        "offsets": len(GRID),
        "timing": f"median of {REPEATS} runs after one warm-up, "
                  f"s per offset",
        "conditions": _conditions(),
        "lines": {name: _line(line) for name, line in LINES.items()},
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n",
                                 encoding="utf-8")
    print(json.dumps(report["lines"], indent=1))


if __name__ == "__main__":
    main()
