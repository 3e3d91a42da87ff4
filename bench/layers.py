"""Per-layer cost of the blocked linear algebra against the full-matrix routes.

    python bench/layers.py [--output BENCH_blocks.json]

Run from the root of a source checkout: the program is imported from
``src/`` and the full-matrix routes from ``tests/oracles.py``. For the
8-level (1 -> 2) and 12-level (2 -> 3) lines at one operating point, each
layer is timed on the blocked route the program uses and on the full-matrix
route it replaced, and the two results are compared:

- steady_state: one SVD per block against one SVD of L, on a fresh
  Liouvillian each run, so the blocked route pays for its block search and
  its singular values, which a Liouvillian keeps once worked out;
- regression_321: the perpendicular-probe spectrum on 321 offsets, Schur
  factorization included.

Listed apart, without a full-matrix counterpart: ``build_liouvillian_s``,
one assembly of L, and ``blocks_cold_s``, one search for its blocks on a
fresh Liouvillian (a scan over the pump strength pays for that search once
per line and detuning).

Each time is the median of ``REPEATS`` runs in this process after one
warm-up, in seconds. ``max_dev`` is the largest absolute difference, divided
by the largest magnitude of the full route's result (states have trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import mirrorless  # noqa: E402,F401  (before numpy: pins BLAS to one thread)
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from mirrorless import (Liouvillian, build_collapse,  # noqa: E402
                        build_liouvillian, build_scheme, steady_state)
from mirrorless.levels import pump_hamiltonian  # noqa: E402
from mirrorless.spectra import (correlation_spectrum,  # noqa: E402
                                perpendicular_dipole)
from oracles import regression_oracle, steady_state_oracle  # noqa: E402

OMEGA_P, DELTA_P = 3.0, 1.5
REPEATS = 15
LINES = {"1->2": (1, 2), "2->3": (2, 3)}


def _median_time(fn):
    fn()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _dev(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _cpu():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            names = [ln.split(":", 1)[1].strip() for ln in f
                     if ln.startswith("model name")]
    except OSError:
        names = []
    return names[0] if names else platform.processor()


def _sig(x):
    return float(f"{x:.3g}")


def _conditions():
    """The machine block of a BENCH file."""
    return {"cpu": _cpu(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _line(line):
    scheme = build_scheme(*line)
    H = pump_hamiltonian(scheme, OMEGA_P, DELTA_P)
    channels = build_collapse(scheme)
    L = build_liouvillian(H, channels)
    rho = steady_state(L)
    d_op = perpendicular_dipole(scheme)
    grid = np.linspace(-12.0, 12.0, 321)

    def fresh():
        return Liouvillian(matrix=L.matrix, dim=L.dim)

    layers = {
        "steady_state": (
            lambda: steady_state(fresh()),
            lambda: steady_state_oracle(L.matrix),
            _dev(rho, steady_state_oracle(L.matrix))),
        "regression_321": (
            lambda: correlation_spectrum(L, rho, d_op, grid),
            lambda: regression_oracle(L.matrix, rho, d_op.d_plus, grid),
            _dev(correlation_spectrum(L, rho, d_op, grid).absorption
                 * d_op.peak_norm(),
                 regression_oracle(L.matrix, rho, d_op.d_plus, grid))),
    }
    out = {"dim": scheme.dim,
           "block_sizes": sorted((len(b) for b in L.blocks), reverse=True),
           "build_liouvillian_s": _sig(_median_time(
               lambda: build_liouvillian(H, channels))),
           "blocks_cold_s": _sig(_median_time(lambda: fresh().blocks))}
    for name, (blocked, full, dev) in layers.items():
        b, f = _median_time(blocked), _median_time(full)
        out[name] = {"blocked_s": _sig(b), "full_s": _sig(f),
                     "speedup": _sig(f / b), "max_dev": _sig(dev)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(ROOT / "BENCH_blocks.json"))
    args = parser.parse_args(argv)
    report = {
        "script": "bench/layers.py",
        "operating_point": {"omega_p": OMEGA_P, "delta_p": DELTA_P},
        "timing": f"median of {REPEATS} runs after one warm-up, s",
        "conditions": _conditions(),
        "lines": {name: _line(line) for name, line in LINES.items()},
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n",
                                 encoding="utf-8")
    print(json.dumps(report["lines"], indent=1))


if __name__ == "__main__":
    main()
