"""Per-point cost of the pump-only steady state: the memoized pump line
against assembling L at every point.

    python bench/pump_line.py [--output BENCH_pump_line.json]

Run from the root of a source checkout; the program is imported from
``src/``. For the 8-level (1 -> 2) and 12-level (2 -> 3) lines at one pump
detuning, each row times one layer of a scan over the pump strength:

- ``build_liouvillian_s``: one assembly of the pump-only L;
- ``steady_state``: ``pump_only_steady_state`` (L = A + omega_p B from the
  memo of the line and detuning, one scaled sum, and the state by
  elimination onto the ground populations) against
  the assembled route, ``build_liouvillian`` then ``steady_state``; warm,
  and cold with the memo of pump lines cleared before each run (the
  memoized route pays for the block search and the split there);
- ``first_call``: the same two routes as the first call of a fresh
  process, after ``import mirrorless`` and ``build_scheme``, and the route
  both replace, ``per_block_s``: the assembled L, its blocks from scipy's
  connected components and one full SVD per block
  (``steady_state_blocks_oracle`` of ``tests/oracles.py``), then the
  residual check; the median of ``FRESH`` processes per route, the routes'
  processes taking turns;
- ``scan_40``: both routes over 40 pump strengths on [0.1, 6];
- ``transport_coefficients_s``: one call (alpha_x is alpha_z, with no
  solve of its own);
- ``propagate_sc_201_s``: self-consistent numeric transport on 201 grid
  points through the reference 0.1 m cell, entry pump omega_p = 0.4.

Each in-process time is the median of ``PAIRS`` runs after one warm-up, in
seconds, the two routes' runs alternating; the single-route rows take the
median of ``REPEATS`` runs (the constant of ``bench/layers.py``, whose
timing helpers this script shares). ``max_dev`` is the largest absolute difference between
the two routes' steady states over the scan (both have trace 1). The memo
reproduces the assembled operator bit for bit, but the two routes solve it
differently, so ``max_dev`` is not 0: it measures the SVD route's loss of
digits, which grows as the pump weakens (``bench/elimination.py`` holds
both routes to a 40-digit reference).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import mirrorless  # noqa: E402,F401  (before numpy: pins BLAS to one thread)
import numpy as np  # noqa: E402
from mirrorless import (FieldConfig, build_collapse,  # noqa: E402
                        build_liouvillian, build_scheme,
                        pump_only_steady_state, steady_state)
from mirrorless.dynamics import _pump_line  # noqa: E402
from mirrorless.levels import pump_hamiltonian  # noqa: E402
from mirrorless.propagation import (CellConfig, propagate,  # noqa: E402
                                    transport_coefficients)
from layers import REPEATS, _conditions, _median_time, _sig  # noqa: E402

OMEGA_P, DELTA_P = 2.0, 0.75
OMEGA_GRID = np.linspace(0.1, 6.0, 40)
PAIRS = 41
FRESH = 15
LINES = {"1->2": (1, 2), "2->3": (2, 3)}
CELL = CellConfig.pencil(length=0.1, density=1.16e16,
                         gamma_phys=35185837.72, wavelength=780.241e-9,
                         beam_radius=1e-3, grid=201)

# one timed first call in a fresh process; argv: route, F_g, F_e
_FIRST_CALL = """
import sys, time
sys.path[:0] = [{src!r}, {tests!r}]
from mirrorless import (build_collapse, build_liouvillian, build_scheme,
                        pump_only_steady_state, steady_state)
from mirrorless.levels import pump_hamiltonian
import numpy as np
from oracles import steady_state_blocks_oracle
route, scheme = sys.argv[1], build_scheme(float(sys.argv[2]),
                                          float(sys.argv[3]))
start = time.perf_counter()
if route == "memoized":
    pump_only_steady_state(scheme, {omega_p!r}, {delta_p!r})
else:
    L = build_liouvillian(pump_hamiltonian(scheme, {omega_p!r}, {delta_p!r}),
                          build_collapse(scheme))
    if route == "assembled":
        steady_state(L)
    else:
        rho = steady_state_blocks_oracle(L.matrix)
        assert np.max(np.abs(L.apply(rho))) <= 1e-8
print(time.perf_counter() - start)
"""


def _paired(routes):
    """Median time of each route, the routes' runs taking turns."""
    for fn in routes.values():
        fn()
    times = {name: [] for name in routes}
    for _ in range(PAIRS):
        for name, fn in routes.items():
            start = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - start)
    return {name: statistics.median(t) for name, t in times.items()}


def _first_calls(line):
    """Median first-call time per route in fresh processes, taking turns."""
    code = _FIRST_CALL.format(src=str(ROOT / "src"),
                              tests=str(ROOT / "tests"), omega_p=OMEGA_P,
                              delta_p=DELTA_P)
    times = {"assembled_s": [], "memoized_s": [], "per_block_s": []}
    for _ in range(FRESH):
        for route, row in times.items():
            row.append(float(subprocess.run(
                [sys.executable, "-c", code, route[:-2], *map(str, line)],
                capture_output=True, text=True, check=True,
                timeout=120).stdout))
    return {route: statistics.median(row) for route, row in times.items()}


def _line(line):
    scheme = build_scheme(*line)
    channels = build_collapse(scheme)

    def assembled(omega_p):
        return steady_state(build_liouvillian(
            pump_hamiltonian(scheme, omega_p, DELTA_P), channels))

    def memoized(omega_p):
        return pump_only_steady_state(scheme, omega_p, DELTA_P)[0]

    def cold(route):
        def run():
            _pump_line.cache_clear()
            return route(OMEGA_P)
        return run

    fields = FieldConfig(omega_p=OMEGA_P, omega_pr=0.0, delta_p=DELTA_P,
                         delta_pr=DELTA_P)
    entry = FieldConfig(omega_p=0.4, omega_pr=0.0, delta_p=DELTA_P,
                        delta_pr=DELTA_P)
    dev = max(float(np.max(np.abs(memoized(w) - assembled(w))))
              for w in OMEGA_GRID)
    warm = _paired({"assembled_s": lambda: assembled(OMEGA_P),
                    "memoized_s": lambda: memoized(OMEGA_P)})
    cold_pair = _paired({"assembled_cold_s": cold(assembled),
                         "memoized_cold_s": cold(memoized)})
    rows = {
        "steady_state": {**warm, **cold_pair},
        "first_call": _first_calls(line),
        "scan_40": _paired({
            "assembled_s": lambda: [assembled(w) for w in OMEGA_GRID],
            "memoized_s": lambda: [memoized(w) for w in OMEGA_GRID]}),
    }
    out = {"dim": scheme.dim,
           "block_sizes": sorted((len(b) for b in _pump_line(
               scheme, DELTA_P).blocks), reverse=True),
           "build_liouvillian_s": _sig(_median_time(
               lambda: build_liouvillian(
                   pump_hamiltonian(scheme, OMEGA_P, DELTA_P), channels)))}
    for name, row in rows.items():
        out[name] = {k: _sig(v) for k, v in row.items()}
        out[name]["speedup"] = _sig(row["assembled_s"] / row["memoized_s"])
    out["steady_state"]["cold_speedup"] = _sig(
        rows["steady_state"]["assembled_cold_s"]
        / rows["steady_state"]["memoized_cold_s"])
    out["max_dev"] = _sig(dev)
    out["transport_coefficients_s"] = _sig(_median_time(
        lambda: transport_coefficients(scheme, fields, CELL)))
    out["propagate_sc_201_s"] = _sig(_median_time(
        lambda: propagate(CELL, scheme, entry,
                          I_z0=CELL.intensity_from_omega_p(0.4),
                          mode="numeric", self_consistent=True)))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output",
                        default=str(ROOT / "BENCH_pump_line.json"))
    args = parser.parse_args(argv)
    report = {
        "script": "bench/pump_line.py",
        "operating_point": {"omega_p": OMEGA_P, "delta_p": DELTA_P},
        "timing": f"two-route rows: median of {PAIRS} alternating runs "
                  f"after one warm-up, s; first_call: median of {FRESH} "
                  f"fresh processes per route, s; other rows: median of "
                  f"{REPEATS} runs after one warm-up, s",
        "conditions": _conditions(),
        "lines": {name: _line(line) for name, line in LINES.items()},
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n",
                                 encoding="utf-8")
    print(json.dumps(report["lines"], indent=1))


if __name__ == "__main__":
    main()
