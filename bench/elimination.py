"""Cost and accuracy of the pump-only steady state: elimination onto the
ground populations against the SVD route of ``steady_state``.

    python bench/elimination.py [--output BENCH_elimination.json]

Run from the root of a source checkout; the program is imported from
``src/`` and the 40-digit reference from ``tests/oracles.py`` (it needs
mpmath). Two routes solve the same pump-only L:

- ``elimination``: ``pump_only_steady_state``, which solves the block of
  the populations by exact elimination onto the ground populations and
  runs no SVD of L;
- ``svd``: ``steady_state`` of L, one full SVD of each of L's blocks, on
  a fresh Liouvillian that holds the pump line's blocks (the pump-only path
  before the elimination took a values-only SVD pass over the blocks and a
  full SVD of the block that held the null vector).

``cost`` times one point of each route on the 8-level (1 -> 2) and
12-level (2 -> 3) lines at one operating point: ``warm`` is the median of
``PAIRS`` alternating runs in this process after one warm-up, the line and
detuning memoized; ``first_call`` is the median over ``FRESH`` fresh
processes per route, the routes taking turns, each timing its first call
after ``import mirrorless`` and ``build_scheme`` (the elimination assembles
its pump line there, the SVD route assembles L with ``build_liouvillian``).

``accuracy`` runs both routes over every bright line of at most 12
sublevels at omega_p in ``OMEGAS`` and Delta_p in ``DELTAS``, against the
q = 0 block of the same L solved in 40 digits
(``steady_state_mp_oracle``): ``max_abs_err`` is the largest
|rho - rho_mpmath| where the route answers, and ``raised`` lists the
points where it raised ``DegenerateSteadyStateError`` with the dimension
it carried.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import mirrorless  # noqa: E402,F401  (before numpy: pins BLAS to one thread)
import numpy as np  # noqa: E402
from mirrorless import (DegenerateSteadyStateError,  # noqa: E402
                        build_scheme, pump_only_steady_state,
                        steady_state)
from mirrorless.dynamics import _pump_line  # noqa: E402
from layers import _conditions, _sig  # noqa: E402
from oracles import steady_state_mp_oracle  # noqa: E402
from pump_line import FRESH, PAIRS, _paired  # noqa: E402
from test_blocks import BRIGHT  # noqa: E402

OMEGA_P, DELTA_P = 2.0, 0.75
OMEGAS = (1e-5, 1.1e-3, 0.01, 2.0)
DELTAS = (0.0, 3.0, 10.0)
LINES = {"1->2": (1, 2), "2->3": (2, 3)}

# one timed first call in a fresh process; argv: route, F_g, F_e
_FIRST_CALL = """
import sys, time
sys.path[:0] = [{src!r}]
from mirrorless import (build_collapse, build_liouvillian, build_scheme,
                        pump_only_steady_state, steady_state)
from mirrorless.levels import pump_hamiltonian
route, scheme = sys.argv[1], build_scheme(float(sys.argv[2]),
                                          float(sys.argv[3]))
start = time.perf_counter()
if route == "elimination":
    pump_only_steady_state(scheme, {omega_p!r}, {delta_p!r})
else:
    steady_state(build_liouvillian(
        pump_hamiltonian(scheme, {omega_p!r}, {delta_p!r}),
        build_collapse(scheme)))
print(time.perf_counter() - start)
"""


def _svd_route(scheme, omega_p, delta_p):
    line = _pump_line(scheme, float(delta_p))
    return steady_state(line.liouvillian(omega_p))


def _first_calls(line):
    code = _FIRST_CALL.format(src=str(ROOT / "src"), omega_p=OMEGA_P,
                              delta_p=DELTA_P)
    times = {"elimination_s": [], "svd_s": []}
    for _ in range(FRESH):
        for route, row in times.items():
            row.append(float(subprocess.run(
                [sys.executable, "-c", code, route[:-2], *map(str, line)],
                capture_output=True, text=True, check=True,
                timeout=120).stdout))
    return {route: statistics.median(row) for route, row in times.items()}


def _cost(line):
    scheme = build_scheme(*line)
    warm = _paired({
        "elimination_s": lambda: pump_only_steady_state(scheme, OMEGA_P,
                                                        DELTA_P),
        "svd_s": lambda: _svd_route(scheme, OMEGA_P, DELTA_P)})
    out = {"warm": warm, "first_call": _first_calls(line)}
    for row in out.values():
        row["speedup"] = row["svd_s"] / row["elimination_s"]
    return {name: {k: _sig(v) for k, v in row.items()}
            for name, row in out.items()}


def _accuracy():
    routes = {"elimination":
              lambda *point: pump_only_steady_state(*point)[0],
              "svd": _svd_route}
    out = {name: {"max_abs_err": 0.0, "raised": []} for name in routes}
    for line in BRIGHT:
        scheme = build_scheme(*line)
        for omega_p in OMEGAS:
            for delta_p in DELTAS:
                _, L = pump_only_steady_state(scheme, omega_p, delta_p)
                reference = steady_state_mp_oracle(L.matrix, scheme)
                for name, route in routes.items():
                    try:
                        rho = route(scheme, omega_p, delta_p)
                    except DegenerateSteadyStateError as exc:
                        out[name]["raised"].append(
                            {"line": f"{line[0]:g}->{line[1]:g}",
                             "omega_p": omega_p, "delta_p": delta_p,
                             "dimension": exc.dimension})
                        continue
                    err = float(np.max(np.abs(rho - reference)))
                    out[name]["max_abs_err"] = max(out[name]["max_abs_err"],
                                                   err)
    for row in out.values():
        row["max_abs_err"] = _sig(row["max_abs_err"])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output",
                        default=str(ROOT / "BENCH_elimination.json"))
    args = parser.parse_args(argv)
    report = {
        "script": "bench/elimination.py",
        "operating_point": {"omega_p": OMEGA_P, "delta_p": DELTA_P},
        "timing": f"warm: median of {PAIRS} alternating runs after one "
                  f"warm-up, s; first_call: median of {FRESH} fresh "
                  f"processes per route, s",
        "accuracy_grid": {"lines": [f"{a:g}->{b:g}" for a, b in BRIGHT],
                          "omega_p": OMEGAS, "delta_p": DELTAS,
                          "reference": "q = 0 block solved in 40 digits"},
        "conditions": _conditions(),
        "cost": {name: _cost(line) for name, line in LINES.items()},
        "accuracy": _accuracy(),
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n",
                                 encoding="utf-8")
    print(json.dumps({k: report[k] for k in ("cost", "accuracy")}, indent=1))


if __name__ == "__main__":
    main()
