"""Seeded scenario generator for the benchmark workloads.

Each workload is a fixed list of strata with one scenario per stratum, so
every seed yields the same count of scenarios per stratum. The seed only
moves the physical parameters inside narrow fixed ranges, chosen so that
the cost of a scenario changes little from seed to seed (in particular the
correlation window of the time-domain spectrum route stays on the same
doubling step). The program sees nothing but the INI text written here.

Why each workload exists:

- ``spectra``: probe spectra, where nearly all time goes today: the
  time-domain regression route and the weak-probe harmonic balance.
- ``scans``: hundreds of small steady-state, resolvent and transport
  calls, with the ``--threads 2`` fan-out; no correlation route and no
  harmonic balance.
- ``evolution``: the same Liouvillian integrated in time; no spectra and
  no fan-out.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List

WORKLOADS = ("spectra", "scans", "evolution")

# the reference cell of the presets: 0.1 m Rb-87 D2 pencil
CELL = {"length_m": 0.1, "density_m3": 1.16e16, "gamma_rad_s": 35185837.72,
        "wavelength_m": 780.241e-9, "beam_radius_m": 1e-3}


@dataclass(frozen=True)
class Scenario:
    """One INI scenario and the parameters its output check needs."""

    id: str  # names the stratum too: one scenario per stratum
    workflow: str
    params: Dict
    ini: str
    threads: int = 1
    # the grids as written to the INI, for the checks
    grid: Dict = field(default_factory=dict)


def _ini(sections: Dict[str, Dict]) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        for k, v in keys.items():
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{k} = {v}")
        lines.append("")
    return "\n".join(lines)


def _sat_omega(S: float, delta_p: float) -> float:
    return math.sqrt(S * (0.25 + delta_p ** 2))


def _spectrum(sid, line, omega, delta_p, pol, grid):
    transition = ({"two_level": True} if line is None
                  else {"f_ground": line[0], "f_excited": line[1]})
    params = {"line": line, "omega_p": omega, "delta_p": delta_p,
              "polarization": pol}
    ini = _ini({"transition": transition,
                "fields": {"omega_p": omega, "delta_p": delta_p,
                           "probe_polarization": pol},
                "scan": {"workflow": "spectrum", "delta_min": grid[0],
                         "delta_max": grid[1], "delta_points": grid[2]}})
    return Scenario(id=sid, workflow="spectrum",
                    params=params, ini=ini,
                    grid={"delta": grid})


def _spectra(rng: random.Random, tiny: bool) -> List[Scenario]:
    def pts(n):
        return 3 if tiny else n

    out = []
    # far-detuned 8-level line at fixed saturation ~1, so the optical
    # pumping rate (and with it the correlation window) is nearly constant
    dp = rng.uniform(4.0, 6.0)
    out.append(_spectrum("perp8_far", (1, 2),
                         _sat_omega(rng.uniform(0.95, 1.05), dp), dp,
                         "perpendicular", (-2.0, 2.0, pts(17))))
    out.append(_spectrum("perp12_near", (2, 3),
                         rng.uniform(3.8, 4.2), rng.uniform(1.65, 1.85),
                         "perpendicular", (-8.0, 8.0, pts(9))))
    out.append(_spectrum("perp10", (1.5, 2.5),
                         rng.uniform(2.0, 3.0), rng.uniform(0.8, 1.2),
                         "perpendicular", (-6.0, 6.0, pts(9))))
    out.append(_spectrum("mollow2", None,
                         rng.uniform(3.5, 4.5), rng.uniform(0.0, 2.0),
                         "parallel", (-8.0, 8.0, pts(33))))
    out.append(_spectrum("mollow12", (2, 3),
                         rng.uniform(3.5, 4.5), rng.uniform(0.0, 0.5),
                         "parallel", (-8.0, 8.0, pts(33))))
    return out


def _scans(rng: random.Random, tiny: bool) -> List[Scenario]:
    def pts(n, small):
        return small if tiny else n

    out = []
    dp = rng.uniform(0.0, 0.5)
    s_grid = (0.25, 20.0, pts(40, 4))
    out.append(Scenario(
        id="inversion8", workflow="inversion-scan",
        params={"line": (1, 2), "delta_p": dp}, threads=2,
        grid={"s": s_grid},
        ini=_ini({"transition": {"f_ground": 1, "f_excited": 2},
                  "fields": {"delta_p": dp},
                  "scan": {"workflow": "inversion-scan", "s_min": s_grid[0],
                           "s_max": s_grid[1], "s_points": s_grid[2]}})))
    for line, name in (((1, 2), "minabs8"), ((2, 3), "minabs12")):
        dp = rng.uniform(0.6, 0.9)
        w_grid = (0.3, 6.0, pts(20, 2))
        out.append(Scenario(
            id=name, workflow="min-absorption-scan",
            params={"line": line, "delta_p": dp}, threads=2,
            grid={"omega_p": w_grid},
            ini=_ini({"transition": {"f_ground": line[0],
                                     "f_excited": line[1]},
                      "fields": {"delta_p": dp},
                      "scan": {"workflow": "min-absorption-scan",
                               "omega_p_min": w_grid[0],
                               "omega_p_max": w_grid[1],
                               "omega_p_points": w_grid[2]}})))
    cell = dict(CELL, grid_points=pts(201, 11))
    dp = rng.uniform(0.6, 0.9)
    p_grid = (0.0, 1100.0, pts(23, 3))
    out.append(Scenario(
        id="outcurve8", workflow="output-curve",
        params={"line": (1, 2), "delta_p": dp, "cell": cell}, threads=2,
        grid={"pump": p_grid},
        ini=_ini({"transition": {"f_ground": 1, "f_excited": 2},
                  "fields": {"delta_p": dp},
                  "scan": {"workflow": "output-curve", "pump_min": p_grid[0],
                           "pump_max": p_grid[1], "pump_points": p_grid[2]},
                  "cell": cell})))
    for name, self_consistent in (("propagate_sc", True),
                                  ("propagate_numeric", False)):
        omega, dp = rng.uniform(0.35, 0.45), rng.uniform(0.6, 0.9)
        out.append(Scenario(
            id=name, workflow="propagate",
            params={"line": (1, 2), "omega_p": omega, "delta_p": dp,
                    "cell": cell, "self_consistent": self_consistent},
            threads=2,
            ini=_ini({"transition": {"f_ground": 1, "f_excited": 2},
                      "fields": {"omega_p": omega, "delta_p": dp},
                      "scan": {"workflow": "propagate", "mode": "numeric",
                               "self_consistent": self_consistent},
                      "cell": cell})))
    return out


def _populations(sid, line, omega, delta_p, t_final, t_points,
                 omega_pr=0.0):
    fields = {"omega_p": omega, "delta_p": delta_p}
    if omega_pr > 0:
        fields.update(omega_pr=omega_pr, offset=0.0)
    return Scenario(
        id=sid, workflow="populations",
        params={"line": line, "omega_p": omega, "delta_p": delta_p,
                "omega_pr": omega_pr},
        grid={"t": (0.0, t_final, t_points)},
        ini=_ini({"transition": {"f_ground": line[0], "f_excited": line[1]},
                  "fields": fields,
                  "scan": {"workflow": "populations", "t_final": t_final,
                           "t_points": t_points},
                  "numerics": {"evolve_tol": 1e-10}}))


def _evolution(rng: random.Random, tiny: bool) -> List[Scenario]:
    # detuned pumping over ~1000/Gamma: the explicit integrator's step stays
    # bounded by the detuning long after the coherences have decayed, so the
    # detuning sets a scenario's cost and its range is kept narrow. The
    # 12-level line is detuned furthest, so it is the slowest scenario on
    # every seed, and it runs for several seconds: on a small shared VM the
    # CPU speed flickers from one second to the next, and a scenario of a
    # second or so reads that flicker rather than the program.
    scale = 0.1 if tiny else 1.0
    n = 21 if tiny else 401
    out = []
    for sid, line, lo, hi in (("pop8_far", (1, 2), 3.0, 3.2),
                              ("pop10_far", (1.5, 2.5), 3.0, 3.2),
                              ("pop12_far", (2, 3), 24.5, 25.5)):
        dp = rng.uniform(lo, hi)
        omega = _sat_omega(rng.uniform(0.95, 1.05), dp)
        out.append(_populations(sid, line, omega, dp, 1000.0 * scale, n))
    omega = rng.uniform(2.5, 3.5)
    out.append(_populations("probe_coherence8", (1, 2), omega, 0.0,
                            40.0 * scale, n, omega_pr=1e-3 * omega))
    return out


def generate(workload: str, seed: int, tiny: bool = False) -> List[Scenario]:
    """Scenarios of one workload; the same seed gives the same scenarios."""
    rng = random.Random(f"{workload}:{seed}")
    return {"spectra": _spectra, "scans": _scans,
            "evolution": _evolution}[workload](rng, tiny)


def dark_line_scenarios(seed: int) -> List[Scenario]:
    """F -> F-1 lines, which have dark states. Informational only: their
    spectra exit with code 2 today (populations need no steady state and
    run), and a later fix must not read as a slowdown of a timed workload."""
    rng = random.Random(f"dark:{seed}")
    out = []
    for line in ((2, 1), (1.5, 0.5)):
        omega, dp = rng.uniform(2.5, 3.5), rng.uniform(0.0, 1.0)
        tag = f"{line[0]}-{line[1]}".replace(".", "p")
        out.append(_spectrum(f"dark_spectrum_{tag}", line, omega,
                             dp, "perpendicular", (-6.0, 6.0, 9)))
        out.append(_populations(f"dark_populations_{tag}", line, omega, dp,
                                20.0, 41))
    return out
