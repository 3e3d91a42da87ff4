"""End-to-end and per-layer benchmark of the mirrorless simulator.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The seed fixes the generated INI scenarios (see scenarios.py).
Each scenario goes through ``mirrorless.cli.main`` in a fresh child
process, one at a time, after one untimed warm-up child. The scenarios run
in turn, over and over, for ``--seconds``: each runs at least once, and
after that a child starts only if the time its scenario took last round
still fits. Outputs are checked after each child exits, outside the timed
region; a failed check or a non-zero exit counts as a failed scenario and
never aborts the run.

With ``--trace 0`` the last line reports the end-to-end metrics:

- setup_s: spawn until ``mirrorless.cli`` is imported, median over children;
- wall_s: time inside ``main(argv)``, each scenario's median over its runs,
  summed over the scenarios;
- slowest_scenario_s: the largest of those per-scenario medians;
- success_rate: 1 - error_rate, the share of scenario runs that exited 0 and
  passed their check (error_rate itself reads 0 when all is well, and a
  gated metric must never read 0);
- accuracy_digits: -log10 of the worst relative gap between an output and
  its reference route, clamped at 1e-12;
- rss_peak_mb: peak resident memory of any child.

With ``--trace 1`` the same untraced runs happen, then one more pass with
every layer function wrapped (tracer.py), and the last line reports the
per-layer figures of that traced pass. Everything, including the seed and
each INI file's SHA-256, goes to a results file under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from scenarios import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
# a gated run must end within 180 s; stop starting work well before that
RUN_LIMIT_S = 165.0
# set-up time is a median over at least this many children per run
MIN_SETUPS = 10

END_TO_END = {"setup_s": "s", "wall_s": "s", "slowest_scenario_s": "s",
              "success_rate": "1", "accuracy_digits": "digits",
              "rss_peak_mb": "MB"}

PER_LAYER = {
    "spectra.correlation_spectrum.calls": "count",
    "spectra.correlation_spectrum.self_s": "s",
    "spectra.correlation_spectrum.samples": "count",
    "spectra.correlation_spectrum.window_max": "1/Gamma",
    "spectra.correlation_spectrum.err_vs_resolvent": "1",
    "spectra.weak_probe_absorption.calls": "count",
    "spectra.weak_probe_absorption.self_s": "s",
    "spectra.weak_probe_absorption.points": "count",
    "spectra.weak_probe_absorption.s_per_point": "s",
    "spectra.weak_probe_absorption.gap_vs_regression": "1",
    "spectra.resolvent_spectrum.calls": "count",
    "spectra.resolvent_spectrum.self_s": "s",
    "spectra.resolvent_spectrum.points": "count",
    "dynamics.steady_state.calls": "count",
    "dynamics.steady_state.self_s": "s",
    "dynamics.steady_state.residual_max": "1",
    "dynamics.evolve.calls": "count",
    "dynamics.evolve.self_s": "s",
    "dynamics.evolve.samples": "count",
    "dynamics.evolve.err_vs_expm": "1",
    "dynamics.build_liouvillian.calls": "count",
    "dynamics.build_liouvillian.self_s": "s",
    "propagation.transport_coefficients.calls": "count",
    "propagation.transport_coefficients.self_s": "s",
    "propagation.propagate.calls": "count",
    "propagation.propagate.self_s": "s",
    "propagation.propagate.numeric_vs_closed": "1",
    "levels.calls": "count",
    "levels.self_s": "s",
    "angular.calls": "count",
    "angular.self_s": "s",
    "cli.parse_config.self_s": "s",
    "cli.write.self_s": "s",
    "cli.fanout.concurrency": "1",
    "trace.overhead_s": "s",
}

# per-layer accuracy figures taken from the output checks of the traced pass
CHECK_FIGURES = {
    "spectrum": {"gap": "spectra.correlation_spectrum.err_vs_resolvent",
                 "weak_probe_gap":
                     "spectra.weak_probe_absorption.gap_vs_regression"},
    "populations": {"gap": "dynamics.evolve.err_vs_expm"},
    "propagate": {"gap": "propagation.propagate.numeric_vs_closed"},
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> Dict:
    """The machine and libraries the figures were measured on."""
    import numpy
    import scipy
    blas = getattr(numpy.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {
        "nproc": nproc,
        "platform": platform.platform(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "MIRRORLESS_PURE_NUMPY": os.environ.get("MIRRORLESS_PURE_NUMPY"),
        "git_commit": _git_commit(),
    }


class Runner:
    """Writes a workload's INI files and runs them in child processes."""

    def __init__(self, scenarios, workdir: Path, deadline: float,
                 env: Optional[Dict[str, str]] = None):
        from checks import Checker
        self.scenarios = scenarios
        self.workdir = workdir
        self.deadline = deadline
        self.env = env
        self.checker = Checker()
        self.manifest = []
        for s in scenarios:
            path = workdir / f"{s.id}.ini"
            path.write_text(s.ini, encoding="utf-8")
            self.manifest.append({
                "id": s.id, "workflow": s.workflow,
                "threads": s.threads, "file": path.name,
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest()})

    def run_one(self, s, trace: bool = False, check: bool = True) -> Dict:
        ini = self.workdir / f"{s.id}.ini"
        out = self.workdir / f"{s.id}.csv"
        report = self.workdir / f"{s.id}.report.json"
        for stale in (out, report):
            stale.unlink(missing_ok=True)
        argv = [str(ini), "--output", str(out)]
        if s.threads > 1:
            argv += ["--threads", str(s.threads)]
        cmd = [sys.executable, str(HERE / "child.py"), str(report)]
        cmd += (["--trace", s.id] if trace else []) + ["--"] + argv
        rec = {"id": s.id, "workflow": s.workflow, "ok": False,
               "problems": [], "main_s": 0.0, "setup_s": None,
               "rss_mb": None, "rc": None}
        remaining = self.deadline - now()
        if remaining <= 1.0:
            rec["problems"].append("not run: run time limit reached")
            return rec
        spawn = now()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            rec["problems"].append("killed: run time limit reached")
            return rec
        try:
            rep = json.loads(report.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            rec["problems"].append(f"child crashed: {proc.stderr[-400:]}")
            return rec
        rec.update(setup_s=rep["ready"] - spawn, main_s=rep["main_s"],
                   rc=rep["rc"], rss_mb=rep["rss_kb"] / 1024.0)
        if "trace" in rep:
            rec["trace"] = rep["trace"]
        if not Path(rep["mirrorless_file"]).is_relative_to(SRC):
            rec["problems"].append("mirrorless imported from outside src/")
        if rep["rc"] != 0:
            rec["problems"].append(f"exit code {rep['rc']}: "
                                   f"{proc.stderr.strip()[-400:]}")
        elif check:
            outcome = self.checker.check(s, out)
            rec["problems"] += outcome.problems
            rec["gap"] = outcome.gap
            rec["weak_probe_gap"] = outcome.weak_probe_gap
        rec["ok"] = not rec["problems"]
        return rec

    def setup_only(self) -> Optional[float]:
        """Spawn a child that only imports the program; its set-up time."""
        report = self.workdir / "setup.report.json"
        report.unlink(missing_ok=True)
        spawn = now()
        try:
            subprocess.run([sys.executable, str(HERE / "child.py"),
                            str(report), "--"], cwd=ROOT, env=self.env,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL,
                           timeout=max(1.0, self.deadline - now()))
            return json.loads(report.read_text(encoding="utf-8"))["ready"] \
                - spawn
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return None

    def setups(self, recs: List[Dict]) -> List[float]:
        """Set-up times of the scenario children, topped up with import-only
        children to at least MIN_SETUPS samples."""
        times = [r["setup_s"] for r in recs if r["setup_s"] is not None]
        while len(times) < MIN_SETUPS and now() < self.deadline - 10.0:
            t = self.setup_only()
            if t is None:
                break
            times.append(t)
        return times

    def run_pass(self, trace: bool = False) -> List[Dict]:
        return [self.run_one(s, trace) for s in self.scenarios]

    def run_for(self, seconds: float) -> List[Dict]:
        """The scenarios in turn for ``seconds``: one whole round, then each
        child only if the time its scenario took last round, set-up and
        check included, still fits; the first one that does not ends the
        run, so no scenario runs twice more often than another."""
        start = now()
        took: Dict[str, float] = {}
        recs: List[Dict] = []
        while True:
            for s in self.scenarios:
                if s.id in took and (now() - start + took[s.id] > seconds
                                     or now() + took[s.id]
                                     > self.deadline - 60.0):
                    return recs
                t0 = now()
                recs.append(self.run_one(s))
                took[s.id] = now() - t0


def prepare() -> bool:
    """Put the checkout's sources on the path; False when there are none."""
    if not (SRC / "mirrorless" / "cli.py").is_file():
        print(f"no mirrorless sources under {SRC}; run from the root of a "
              f"source checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def end_to_end(recs: List[Dict], setups: List[float]) -> Dict[str, float]:
    """Times are medians over each scenario's runs, so one disturbed run
    moves no scenario; ``setups`` holds every child's set-up time."""
    from checks import digits
    failed = sum(not r["ok"] for r in recs)
    runs: Dict[str, List[float]] = {}
    for r in recs:
        runs.setdefault(r["id"], []).append(r["main_s"])
    typical = [statistics.median(times) for times in runs.values()]
    gaps = [r["gap"] for r in recs if r.get("gap") is not None]
    rss = [r["rss_mb"] for r in recs if r["rss_mb"] is not None]
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": sum(typical),
        "slowest_scenario_s": max(typical),
        "success_rate": 1.0 - failed / len(recs),
        "error_rate": failed / len(recs),
        "accuracy_digits": min(digits(g) for g in gaps) if gaps else 0.0,
        "rss_peak_mb": max(rss) if rss else 0.0,
    }


def per_layer(traced: List[Dict], untraced_wall: float):
    """Per-layer figures of the traced pass, and the names a route did not
    report although its function ran."""
    from tracer import merge
    figures = merge([r["trace"] for r in traced if "trace" in r])
    for r in traced:
        for field, name in CHECK_FIGURES.get(r["workflow"], {}).items():
            if r.get(field) is not None:
                figures[name] = max(figures.get(name, 0.0), r[field])
    figures["trace.overhead_s"] = sum(r["main_s"] for r in traced) \
        - untraced_wall
    absent = []
    for name in PER_LAYER:
        if name in figures:
            continue
        calls = figures.get(name.rsplit(".", 1)[0] + ".calls", 0)
        if calls:
            absent.append(name)
        figures[name] = 0
    return figures, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every grid (smoke test only)")
    args = parser.parse_args(argv)
    start = now()

    if not prepare():
        return 2
    scenarios = generate(args.workload, args.seed, tiny=args.tiny)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        runner = Runner(scenarios, workdir, start + RUN_LIMIT_S)
        runner.setup_only()  # warm-up, not counted
        untraced = runner.run_for(args.seconds)
        metrics = end_to_end(untraced, runner.setups(untraced))
        traced = runner.run_pass(trace=True) if args.trace else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    recs = untraced + traced
    failed = sum(not r["ok"] for r in recs)
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "tiny": args.tiny,
              "scenarios": runner.manifest, "machine": machine(),
              "metrics": metrics, "runs": untraced}
    lines = [f"{args.workload} seed={args.seed} runs={len(untraced)} "
             f"scenarios={len(scenarios)} attempted={len(recs)} "
             f"failed={failed}"]
    lines += [f"  {k:<22} {v:.6g} {END_TO_END.get(k, '1')}"
              for k, v in metrics.items()]
    if args.trace:
        layers, absent = per_layer(traced, metrics["wall_s"])
        result.update(traced_pass=traced, per_layer=layers, absent=absent)
        lines += [f"  {k:<50} {layers[k]:.6g} {u}"
                  for k, u in PER_LAYER.items()]
        reported = {k: {"value": layers[k], "unit": u}
                    for k, u in PER_LAYER.items()}
    else:
        reported = {k: {"value": metrics[k], "unit": u}
                    for k, u in END_TO_END.items()}
    for r in recs:
        if not r["ok"]:
            lines.append(f"  FAILED {r['id']}: {'; '.join(r['problems'])}")
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                          f"-{time.strftime('%Y%m%dT%H%M%S')}.json")
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print("\n".join(lines))
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(recs),
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
