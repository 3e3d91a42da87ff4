"""Informational report; nothing in it gates a change.

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--skip-presets]

Runs, from the root of a source checkout:

- every workload once, printing each end-to-end metric (error_rate too) by
  name and unit;
- the ``scans`` workload again with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1
  in the children, for the pinned-against-unpinned BLAS comparison of the
  ``--threads 2`` fan-out (the gated runs leave BLAS as found);
- the F -> F-1 dark-state lines once, recording their exit codes;
- each file in ``presets/`` once through ``simulate``, recording wall time
  and exit code (the far-detuned spectra take minutes today, so they are
  not a repeated workload).

The machine block and all of the above go to ``.perfbench/report.json``.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run
from scenarios import WORKLOADS, Scenario, dark_line_scenarios, generate


# a single preset may take minutes; the 180 s limit of a gated run does not apply
TIME_LIMIT_S = 1800.0


def _runner(scenarios, env=None):
    workdir = Path(tempfile.mkdtemp(prefix="report-", dir=run.OUT_DIR))
    return (run.Runner(scenarios, workdir, run.now() + TIME_LIMIT_S, env=env),
            workdir)


def _workload(scenarios, seconds, env=None):
    runner, workdir = _runner(scenarios, env)
    try:
        recs = runner.run_for(seconds)
        metrics = run.end_to_end(recs, runner.setups(recs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"scenarios": runner.manifest, "metrics": metrics,
            "failed": [r for r in recs if not r["ok"]]}


def _single_runs(scenarios, check):
    runner, workdir = _runner(scenarios)
    try:
        return [{"id": r["id"], "rc": r["rc"], "main_s": r["main_s"],
                 "problems": r["problems"]}
                for r in (runner.run_one(s, check=check) for s in scenarios)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _presets():
    out = []
    for path in sorted((run.ROOT / "presets").glob("*.ini")):
        text = path.read_text(encoding="utf-8")
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read_string(text)
        out.append(Scenario(id=path.stem,
                            workflow=parser.get("scan", "workflow"),
                            params={}, ini=text))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--skip-presets", action="store_true")
    args = parser.parse_args(argv)
    if not run.prepare():
        return 2

    run.OUT_DIR.mkdir(exist_ok=True)
    report = {"seed": args.seed, "seconds": args.seconds,
              "machine": run.machine(), "workloads": {}}
    for workload in WORKLOADS:
        res = _workload(generate(workload, args.seed), args.seconds)
        report["workloads"][workload] = res
        print(f"{workload} seed={args.seed}")
        for name, value in res["metrics"].items():
            print(f"  {name:<22} {value:.6g} {run.END_TO_END.get(name, '1')}")
        for r in res["failed"]:
            print(f"  FAILED {r['id']}: {'; '.join(r['problems'])}")

    pinned = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    res = _workload(generate("scans", args.seed), args.seconds, env=pinned)
    report["scans_blas_pinned"] = res
    found = report["workloads"]["scans"]["metrics"]["wall_s"]
    pinned_wall = res["metrics"]["wall_s"]
    print(f"scans wall_s: {found:.4g} s as found, {pinned_wall:.4g} s with "
          f"BLAS pinned to one thread")

    report["dark_lines"] = _single_runs(dark_line_scenarios(args.seed),
                                        check=False)
    for r in report["dark_lines"]:
        print(f"dark line {r['id']}: exit code {r['rc']}")

    if not args.skip_presets:
        report["presets"] = _single_runs(_presets(), check=False)
        for r in report["presets"]:
            print(f"preset {r['id']}: exit code {r['rc']}, "
                  f"{r['main_s']:.3f} s")

    path = run.OUT_DIR / "report.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"report: {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
