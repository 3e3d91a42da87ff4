"""Run one scenario through ``mirrorless.cli.main`` in a fresh process.

Usage: python3 perfbench/child.py REPORT_JSON [--trace SCENARIO_ID] -- ARGV...

Writes REPORT_JSON with the CLOCK_MONOTONIC instant at which
``mirrorless.cli`` was imported and ready (the parent subtracts its spawn
instant; CLOCK_MONOTONIC is one system-wide clock, so the two processes
compare), the time spent in ``main(ARGV)``, its exit code and the peak RSS
of this process. With ``--trace`` the layer functions are wrapped for the
duration of the call and the per-layer summary is added to the report.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _main() -> int:
    from mirrorless.cli import main
    ready = _now()

    import json
    import resource
    import traceback

    report_path = sys.argv[1]
    split = sys.argv.index("--")
    opts, argv = sys.argv[2:split], sys.argv[split + 1:]
    tracer = None
    if opts[:1] == ["--trace"]:
        from tracer import Tracer
        tracer = Tracer(opts[1])

    if not argv:  # set-up only
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({"ready": ready}, fh)
        return 0
    report = {"ready": ready,
              "mirrorless_file": sys.modules["mirrorless.cli"].__file__}
    if tracer:
        tracer.install()
    t0 = _now()
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an escaped exception is a failed scenario, not a crash
        rc = 1
        report["traceback"] = traceback.format_exc()
    report["main_s"] = _now() - t0
    if tracer:
        tracer.restore()
        report["trace"] = tracer.summary()
    report["rc"] = rc
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
