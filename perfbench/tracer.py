"""In-memory spans around the public layer functions of ``mirrorless``.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``mirrorless`` module (the defining module's attribute and the names
imported into ``cli``, ``spectra``, ``propagation`` and the rest) by one
wrapper, and ``restore`` puts the originals back. Traced are the functions
of the layer modules that ``mirrorless.__all__`` exports, plus
``cli.parse_config`` and the result-table writers when they exist.

Each span records its name, start, end, parent span and the scenario id.
The parent comes from a thread-local stack, so spans opened by ``--threads``
workers are roots of their own thread. A span's self time is its duration
minus its children's durations and minus the time its probe spent reading
counts off the result. Spans stay in memory; ``summary`` reduces them to the
per-layer figures of one scenario and ``merge`` adds scenarios up.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
import types
from typing import Callable, Dict, List, Optional

import numpy as np

LAYERS = ("angular", "levels", "dynamics", "spectra", "propagation")
# layers reported as a whole rather than per function
WHOLE_LAYERS = ("angular", "levels")
# figures combined by maximum across calls and scenarios; all others add up
MAX_FIELDS = ("window_max", "residual_max")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Span:
    __slots__ = ("name", "scenario", "parent", "thread", "start", "end",
                 "probe_s", "children_s", "info")

    def __init__(self, name: str, scenario: str, parent: Optional["Span"]):
        self.name = name
        self.scenario = scenario
        self.parent = parent
        self.thread = threading.get_ident()
        self.probe_s = 0.0
        self.children_s = 0.0
        self.info: Dict[str, float] = {}


def _combine(figures: Dict[str, float], key: str, value: float) -> None:
    if key.rsplit(".", 1)[-1] in MAX_FIELDS:
        figures[key] = max(figures.get(key, value), value)
    else:
        figures[key] = figures.get(key, 0) + value


def _bound(fn: Callable, args, kwargs) -> Dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _probe_correlation(fn, args, kwargs, result, info):
    # record absent keys as absent: a later route may not sample at all
    meta = getattr(result, "metadata", {}) or {}
    if "n_samples" in meta:
        info["samples"] = int(meta["n_samples"])
    if "window" in meta:
        info["window_max"] = float(meta["window"])


def _probe_points(fn, args, kwargs, result, info):
    info["points"] = len(result.delta)


def _probe_evolve(fn, args, kwargs, result, info):
    info["samples"] = len(result.times)


def _probe_steady_state(fn, args, kwargs, result, info):
    L = _bound(fn, args, kwargs)["L"]
    info["residual_max"] = float(np.max(np.abs(L.apply(result))))


PROBES = {
    "spectra.correlation_spectrum": _probe_correlation,
    "spectra.weak_probe_absorption": _probe_points,
    "spectra.resolvent_spectrum": _probe_points,
    "dynamics.evolve": _probe_evolve,
    "dynamics.steady_state": _probe_steady_state,
}


class Tracer:
    """Wraps the layer functions while installed; see the module docstring."""

    def __init__(self, scenario: str):
        self.scenario = scenario
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patched: List[tuple] = []
        self._main_thread = threading.get_ident()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = Span(name, tracer.scenario, stack[-1] if stack else None)
            tracer.spans.append(span)  # list.append is atomic
            stack.append(span)
            span.start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = _now()
            if probe is not None:
                probe(fn, args, kwargs, result, span.info)
                done = _now()
                span.probe_s = done - span.end
                span.end = done
            return result

        return traced

    def install(self) -> None:
        cli = sys.modules["mirrorless.cli"]
        exported = sys.modules["mirrorless"].__all__
        wrappers: Dict[Callable, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"mirrorless.{layer}"]
            for attr in exported:
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType) \
                        and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        parse = getattr(cli, "parse_config", None)
        if isinstance(parse, types.FunctionType):
            wrappers[parse] = self._wrap("cli.parse_config", parse)
        for modname, mod in list(sys.modules.items()):
            if modname.partition(".")[0] != "mirrorless":
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        table = getattr(cli, "ResultTable", None)
        for attr in ("write_csv", "write_json"):
            fn = getattr(table, attr, None)
            if isinstance(fn, types.FunctionType):
                self._patched.append((table, attr, fn))
                setattr(table, attr, self._wrap("cli.write", fn))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> Dict:
        """Per-layer figures of this scenario (see ``merge``)."""
        for s in self.spans:
            if s.parent is not None:
                s.parent.children_s += s.end - s.start
        figures: Dict[str, float] = {}

        def add(key, value):
            _combine(figures, key, value)

        for s in self.spans:
            self_s = (s.end - s.start) - s.probe_s - s.children_s
            layer = s.name.split(".", 1)[0]
            name = layer if layer in WHOLE_LAYERS else s.name
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", self_s)
            for key, value in s.info.items():
                add(f"{name}.{key}", value)
        workers = [s for s in self.spans
                   if s.parent is None and s.thread != self._main_thread]
        if workers:
            add("cli.fanout.busy_s", sum(s.end - s.start for s in workers))
            add("cli.fanout.wall_s", max(s.end for s in workers)
                - min(s.start for s in workers))
        return {"scenario": self.scenario, "spans": len(self.spans),
                "figures": figures}


def merge(summaries: List[Dict]) -> Dict[str, float]:
    """Add up per-scenario figures (maximum for the MAX_FIELDS ones) and
    derive the ratios."""
    out: Dict[str, float] = {}
    for summ in summaries:
        for key, value in summ["figures"].items():
            _combine(out, key, value)
    wall = out.pop("cli.fanout.wall_s", 0.0)
    busy = out.pop("cli.fanout.busy_s", 0.0)
    out["cli.fanout.concurrency"] = busy / wall if wall > 0 else 0.0
    points = out.get("spectra.weak_probe_absorption.points", 0)
    out["spectra.weak_probe_absorption.s_per_point"] = (
        out.get("spectra.weak_probe_absorption.self_s", 0.0) / points
        if points else 0.0)
    return out
