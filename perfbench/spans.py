"""Spans around roadfield's public functions, recorded from the benchmark's side.

:class:`Tracer` replaces selected public functions of ``params``,
``dispersion``, ``simulate``, ``analysis`` and ``cli`` with timing wrappers,
in every roadfield module that holds a reference to them, and restores the
originals on exit.  Each call becomes a span (name, start, end, parent);
a call made on a worker thread with no open span of its own takes the open
CLI span as its parent, so the sweep pool's solves count as children of the
``sweep`` command.  Spans are folded into per-name totals as they close.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

# layer -> public functions wrapped; span names are "<layer>.<function>"
TRACED = {
    "params": ["normalize_nu", "check_kpp"],
    "dispersion": ["critical_speed", "curve_gap", "strip_critical_speed", "limit_speed",
                   "intersections", "gamma_plus_threshold"],
    "simulate": ["run", "step", "total_mass", "init_state", "write_mass_csv"],
    "analysis": ["front_series", "fit_speed", "is_ordered", "steady_error"],
}
REACTION = "params.reaction"          # ReactionFunction.__call__
RUN_SUBTRACTED = (REACTION, "simulate.total_mass")


@dataclass
class _Span:
    name: str
    start: float
    parent: "_Span | None"
    children: list[tuple[float, float, str]] = field(default_factory=list)


@dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0


def _union_length(intervals: list[tuple[float, float, str]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end, _ in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    """Context manager that wraps the traced functions while it is open."""

    def __init__(self):
        self.totals: defaultdict[str, Totals] = defaultdict(Totals)
        self.run_steps = 0
        self.run_cell_updates = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._cli_span: _Span | None = None
        self._patches: list[tuple[object, str, object]] = []

    # --- span bookkeeping -------------------------------------------------------

    def _open(self, name: str) -> _Span:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._cli_span
        span = _Span(name, time.perf_counter(), parent)
        stack.append(span)
        return span

    def _close(self, span: _Span) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        dur = end - span.start
        with self._lock:
            t = self.totals[span.name]
            t.calls += 1
            t.seconds += dur
            if span.parent is not None:
                span.parent.children.append((span.start, end, span.name))
            if span.name == "simulate.run":
                inner = sum(e - s for s, e, n in span.children if n in RUN_SUBTRACTED)
                self.totals["simulate.run_self"].seconds += dur - inner
                self.totals["params.reaction_in_run"].seconds += sum(
                    e - s for s, e, n in span.children if n == REACTION)
            if span.name.startswith("cli."):
                self.totals["cli.self"].calls += 1
                self.totals["cli.self"].seconds += dur - _union_length(span.children)
                if span.name == "cli.simulate":
                    self.totals["dispersion.in_simulate"].seconds += sum(
                        e - s for s, e, n in span.children if n.startswith("dispersion."))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    def _wrap_run(self, fn):
        sig = inspect.signature(fn)
        timed = self._wrap("simulate.run", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            grid, t_end = bound.arguments["grid"], bound.arguments["t_end"]
            steps = max(0, math.ceil(t_end / grid.dt - 1e-9))
            with self._lock:
                self.run_steps += steps
                self.run_cell_updates += steps * grid.nx * grid.ny
            return timed(*args, **kwargs)
        return wrapper

    def _wrap_cli_main(self, fn):
        @functools.wraps(fn)
        def wrapper(argv):
            span = self._open("cli." + argv[0])
            self._cli_span = span
            try:
                return fn(argv)
            finally:
                self._cli_span = None
                self._close(span)
        return wrapper

    # --- patching ---------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "roadfield" or mod_name.startswith("roadfield."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, replacement)

    def __enter__(self) -> "Tracer":
        from roadfield import analysis, cli, dispersion, params, simulate

        modules = {"params": params, "dispersion": dispersion, "simulate": simulate,
                   "analysis": analysis}
        for layer, names in TRACED.items():
            for attr in names:
                fn = getattr(modules[layer], attr)
                wrapped = self._wrap_run(fn) if attr == "run" and layer == "simulate" \
                    else self._wrap(f"{layer}.{attr}", fn)
                self._replace_everywhere(fn, wrapped)
        self._replace_everywhere(cli.main, self._wrap_cli_main(cli.main))
        call = params.ReactionFunction.__call__
        self._patches.append((params.ReactionFunction, "__call__", call))
        params.ReactionFunction.__call__ = self._wrap(REACTION, call)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
