"""Outside-in tracing of the twolayer_opt layers.

The benchmark wraps the public functions of each module from outside the
package: every module global bound to a traced function is swapped for a
wrapper that records one span per call, so a name imported with
``from .model import grad_W`` is traced as well as ``model.grad_W``.
Activations are frozen dataclasses, so ``builtin_activation`` is redirected
to copies whose ``eval``/``deriv`` are wrapped (``dataclasses.replace``).

Spans stay in memory; the caller writes them out once, at exit.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

PACKAGE = "twolayer_opt"

# One span name per function, named after the module that defines it.
FUNCTIONS = (
    "optimizer.run", "optimizer.inner_sgd",
    "model.stationarity_system", "model.grad_W",
    "diagnostics.column_sigma_extremes", "diagnostics.lipschitz_ball_bound",
    "diagnostics.certify",
    "activations.eval", "activations.deriv",
    "dataset.make_realizable", "dataset.save", "dataset.load",
    "cli.write_trajectory_csv", "cli.read_trajectory_csv",
    "cli.suite_theorem2", "cli.suite_certify",
)
ACTIVATION_FIELDS = ("eval", "deriv")
COUNTERS = ("model.stationarity_system.bytes", "cli.write_trajectory_csv.bytes",
            "dataset.save.bytes")
P90_MIN_CALLS = 100


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None   # enclosing span on the same thread
    thread: int
    error: bool


class Tracer:
    """Collects spans, byte counters and the (params, record) pairs that
    ``optimizer.run`` returns."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.runs: list[tuple] = []   # (activation name, dataset, params, record)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, counter: str, amount: int) -> None:
        with self._lock:
            self.counters[counter] += amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped to record a span; ``after(tracer, args, result)``
        runs once the call has returned."""
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            error = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident(), error))
            if after is not None:
                after(self, args, result)
            return result
        return traced


def _after_stationarity(tracer, args, system):
    tracer.add("model.stationarity_system.bytes", system.D.nbytes)


def _after_write_trajectory(tracer, args, result):
    tracer.add("cli.write_trajectory_csv.bytes", os.path.getsize(args[0]))


def _after_save(tracer, args, result):
    path = Path(args[1])
    tracer.add("dataset.save.bytes", os.path.getsize(path)
               + os.path.getsize(path.with_suffix(".meta.json")))


def _after_run(tracer, args, result):
    activation, ds = args[0], args[1]
    params, record = result
    tracer.runs.append((activation.name, ds, params, record))


AFTER = {
    "model.stationarity_system": _after_stationarity,
    "cli.write_trajectory_csv": _after_write_trajectory,
    "dataset.save": _after_save,
    "optimizer.run": _after_run,
}


def _package_modules() -> list:
    importlib.import_module(f"{PACKAGE}.cli")   # imports every layer
    return [m for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def _rebind(modules, original, replacement, patches: list) -> None:
    for module in modules:
        names = [k for k, v in vars(module).items() if v is original]
        for key in names:
            patches.append((module, key, original))
            setattr(module, key, replacement)


@contextmanager
def traced(tracer: Tracer):
    """Route every traced function of the package through ``tracer`` for
    the duration of the block, then restore the originals."""
    modules = _package_modules()
    patches: list = []
    try:
        for qualname in FUNCTIONS:
            mod_name, attr = qualname.split(".")
            if mod_name == "activations":
                continue
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            original = getattr(module, attr)
            _rebind(modules, original,
                    tracer.wrap(qualname, original, AFTER.get(qualname)), patches)

        acts = importlib.import_module(f"{PACKAGE}.activations")
        lookup = acts.builtin_activation
        wrapped = {}
        for name in acts.ACTIVATION_NAMES:
            a = lookup(name)
            wrapped[name] = dataclasses.replace(a, **{
                f: tracer.wrap(f"activations.{f}", getattr(a, f))
                for f in ACTIVATION_FIELDS})

        def traced_lookup(name):
            lookup(name)   # raises the package's own error for unknown names
            return wrapped[name]

        _rebind(modules, lookup, traced_lookup, patches)
        yield tracer
    finally:
        for module, key, original in reversed(patches):
            setattr(module, key, original)


# ------------------------------------------------------------- arithmetic

def union_length(intervals) -> float:
    """Length of the union of intervals (start, end)."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval that its child
    spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id] if c.end > s.start and c.start < s.end)
        out[s.id] = (s.end - s.start) - covered
    return out


def concurrency(spans, name: str) -> float:
    """Summed duration of ``name`` spans over the union of their intervals:
    1.0 when they never overlap."""
    intervals = [(s.start, s.end) for s in spans if s.name == name]
    union = union_length(intervals)
    return sum(e - s for s, e in intervals) / union if union > 0 else 0.0


def has_ancestor(span, name: str, by_id: dict) -> bool:
    parent = span.parent
    while parent is not None:
        p = by_id[parent]
        if p.name == name:
            return True
        parent = p.parent
    return False


def layer_table(spans, names=FUNCTIONS) -> dict:
    """Per function: calls, total_s, self_s, p50_ms, p90_ms (None below
    P90_MIN_CALLS calls) and errors."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    table = {}
    for name in names:
        group = by_name.get(name, [])
        durations_ms = [(s.end - s.start) * 1e3 for s in group]
        p90 = None
        if len(durations_ms) >= P90_MIN_CALLS:
            p90 = statistics.quantiles(durations_ms, n=10)[-1]
        table[name] = {
            "calls": len(group),
            "total_s": sum(durations_ms) / 1e3,
            "self_s": sum(selfs[s.id] for s in group),
            "p50_ms": statistics.median(durations_ms) if group else None,
            "p90_ms": p90,
            "errors": sum(s.error for s in group),
        }
    return table
