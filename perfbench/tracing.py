"""Layer tracing installed from outside the program.

:func:`install` wraps the public functions of the xpchaos layers (and the
public methods of ``LengthCocycle``) in every module namespace that holds
them, so ``harness.lp_norm`` is traced as well as ``norms.lp_norm``.  Calls
to ``numpy.fft.ifftn`` are counted wherever they come from.

Each wrapped call is timed on a stack: its self time is its duration minus
the time covered by the wrapped calls it made.  Calls that happen once per
coefficient or key (lengths, pairings, word arithmetic, key canonicalization)
are aggregated only; every other call is also kept as a span
``(id, parent, name, start, end)`` in memory and written out by
:meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("groups", "words", "cocycles", "operators", "norms", "harness", "cli")

#: per-key or per-coefficient calls (and all of ``words``): timed and
#: counted, never kept as spans
LEAVES = {
    "cocycles.psi", "cocycles.pairing", "cocycles.gromov_form",
    "cocycles.gromov_form_defining", "cocycles.gromov_bilinear",
    "groups.canonical_key", "groups.element_inverse", "groups.element_product",
    "groups.is_mean_zero", "groups.trace", "operators.in_truncation_range",
}

IFFTN = "numpy.fft.ifftn"


class Tracer:
    """Spans, self times and counters of one traced run."""

    def __init__(self) -> None:
        self.active = False
        self._stack: list[list] = []          # [span id, start, child time]
        self._next_id = 1
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.trial_calls: Counter = Counter()  # (name, tag) -> calls inside scans
        self.trial_durations: defaultdict = defaultdict(list)
        self.trials: Counter = Counter()       # tag -> trials evaluated
        self.in_trials = False

    # -- scopes set by the benchmark ------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as one operation of a pass."""
        if not self.active:
            yield
            return
        frame = self._enter()
        try:
            yield
        finally:
            self._leave(name, frame)

    @contextlib.contextmanager
    def trials_scope(self, tags: tuple[str, ...], trials: int):
        """Attribute the calls made inside to ensemble trials under ``tags``."""
        if not self.active:
            yield
            return
        before = self.calls.copy()
        self.in_trials = True
        try:
            yield
        finally:
            self.in_trials = False
            made = self.calls - before
            for tag in tags:
                self.trials[tag] += trials
                for name, count in made.items():
                    self.trial_calls[name, tag] += count

    # -- the wrapped calls --------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, name: str, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        span_id, start, child = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.self_time[name] += duration - child
        parent = self._stack[-1][0] if self._stack else 0
        self.spans.append((span_id, parent, name, start, end))
        return duration

    def timed(self, name: str, fn, leaf: bool):
        calls, self_time, stack, clock = self.calls, self.self_time, self._stack, time.perf_counter

        @functools.wraps(fn)
        def leaf_wrapper(*args, **kwargs):
            calls[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_time[name] += duration
                if stack:
                    stack[-1][2] += duration

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            calls[name] += 1
            frame = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self._leave(name, frame)
                if self.in_trials:
                    self.trial_durations[name].append(duration)

        return leaf_wrapper if leaf else span_wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans, one JSON array per line: id, parent, name, start, end."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _is_leaf(qualname: str) -> bool:
    return qualname in LEAVES or qualname.startswith("words.")


def _public_functions(module, layer: str):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield f"{layer}.{name}", obj


def install(tracer: Tracer):
    """Wrap every layer's public functions; returns a callable that undoes it."""
    import numpy
    import xpchaos
    from xpchaos import cocycles

    originals: dict[str, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"xpchaos.{layer}"]
        for qualname, fn in _public_functions(module, layer):
            originals[qualname] = fn
    namespaces = [xpchaos] + [module for name, module in sys.modules.items()
                              if name.startswith("xpchaos.")]
    undo: list[tuple[object, str, object]] = []
    for qualname, fn in originals.items():
        wrapper = tracer.timed(qualname, fn, _is_leaf(qualname))
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is fn:
                    undo.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)
    for attr, value in list(vars(cocycles.LengthCocycle).items()):
        if not attr.startswith("_") and inspect.isfunction(value):
            qualname = f"cocycles.{attr}"
            undo.append((cocycles.LengthCocycle, attr, value))
            setattr(cocycles.LengthCocycle, attr,
                    tracer.timed(qualname, value, _is_leaf(qualname)))
    undo.append((numpy.fft, "ifftn", numpy.fft.ifftn))
    numpy.fft.ifftn = tracer.counted(IFFTN, numpy.fft.ifftn)
    tracer.active = True

    def uninstall() -> None:
        tracer.active = False
        for namespace, attr, value in reversed(undo):
            setattr(namespace, attr, value)

    return uninstall
