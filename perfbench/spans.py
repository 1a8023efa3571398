"""Span recorder for the traced benchmark run.

The traced run wraps public ``pairq`` functions from the outside: every
module attribute of the package that is bound to a listed function is
replaced by a wrapper that records a span (name, start, end, parent) and,
where a hook is given, counts read from the call's arguments and result.
Spans stay in memory; per-layer metrics are derived from them once the
workload has finished.

A span's self time is its duration minus the part of that interval its
child spans cover. The tracer's own cost (span bookkeeping and hooks,
measured around each wrapped call) is summed separately; a child's
bookkeeping falls inside its parent's span and so in the parent's self
time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pkgutil
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    run_start = run_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span, in the order given."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        s.duration - covered_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Collects spans and counters for one traced workload pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.bookkeeping_s = 0.0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._muted = 0

    @contextlib.contextmanager
    def muted(self):
        """Calls made inside this block record no spans or counts."""
        self._muted += 1
        try:
            yield
        finally:
            self._muted -= 1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, 0.0, 0.0, parent)
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        span = self._open(name)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.bookkeeping_s += (span.start - t0) + (time.perf_counter() - span.end)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._muted:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            self.bookkeeping_s += (span.start - t0) + (time.perf_counter() - span.end)
            return result

        return traced

    def install(self, package, targets: dict) -> None:
        """Wrap ``module.function`` targets wherever the package binds them.

        ``targets`` maps names such as ``"quantizer.kmeans"`` to a hook
        ``hook(tracer, span, args, kwargs, result)`` or None.
        """
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for name, hook in targets.items():
            module_name, attr = name.split(".")
            home = importlib.import_module(f"{package.__name__}.{module_name}")
            original = getattr(home, attr)
            wrapped = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for module, key, value in reversed(self._restore):
            setattr(module, key, value)
        self._restore.clear()

    def totals(self):
        """Per span name: (call count, total seconds, self seconds), and the
        same keyed by (name, tag) for tagged spans."""
        selfs = self_times(self.spans)
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        by_tag = defaultdict(lambda: [0, 0.0, 0.0])
        for span, own in zip(self.spans, selfs):
            for table, key in ((by_name, span.name), (by_tag, (span.name, span.tag))):
                row = table[key]
                row[0] += 1
                row[1] += span.duration
                row[2] += own
        return by_name, by_tag
