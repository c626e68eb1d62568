"""In-memory spans recorded around calls into the program under test.

A span is (name, start, end, parent, work): ``parent`` is the index of the
span that was open when this one began (-1 at top level) and ``work`` is a
tuple of counts taken at the boundary. Spans are recorded by wrapping
functions from outside; the program's own source is not touched.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    work: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


Counter = Callable[[tuple, dict, object], tuple]


class Tracer:
    """Wraps functions and methods so each call records one span.

    ``patch_function`` replaces every binding of a function in the loaded
    modules of a package, because modules that import with ``from .x import
    y`` hold their own reference. ``close`` restores every original.
    """

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, count: Counter | None = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                work = count(args, kwargs, result) if count else ()
                spans[idx] = Span(name, start, end, parent, work)

        return traced

    def patch_function(
        self, package: str, module: str, attr: str, name: str,
        count: Counter | None = None,
    ) -> int:
        """Wrap ``module.attr`` under every name bound to it; return the count."""
        original = getattr(sys.modules[module], attr)
        traced = self.wrap(original, name, count)
        bound = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, traced)
                    bound += 1
        return bound

    def patch_method(
        self, cls: type, attr: str, name: str, count: Counter | None = None
    ) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, count))

    def close(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def finished(self) -> list[Span]:
        """Spans of completed calls, in start order."""
        if self._stack:
            raise RuntimeError("spans are still open")
        return list(self.spans)


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered(span.start, span.end, kids)
        for span, kids in zip(spans, children)
    ]


def to_json_obj(spans: list[Span]) -> list[list]:
    return [[s.name, s.start, s.end, s.parent, list(s.work)] for s in spans]


def call_overhead(calls: int = 20_000, batches: int = 5) -> float:
    """Median extra seconds a call through ``Tracer.wrap`` costs over a plain
    call, on a no-op without a counter."""

    def noop():
        return None

    clock = time.perf_counter
    extra = []
    for _ in range(batches):
        with Tracer() as tracer:
            traced = tracer.wrap(noop, "noop")
            start = clock()
            for _ in range(calls):
                traced()
            wrapped = clock() - start
        start = clock()
        for _ in range(calls):
            noop()
        plain = clock() - start
        extra.append((wrapped - plain) / calls)
    return statistics.median(extra)
