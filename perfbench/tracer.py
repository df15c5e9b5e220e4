"""Spans around calls into causalboot's layers, for the traced run.

A span is recorded around each call of a wrapped function, at the name the
calling module looks it up under (``causalboot.engine.run_subset`` is the
``run_subset`` that the engine module calls).  Spans nest; a span's self
time is its duration minus the durations of its direct child spans.  The
tracer keeps every span of one operation in memory, and ``close`` turns
them into per-layer self times, call counts and counters.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter
from dataclasses import dataclass


class TraceError(Exception):
    """The trace is malformed or was used in a way it cannot record."""


@dataclass
class Span:
    layer: str
    parent: int | None
    start: float
    end: float | None = None
    child_seconds: float = 0.0


@dataclass
class OperationTrace:
    """Per-layer figures of one traced operation."""

    wall_seconds: float
    self_seconds: dict[str, float]
    calls: Counter
    counters: Counter
    max_counters: dict[str, float]


class Tracer:
    """Wraps module attributes and records one span per call.

    Spans are kept on a stack, so the tracer supports one thread only; a
    call from another thread raises ``TraceError`` instead of recording a
    span under the wrong parent.
    """

    def __init__(self):
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self._spans: list[Span] = []
        self._stack: list[int] = []
        self._counters: Counter = Counter()
        self._max: dict[str, float] = {}

    # -- patching -----------------------------------------------------

    def wrap(self, target: str, layer: str, on_result=None) -> None:
        """Replace ``module.attr`` (``target``) by a span-recording wrapper.

        ``on_result(tracer, result)`` runs after each successful call and
        may update counters.  A missing module or attribute raises, so a
        renamed layer function cannot silently drop out of the trace.
        """
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(self, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- counters -----------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self._counters[name] += amount

    def record_max(self, name: str, value: float) -> None:
        self._max[name] = max(self._max.get(name, value), value)

    # -- spans --------------------------------------------------------

    def _open(self, layer: str) -> int:
        if threading.get_ident() != self._thread:
            raise TraceError(f"span {layer!r} opened from a second thread")
        parent = self._stack[-1] if self._stack else None
        self._spans.append(Span(layer, parent, time.perf_counter()))
        index = len(self._spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self._spans[index]
        span.end = time.perf_counter()
        if not self._stack or self._stack.pop() != index:
            raise TraceError(f"span {span.layer!r} closed out of order")
        if span.parent is not None:
            self._spans[span.parent].child_seconds += span.end - span.start

    def begin(self, root_layer: str) -> None:
        """Start one operation: clear the previous one and open its root span."""
        if self._stack:
            raise TraceError("begin() while an operation is still open")
        self._spans = []
        self._counters = Counter()
        self._max = {}
        self._open(root_layer)

    def close(self) -> OperationTrace:
        """Close the root span and summarize the operation's spans."""
        if len(self._stack) != 1:
            raise TraceError(f"{len(self._stack) - 1} span(s) left open at the end")
        self._close(self._stack[0])
        selfs: dict[str, float] = {}
        calls: Counter = Counter()
        for span in self._spans:
            own = (span.end - span.start) - span.child_seconds
            selfs[span.layer] = selfs.get(span.layer, 0.0) + own
            calls[span.layer] += 1
        root = self._spans[0]
        return OperationTrace(
            wall_seconds=root.end - root.start,
            self_seconds=selfs,
            calls=calls,
            counters=Counter(self._counters),
            max_counters=dict(self._max),
        )
