"""Spans recorded from the benchmark's side of each layer boundary.

The traced run wraps public functions of the program's layers (the list
lives in :func:`perfbench.workloads.install_layer_hooks`) so that every call
records a span: name, start, end, parent span and the id of the operation
(grid cell, fuzz seed, discovery search or server request) it belongs to.
Durations that only the program can see, such as the per-phase samples of
``compile_isax(phase_hook=...)`` or ``SolveStats.solve_seconds``, become
synthesized child spans.  Nothing in the program changes; the wrappers are
removed again when the traced run ends.

A span named after a per-layer metric stem (``lowering.lower``) charges its
*self time* (its duration minus its children's) to that metric; other
spans (``grid.cell``, ``hls.compile``) only give structure, and their self
time counts as ``other``.  :meth:`Tracer.chrome_trace` exports everything
as Chrome trace-event JSON, which Perfetto and chrome://tracing open.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "tid", "op", "children")

    def __init__(self, name: str, start: float, end: Optional[float],
                 parent: Optional[int], tid: int, op: str) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.tid = tid
        self.op = op
        self.children: List[int] = []


class Tracer:
    """An in-memory span tree plus the wrappers that feed it.

    The current span lives in a context variable, so concurrent asyncio
    tasks (the two server clients) and worker threads each see their own
    parent chain.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[Optional[int]] = \
            contextvars.ContextVar("perfbench_span", default=None)
        self._op: contextvars.ContextVar[str] = \
            contextvars.ContextVar("perfbench_op", default="")
        self._lane: contextvars.ContextVar[Optional[int]] = \
            contextvars.ContextVar("perfbench_lane", default=None)
        self._patches: List[tuple] = []
        self.origin = time.perf_counter()

    # -- recording -----------------------------------------------------------
    def _add(self, span: Span) -> int:
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
            if span.parent is not None:
                self.spans[span.parent].children.append(index)
        return index

    @property
    def current(self) -> Optional[int]:
        return self._current.get()

    def set_lane(self, lane: int) -> None:
        """Put this context's spans on a track of their own: concurrent
        asyncio tasks share one thread, and a trace viewer nests the spans
        of one track."""
        self._lane.set(lane)

    def _track(self) -> int:
        lane = self._lane.get()
        return threading.get_ident() if lane is None else lane

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[int]:
        """Record one span around the ``with`` body; ``op`` starts a new
        operation id for it and everything below it."""
        op_token = self._op.set(op) if op is not None else None
        index = self._add(Span(name, time.perf_counter(), None,
                               self._current.get(), self._track(),
                               self._op.get()))
        token = self._current.set(index)
        try:
            yield index
        finally:
            self.spans[index].end = time.perf_counter()
            self._current.reset(token)
            if op_token is not None:
                self._op.reset(op_token)

    def record(self, name: str, start: float, end: float,
               parent: Optional[int], adopt: bool = True) -> int:
        """Add a span measured by the program itself.

        With ``adopt``, spans already recorded under the same parent that
        fall inside ``[start, end]`` happened within it, so they move below
        it (a phase hook reports a phase only after the calls made during
        it)."""
        index = self._add(Span(name, start, end, parent, self._track(),
                               self._op.get()))
        if adopt and parent is not None:
            with self._lock:
                siblings = self.spans[parent].children
                keep: List[int] = []
                for child in siblings:
                    span = self.spans[child]
                    if (child != index and span.end is not None
                            and span.start >= start and span.end <= end):
                        span.parent = index
                        self.spans[index].children.append(child)
                    else:
                        keep.append(child)
                siblings[:] = keep
        return index

    # -- aggregation ---------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name, summed over every finished span."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.end is None:
                continue
            covered = sum(
                self.spans[c].end - self.spans[c].start
                for c in span.children if self.spans[c].end is not None)
            own = max(0.0, span.end - span.start - covered)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    # -- wrapping ------------------------------------------------------------
    def wrap_function(self, module: Any, name: str, span_name: str,
                      around: Optional[Callable] = None) -> None:
        """Wrap ``module.name`` in a span everywhere it was imported.

        Modules that did ``from module import name`` hold their own
        reference; each ``repro`` module bound to the same object gets the
        wrapper too.  ``around(original, args, kwargs)`` replaces the plain
        call when the wrapper needs to see arguments or results."""
        original = getattr(module, name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                if around is not None:
                    return around(original, args, kwargs)
                return original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, "__dict__", {}).get(name) is original):
                setattr(mod, name, wrapper)
                self._patches.append((mod, name, original))

    def wrap_attribute(self, owner: Any, name: str, span_name: str) -> None:
        """Wrap one method of a class, or one entry of a dispatch dict."""
        is_dict = isinstance(owner, dict)
        original = owner[name] if is_dict else owner.__dict__[name]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                return original(*args, **kwargs)

        if is_dict:
            owner[name] = wrapper
        else:
            setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # -- export --------------------------------------------------------------
    def chrome_trace(self, extra: dict) -> dict:
        """Chrome trace-event JSON (``ph: X`` complete events, microsecond
        timestamps).  ``extra`` (the run's metrics and its rows, one per
        grid cell, fuzz seed, discovery search or request round) rides
        along under the ``perfbench`` key, which trace viewers ignore."""
        events: List[dict] = [{
            "name": "process_name", "ph": "M", "pid": os.getpid(), "tid": 0,
            "args": {"name": f"perfbench {extra.get('workload', '')}"},
        }]
        for index, span in enumerate(self.spans):
            if span.end is None:
                continue
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": round((span.start - self.origin) * 1e6, 3),
                "dur": round((span.end - span.start) * 1e6, 3),
                "pid": os.getpid(),
                "tid": span.tid,
                "args": {"span": index, "parent": span.parent,
                         "id": span.op},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "perfbench": extra}

    def write_chrome_trace(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(extra), handle)
