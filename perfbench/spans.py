"""In-memory span recording and attribute patching for traced runs.

A traced run measures each layer from outside: it replaces public
functions and methods with timing wrappers, keeps one span per call
(name, start, end, parent) in memory, and derives per-layer self time
afterwards. Nothing under ``src/`` knows it is being traced, and
:class:`Patcher` puts every replaced attribute back, so a traced run
leaves the program exactly as it found it.

Self time is a span's duration minus the part of its interval that its
child spans cover. Children are merged as intervals first, so children
that overlap each other (spans opened by other threads under an explicit
parent) are not subtracted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

_MISSING = object()
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def percentile(values, share: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


def current_rss_mb() -> float:
    """Resident set size of this process now (not the high-water mark)."""
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    error: Optional[str] = None
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class SpanRecorder:
    """Thread-safe in-memory span store with per-thread parent stacks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Optional[int] = None) -> Span:
        """Start a span; its parent is the innermost open span of this
        thread unless *parent* names one explicitly."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(next(self._ids), name, self.clock(), parent)
        stack.append(span.span_id)
        return span

    def close(self, span: Span, error: Optional[BaseException] = None) -> None:
        span.end = self.clock()
        if error is not None:
            span.error = type(error).__name__
        stack = self._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def add(self, counter: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[counter] += value

    def wrap(
        self,
        func: Callable,
        name: str,
        on_result: Optional[Callable] = None,
        rss: bool = False,
    ) -> Callable:
        """*func* with a span around every call.

        ``on_result(span, args, kwargs, result)`` runs after a successful
        call, inside the span's lifetime, to attach counts. With ``rss``
        the span records the change in current RSS across the call.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            rss_before = current_rss_mb() if rss else 0.0
            try:
                result = func(*args, **kwargs)
                if rss:
                    span.attrs["rss_delta_mb"] = current_rss_mb() - rss_before
                if on_result is not None:
                    on_result(span, args, kwargs, result)
            except BaseException as exc:
                self.close(span, exc)
                raise
            self.close(span)
            return result

        return wrapper

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Self time per span id: duration minus child coverage."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        return {
            span.span_id: span.duration
            - _covered(children.get(span.span_id, []), span.start, span.end)
            for span in self.spans
        }

    def self_time_by_name(self) -> Dict[str, float]:
        own = self.self_times()
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += own[span.span_id]
        return dict(totals)

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def dump(self, path: Path) -> None:
        """Write every span (one JSON object per line) and the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "error": span.error,
                            "attrs": span.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
            handle.write(
                json.dumps({"counters": dict(self.counters)}, sort_keys=True)
                + "\n"
            )


class Patcher:
    """Replace attributes on modules, classes or instances; undo them all.

    Restoring puts back exactly what the owner's own ``__dict__`` held, so
    a classmethod comes back as the same classmethod object and an
    attribute that was only inherited (or only on the class, for an
    instance) is deleted again rather than shadowed.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def patch(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def wrap(
        self,
        recorder: SpanRecorder,
        owner,
        name: str,
        span_name: str,
        on_result: Optional[Callable] = None,
        rss: bool = False,
    ) -> None:
        """Replace ``owner.name`` with a span-recording wrapper."""
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, (classmethod, staticmethod)):
            inner = recorder.wrap(raw.__func__, span_name, on_result, rss)
            self.patch(owner, name, type(raw)(inner))
        else:
            target = getattr(owner, name)
            self.patch(
                owner, name, recorder.wrap(target, span_name, on_result, rss)
            )

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            if value is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, value)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
