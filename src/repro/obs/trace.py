"""Span tracing: where a run's wall time actually went.

A :class:`SpanTracer` records context-manager *spans* — named intervals
with parent/child links and attributes — so a pipeline run leaves behind
an execution timeline instead of an interleaved log:

>>> tracer = SpanTracer(clock=iter(range(100)).__next__)
>>> with tracer.span("stage", stage="attacks"):
...     with tracer.span("attempt", attempt=1):
...         pass
>>> [s.name for s in tracer.spans]
['attempt', 'stage']

Parenthood is tracked per thread (each stage-supervisor thread gets its
own span stack), span ids are sequential under a lock, and all times come
from the injectable clock — so a serial run with a fake clock exports a
byte-identical ``trace.json`` every time.

Two export shapes:

* **JSONL** (``to_jsonl``) — one span object per line, the raw artifact;
* **Chrome ``trace_event``** (``to_chrome``) — a ``traceEvents`` document
  loadable in ``chrome://tracing`` / Perfetto, with thread lanes mapped
  deterministically in first-use order.

Like the metrics registry, this module is standard-library only and the
disabled default (:class:`NullTracer`) costs one no-op context manager.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass
class SpanRecord:
    """One completed span (times in seconds on the tracer's clock)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    thread: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": round(self.start, 6),
            "end": round(self.end, 6),
            "duration": round(self.duration, 6),
            "thread": self.thread,
            "attrs": self.attrs,
        }


class _Span:
    """Live span handle: lets the body attach attributes mid-flight."""

    def __init__(self, record: SpanRecord) -> None:
        self._record = record

    def set_attr(self, **attrs: Any) -> None:
        self._record.attrs.update(attrs)


class SpanTracer:
    """Collects spans with parent/child links; deterministic exports."""

    enabled = True

    def __init__(self, clock: Any = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._next_id = 1
        self._stacks = threading.local()
        self.spans: List[SpanRecord] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[_Span]:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent_id = stack[-1] if stack else None
        record = SpanRecord(
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            start=self._clock(),
            end=0.0,
            thread=threading.current_thread().name,
            attrs=dict(attrs),
        )
        stack.append(span_id)
        handle = _Span(record)
        try:
            yield handle
        except BaseException as exc:
            record.attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            stack.pop()
            record.end = self._clock()
            with self._lock:
                self.spans.append(record)

    # -- fork children -----------------------------------------------------------

    def mark(self) -> int:
        """Where the spans recorded so far end (see :meth:`since`)."""
        with self._lock:
            return len(self.spans)

    def since(self, mark: int) -> List[SpanRecord]:
        """The spans completed after *mark*: in a fork child, the ones it
        recorded itself (its copies of the parent's open spans never
        close)."""
        with self._lock:
            return self.spans[mark:]

    def adopt(
        self, spans: List[SpanRecord], thread: Optional[str] = None
    ) -> None:
        """Add a fork child's spans under fresh ids, in the child's id
        order. A parent the child opened is renumbered with it; a parent
        that was open in this process at the fork keeps its id, so the
        child's top spans hang under it. *thread* names the child's lane
        in the Chrome export."""
        with self._lock:
            ids: Dict[int, int] = {}
            for span in sorted(spans, key=lambda s: s.span_id):
                ids[span.span_id] = self._next_id
                self._next_id += 1
            for span in spans:
                span.span_id = ids[span.span_id]
                span.parent_id = ids.get(span.parent_id, span.parent_id)
                if thread is not None:
                    span.thread = thread
                self.spans.append(span)

    # -- exports ---------------------------------------------------------------

    def _sorted_spans(self) -> List[SpanRecord]:
        with self._lock:
            return sorted(self.spans, key=lambda s: s.span_id)

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(span.to_dict(), sort_keys=True) + "\n"
            for span in self._sorted_spans()
        )

    def to_chrome(self) -> Dict[str, Any]:
        """Chrome ``trace_event`` document (complete ``X`` events).

        Thread ids are assigned in first-use order over the id-sorted
        span list, so the mapping — and the whole document — is
        deterministic for a deterministic run.
        """
        tids: Dict[str, int] = {}
        events: List[Dict[str, Any]] = []
        spans = self._sorted_spans()
        for span in spans:
            if span.thread not in tids:
                tids[span.thread] = len(tids)
        for span in spans:
            args = dict(span.attrs)
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args["span_id"] = span.span_id
            events.append({
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": tids[span.thread],
                "ts": round(span.start * 1e6, 1),
                "dur": round(span.duration * 1e6, 1),
                "args": args,
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {
                "threads": {str(tid): name for name, tid in tids.items()}
            },
        }

    def to_chrome_json(self) -> str:
        return json.dumps(self.to_chrome(), sort_keys=True, indent=2) + "\n"


class _NullSpan:
    def set_attr(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracing: one shared no-op context manager."""

    enabled = False
    spans: Tuple[()] = ()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[_NullSpan]:
        yield _NULL_SPAN

    def mark(self) -> int:
        return 0

    def since(self, mark: int) -> List[SpanRecord]:
        return []

    def adopt(
        self, spans: List[SpanRecord], thread: Optional[str] = None
    ) -> None:
        pass

    def to_jsonl(self) -> str:
        return ""

    def to_chrome(self) -> Dict[str, Any]:
        return {"traceEvents": [], "displayTimeUnit": "ms", "metadata": {}}

    def to_chrome_json(self) -> str:
        return json.dumps(self.to_chrome(), sort_keys=True, indent=2) + "\n"


NULL_TRACER = NullTracer()


__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "SpanTracer",
]
