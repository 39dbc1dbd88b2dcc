"""Event extraction from the honeypot request logs.

Request batches from all instances are merged per (victim, protocol) into
attack events. A gap longer than the aggregation timeout closes the event;
events shorter than the 100-request threshold are dropped (scans and
dribble), and — matching how AmpPot operates — event durations are capped at
24 hours by closing and reopening the flow.

:func:`detect_columns` applies these rules to a whole
:class:`~repro.honeypot.columnar.RequestColumns` log at once and is what
the pipeline runs; :class:`HoneypotDetector` is the streaming form for
library use and the reference the columnar engine is tested against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.honeypot.amppot import RequestBatch
from repro.honeypot.columnar import PROTOCOLS, RequestColumns

DAY_SECONDS = 86400.0


@dataclass(frozen=True)
class DetectionConfig:
    """Aggregation and filtering parameters (defaults per the paper)."""

    gap_timeout: float = 3600.0
    min_requests: int = 100
    max_event_duration: float = DAY_SECONDS


@dataclass(frozen=True)
class AmpPotEvent:
    """One reflection/amplification attack event."""

    victim: int
    start_ts: float
    end_ts: float
    protocol: str
    requests: int
    honeypots: int

    @property
    def duration(self) -> float:
        return self.end_ts - self.start_ts

    @property
    def avg_rps(self) -> float:
        """Average requests/second made to *each* abused reflector.

        This is the paper's intensity metric for the honeypot data set: the
        total request volume normalized by duration and by the number of
        honeypot instances that logged the attack.
        """
        duration = max(self.duration, 1.0)
        return self.requests / duration / max(self.honeypots, 1)


@dataclass
class _OpenFlow:
    victim: int
    protocol: str
    first_ts: float
    last_ts: float
    requests: int = 0
    honeypot_ids: Set[int] = field(default_factory=set)

    def add(self, batch: RequestBatch) -> None:
        self.last_ts = max(self.last_ts, batch.timestamp)
        self.requests += batch.count
        self.honeypot_ids.add(batch.honeypot_id)


class HoneypotDetector:
    """Streaming aggregation of request batches into attack events.

    The reference for :func:`detect_columns`, which the pipeline runs.

    Idle-flow expiry mirrors :class:`repro.telescope.flows.FlowTable`: a
    lazy min-heap of ``(last_ts, key)`` entries (pushed at flow creation,
    re-pushed on a stale pop) replaces the full scan over every open flow.
    ``indexed=False`` keeps the reference scan for equivalence testing.
    """

    def __init__(
        self,
        config: DetectionConfig = DetectionConfig(),
        indexed: bool = True,
    ) -> None:
        self.config = config
        self._flows: Dict[Tuple[int, str], _OpenFlow] = {}
        self._last_sweep = float("-inf")
        self.batches_seen = 0
        self.flows_discarded = 0
        self._indexed = indexed
        self._heap: List[Tuple[float, Tuple[int, str]]] = []
        self._seq: Dict[Tuple[int, str], int] = {}
        self._next_seq = 0

    def process(self, batch: RequestBatch) -> List[AmpPotEvent]:
        """Feed one batch (time-sorted input); return closed events."""
        self.batches_seen += 1
        closed = self._maybe_sweep(batch.timestamp)
        key = (batch.victim, batch.protocol)
        flow = self._flows.get(key)
        if flow is not None:
            gap_exceeded = batch.timestamp - flow.last_ts > self.config.gap_timeout
            cap_exceeded = (
                batch.timestamp - flow.first_ts > self.config.max_event_duration
            )
            if gap_exceeded or cap_exceeded:
                event = self._close(self._flows.pop(key), capped=cap_exceeded)
                self._seq.pop(key, None)
                if event is not None:
                    closed.append(event)
                flow = None
        if flow is None:
            flow = _OpenFlow(
                victim=batch.victim,
                protocol=batch.protocol,
                first_ts=batch.timestamp,
                last_ts=batch.timestamp,
            )
            self._flows[key] = flow
            if self._indexed:
                self._seq[key] = self._next_seq
                self._next_seq += 1
                heapq.heappush(self._heap, (flow.last_ts, key))
        flow.add(batch)
        return closed

    def run(self, batches: Iterable[RequestBatch]) -> Iterator[AmpPotEvent]:
        """Process a full capture, including the final flush."""
        for batch in batches:
            yield from self.process(batch)
        yield from self.flush()

    def flush(self) -> List[AmpPotEvent]:
        """Close every open flow at end of capture."""
        events = []
        for flow in self._flows.values():
            event = self._close(flow)
            if event is not None:
                events.append(event)
        self._flows.clear()
        self._heap.clear()
        self._seq.clear()
        return events

    def _maybe_sweep(self, now: float) -> List[AmpPotEvent]:
        """Expire idle flows periodically so memory stays bounded."""
        if now - self._last_sweep < self.config.gap_timeout / 4:
            return []
        self._last_sweep = now
        cutoff = now - self.config.gap_timeout
        if not self._indexed:
            expired_keys = [
                k for k, f in self._flows.items() if f.last_ts < cutoff
            ]
            events = []
            for key in expired_keys:
                event = self._close(self._flows.pop(key))
                if event is not None:
                    events.append(event)
            return events
        # Lazy-heap sweep: pop entries past the cutoff, re-pushing flows
        # that were refreshed since their entry was pushed; re-sorted by
        # flow creation order so the closed events come out exactly as the
        # reference scan produces them.
        ordered: List[Tuple[int, _OpenFlow]] = []
        heap = self._heap
        flows = self._flows
        while heap and heap[0][0] < cutoff:
            _, key = heapq.heappop(heap)
            flow = flows.get(key)
            if flow is None:
                continue  # entry outlived its flow
            if flow.last_ts < cutoff:
                ordered.append((self._seq.pop(key), flows.pop(key)))
            else:
                heapq.heappush(heap, (flow.last_ts, key))
        ordered.sort(key=lambda pair: pair[0])
        events = []
        for _, flow in ordered:
            event = self._close(flow)
            if event is not None:
                events.append(event)
        return events

    def _close(self, flow: _OpenFlow, capped: bool = False) -> Optional[AmpPotEvent]:
        if flow.requests <= self.config.min_requests:
            self.flows_discarded += 1
            return None
        end_ts = flow.last_ts
        if capped:
            end_ts = min(end_ts, flow.first_ts + self.config.max_event_duration)
        return AmpPotEvent(
            victim=flow.victim,
            start_ts=flow.first_ts,
            end_ts=end_ts,
            protocol=flow.protocol,
            requests=flow.requests,
            honeypots=len(flow.honeypot_ids),
        )


def detect_columns(
    config: DetectionConfig, log: RequestColumns
) -> List[AmpPotEvent]:
    """Event extraction over a whole time-sorted log, as one segmentation.

    Returns exactly the events :class:`HoneypotDetector` emits for
    ``log.batches()``, in canonical ``(start_ts, victim, protocol)``
    order. Rows are stable-sorted by (victim, protocol, timestamp); a
    flow ends where the key changes or the gap to the key's previous
    row is strictly greater than the gap timeout. Only flows spanning
    more than the 24 h cap get a sequential pass, which closes the flow
    at the first row more than the cap after the flow's first row and
    reopens it there, as the streaming detector does.
    """
    order = np.lexsort((log.ts, log.protocol, log.victim))
    victim = log.victim[order]
    protocol = log.protocol[order]
    ts = log.ts[order]
    count = log.count[order]
    n = len(order)
    if not n:
        return []

    new_flow = np.ones(n, dtype=bool)
    new_flow[1:] = (
        (victim[1:] != victim[:-1])
        | (protocol[1:] != protocol[:-1])
        | (ts[1:] - ts[:-1] > config.gap_timeout)
    )
    starts = np.flatnonzero(new_flow)
    ends = np.append(starts[1:], n)
    cap = config.max_event_duration
    cap_splits: List[int] = []
    for start, end in _over_cap(starts, ends, ts, cap):
        first = start
        while True:
            over = np.flatnonzero(ts[first:end] - ts[first] > cap)
            if not len(over):
                break
            first += int(over[0])
            cap_splits.append(first)
    if cap_splits:
        new_flow[cap_splits] = True
        starts = np.flatnonzero(new_flow)
        ends = np.append(starts[1:], n)

    requests = np.add.reduceat(count, starts)
    kept = np.flatnonzero(requests > config.min_requests)
    if not len(kept):
        return []
    first_ts = ts[starts]
    end_ts = ts[ends - 1]
    if cap_splits:
        # A flow the cap closed ends at most one cap after it began.
        capped = np.searchsorted(starts, cap_splits) - 1
        end_ts[capped] = np.minimum(end_ts[capped], first_ts[capped] + cap)

    flow_of_row = np.cumsum(new_flow) - 1
    keep = np.zeros(len(starts), dtype=bool)
    keep[kept] = True
    kept_rows = np.flatnonzero(keep[flow_of_row])
    n_ids = int(log.honeypot_id.max()) + 1
    pairs = np.unique(
        flow_of_row[kept_rows] * n_ids + log.honeypot_id[order[kept_rows]]
    )
    honeypots = np.bincount(pairs // n_ids, minlength=len(starts))

    events = [
        AmpPotEvent(
            victim=flow_victim,
            start_ts=start,
            end_ts=end,
            protocol=PROTOCOLS[protocol_id],
            requests=flow_requests,
            honeypots=flow_honeypots,
        )
        for flow_victim, start, end, protocol_id, flow_requests, flow_honeypots
        in zip(
            victim[starts[kept]].tolist(),
            first_ts[kept].tolist(),
            end_ts[kept].tolist(),
            protocol[starts[kept]].tolist(),
            requests[kept].tolist(),
            honeypots[kept].tolist(),
        )
    ]
    events.sort(key=lambda event: (event.start_ts, event.victim, event.protocol))
    return events


def _over_cap(starts, ends, ts, cap) -> List[Tuple[int, int]]:
    """(start, end) row ranges of the flows spanning more than *cap*."""
    long = np.flatnonzero(ts[ends - 1] - ts[starts] > cap)
    return list(zip(starts[long].tolist(), ends[long].tolist()))
