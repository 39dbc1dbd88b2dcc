"""Event extraction from the honeypot request logs.

Request batches from all instances are merged per (victim, protocol) into
attack events. A gap longer than the aggregation timeout closes the event;
events shorter than the 100-request threshold are dropped (scans and
dribble), and — matching how AmpPot operates — event durations are capped at
24 hours by closing and reopening the flow.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.honeypot.amppot import RequestBatch
from repro.honeypot.columnar import RequestColumns
from repro.sketch.engine import FlowSketch, SketchConfig

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


# Sketch-tier heavy-record slots (one record per victim/protocol pair):
# 0 first_ts, 1 last_ts, 2 requests, 3 honeypot-id bitmask.
# Slot 2 is the eviction count.
_SKETCH_COUNT_SLOT = 2


def _combine_honeypot_records(mine: list, theirs: list) -> None:
    """Fold two per-pair records (shard merge): min/max stamps, sums, unions."""
    if theirs[0] < mine[0]:
        mine[0] = theirs[0]
    if theirs[1] > mine[1]:
        mine[1] = theirs[1]
    mine[2] += theirs[2]
    mine[3] |= theirs[3]


class HoneypotSketch:
    """Mergeable sketch-tier summary of one request-log shard.

    Keys are packed ``victim * n_protocols + protocol_id`` integers
    (cheaper to hash than tuples); the protocol interning table rides
    along so a merged summary can unpack them. Merging requires the
    same table on both sides (always true for shards of one capture);
    a summary of an empty capture merges with anything.
    """

    def __init__(
        self,
        config: DetectionConfig,
        sketch_config: SketchConfig,
        protocols: Tuple[str, ...],
    ) -> None:
        self.config = config
        self.protocols = protocols
        self.sketch = FlowSketch(sketch_config, count_slot=_SKETCH_COUNT_SLOT)

    def merge(self, other: "HoneypotSketch") -> "HoneypotSketch":
        if self.config != other.config:
            raise ValueError(
                f"cannot merge honeypot sketches with different detection "
                f"configs: {self.config} vs {other.config}"
            )
        if self.protocols != other.protocols:
            if not self.protocols and not self.sketch.heavy:
                self.protocols = other.protocols
            elif other.protocols or other.sketch.heavy:
                raise ValueError(
                    "cannot merge honeypot sketches with different protocol "
                    f"tables: {self.protocols!r} vs {other.protocols!r}"
                )
        self.sketch.merge(other.sketch, _combine_honeypot_records)
        return self

    @classmethod
    def merge_all(
        cls, summaries: Iterable["HoneypotSketch"]
    ) -> "HoneypotSketch":
        merged = None
        for summary in summaries:
            merged = summary if merged is None else merged.merge(summary)
        if merged is None:
            raise ValueError("merge_all needs at least one summary")
        return merged

    def cardinality(self) -> float:
        """Approximate distinct (victim, protocol) pairs observed."""
        return self.sketch.cardinality()

    def estimate(self, victim: int, protocol_id: int) -> int:
        """Upper-bound request count for one victim/protocol pair."""
        n_protocols = max(1, len(self.protocols))
        return self.sketch.estimate(victim * n_protocols + protocol_id)

    def events(self) -> List[AmpPotEvent]:
        """Classify per-pair aggregates into approximate events.

        One event per (victim, protocol) — neither idle-gap splitting
        nor the 24h duration cap is applied at this tier, so a long
        intermittent attack surfaces as one spanning event instead of
        several. The request-count filter matches the exact tier's
        strict ``> min_requests``.
        """
        min_requests = self.config.min_requests
        protocols = self.protocols
        n_protocols = max(1, len(protocols))
        sketch = self.sketch
        spilled = sketch.evictions > 0
        spill_estimate = sketch.spill.estimate
        events: List[AmpPotEvent] = []
        for key, record in sketch.heavy.items():
            requests = record[2]
            if spilled:
                requests += spill_estimate(key)
            if requests <= min_requests:
                continue
            events.append(
                AmpPotEvent(
                    victim=key // n_protocols,
                    start_ts=record[0],
                    end_ts=record[1],
                    protocol=protocols[key % n_protocols],
                    requests=requests,
                    honeypots=bin(record[3]).count("1"),
                )
            )
        events.sort(
            key=lambda event: (event.start_ts, event.victim, event.protocol)
        )
        return events


def detect_sketch(
    config: DetectionConfig,
    columns: RequestColumns,
    sketch_config: Optional[SketchConfig] = None,
) -> HoneypotSketch:
    """Sketch-tier ingestion of one (shard's) request log into a summary.

    Per-row work is one dict hit plus three in-place mutations — no
    expiry heap, no gap/cap bookkeeping. Returns the mergeable
    :class:`HoneypotSketch`; call ``events()`` on the (merged) summary.
    """
    protocols = columns.protocols
    n_protocols = max(1, len(protocols))
    summary = HoneypotSketch(config, sketch_config or SketchConfig(), protocols)
    sketch = summary.sketch
    heavy = sketch.heavy
    admit = sketch.admit
    rows = zip(
        columns.timestamps,
        columns.victims,
        columns.honeypot_ids,
        columns.protocol_ids,
        columns.counts,
    )
    for now, victim, honeypot_id, protocol_id, count in rows:
        key = victim * n_protocols + protocol_id
        try:
            record = heavy[key]
            record[1] = now
            record[2] += count
            record[3] |= 1 << honeypot_id
        except KeyError:
            admit(key, [now, now, count, 1 << honeypot_id])
    sketch.rows += len(columns)
    return summary
