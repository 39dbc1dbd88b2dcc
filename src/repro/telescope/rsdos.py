"""RSDoS: randomly spoofed DoS attack detection (Moore et al. / Corsaro).

The three-step process from the paper:

1. **Backscatter classification** — keep only response packets (TCP
   SYN/ACK or RST; the nine ICMP reply/error types).
2. **Flow aggregation** — group by victim address (backscatter source),
   expiring flows after 300 idle seconds.
3. **Attack classification & filtering** — compute per-flow statistics
   (packets, bytes, duration, distinct spoofed sources, distinct ports,
   maximum per-minute packet rate) and discard low-intensity flows:
   fewer than 25 packets, shorter than 60 seconds, or peaking below
   0.5 packets per second.

The emitted :class:`TelescopeEvent` corresponds to one row of the paper's
telescope data set. A max rate of 0.5 pps *at the telescope* corresponds to
an estimated 128 pps at the victim (multiply by 256 for a /8).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.net.columnar import (
    SKETCH_PACKED_BYTES_SHIFT,
    SKETCH_PACKED_DSTS_SHIFT,
    SKETCH_PACKED_FIELD_MASK,
    SKETCH_PACKED_ICMP_SHIFT,
    PacketColumns,
)
from repro.net.packet import PROTO_ICMP, PROTO_TCP, PacketBatch
from repro.sketch.engine import FlowSketch, SketchConfig
from repro.telescope.flows import FlowState, FlowTable

#: Factor converting /8-telescope packet rates to estimated victim rates.
TELESCOPE_SCALE_FACTOR = 256


@dataclass(frozen=True)
class RSDoSConfig:
    """Detection thresholds (defaults are the paper's)."""

    flow_timeout: float = 300.0
    min_packets: int = 25
    min_duration: float = 60.0
    min_max_pps: float = 0.5


@dataclass(frozen=True)
class TelescopeEvent:
    """One detected randomly spoofed attack."""

    victim: int
    start_ts: float
    end_ts: float
    packets: int
    bytes: int
    distinct_sources: int
    ports: Tuple[int, ...]
    ip_proto: int
    max_ppm: int
    tcp_responses: int
    icmp_responses: int

    @property
    def duration(self) -> float:
        return self.end_ts - self.start_ts

    @property
    def max_pps(self) -> float:
        """Maximum packets/second at the telescope, over any minute."""
        return self.max_ppm / 60.0

    @property
    def estimated_victim_pps(self) -> float:
        """Estimated attack packet rate at the victim (×256 for a /8)."""
        return self.max_pps * TELESCOPE_SCALE_FACTOR

    @property
    def single_port(self) -> bool:
        """Whether the attack targeted exactly one port (Table 7)."""
        return len(self.ports) == 1


class RSDoSDetector:
    """Streaming detector over a time-sorted batch capture.

    ``indexed=False`` runs the flow table's reference full-scan expiry
    instead of the lazy min-heap — the original seed behavior, kept for
    equivalence tests and as the benchmark baseline.
    """

    def __init__(
        self, config: RSDoSConfig = RSDoSConfig(), indexed: bool = True
    ) -> None:
        self.config = config
        self._flows = FlowTable(timeout=config.flow_timeout, indexed=indexed)
        self.batches_seen = 0
        self.backscatter_batches = 0
        self.flows_discarded = 0

    def process(self, batch: PacketBatch) -> List[TelescopeEvent]:
        """Feed one batch; return events whose flows just expired."""
        self.batches_seen += 1
        if not batch.is_backscatter:
            return []
        self.backscatter_batches += 1
        expired = self._flows.add(batch)
        return self._classify_all(expired)

    def run(self, batches: Iterable[PacketBatch]) -> Iterator[TelescopeEvent]:
        """Process an entire capture, including the final flush."""
        for batch in batches:
            yield from self.process(batch)
        yield from self.flush()

    def flush(self) -> List[TelescopeEvent]:
        """Expire all open flows at end of capture."""
        return self._classify_all(self._flows.flush())

    def _classify_all(self, flows: Iterable[FlowState]) -> List[TelescopeEvent]:
        events = []
        for flow in flows:
            event = self.classify(flow)
            if event is None:
                self.flows_discarded += 1
            else:
                events.append(event)
        return events

    def classify(self, flow: FlowState) -> Optional[TelescopeEvent]:
        """Apply the Moore et al. filters; None means discarded."""
        cfg = self.config
        if flow.packets < cfg.min_packets:
            return None
        if flow.duration < cfg.min_duration:
            return None
        if flow.max_ppm / 60.0 < cfg.min_max_pps:
            return None
        return TelescopeEvent(
            victim=flow.victim,
            start_ts=flow.first_ts,
            end_ts=flow.last_ts,
            packets=flow.packets,
            bytes=flow.bytes,
            distinct_sources=flow.distinct_sources,
            ports=tuple(sorted(flow.ports)),
            ip_proto=flow.dominant_proto,
            max_ppm=flow.max_ppm,
            tcp_responses=flow.tcp_responses,
            icmp_responses=flow.icmp_responses,
        )


# Sketch-tier heavy-record slots (one record per victim, not per flow):
# 0 first_ts, 1 last_ts, 2 packed counters. Slot 2 carries the
# precomputed ``sketch_packed`` sum — tcp responses, icmp responses,
# bytes and distinct sources in 64-bit fields of a single integer (see
# :mod:`repro.net.columnar`) — so the hot loop maintains all four
# running sums with one add.


class _PackedPackets:
    """Eviction-count reader for the packed record: tcp + icmp fields.

    A module-level class (not a lambda) so sketches survive the pickle
    hop between supervised pool shards; value-equal by type so the merge
    guard accepts two telescope sketches.
    """

    __slots__ = ()

    def __call__(self, record: list) -> int:
        packed = record[2]
        return (packed & SKETCH_PACKED_FIELD_MASK) + (
            (packed >> SKETCH_PACKED_ICMP_SHIFT) & SKETCH_PACKED_FIELD_MASK
        )

    def __eq__(self, other: object) -> bool:
        return type(other) is _PackedPackets

    def __hash__(self) -> int:
        return hash(_PackedPackets)


def _combine_telescope_records(mine: list, theirs: list) -> None:
    """Fold two per-victim records (shard merge): min/max stamps, sum stats."""
    if theirs[0] < mine[0]:
        mine[0] = theirs[0]
    if theirs[1] > mine[1]:
        mine[1] = theirs[1]
    # One add folds all four packed counter fields (non-negative, 64-bit
    # headroom each — same soundness argument as the hot loop's add).
    mine[2] += theirs[2]


class TelescopeSketch:
    """Mergeable sketch-tier summary of one telescope capture shard.

    Holds the detection config alongside the :class:`FlowSketch` so a
    merged summary can classify itself into approximate
    :class:`TelescopeEvent` rows without re-plumbing thresholds.
    """

    def __init__(
        self, config: RSDoSConfig, sketch_config: SketchConfig
    ) -> None:
        self.config = config
        self.sketch = FlowSketch(sketch_config, count_slot=_PackedPackets())

    def merge(self, other: "TelescopeSketch") -> "TelescopeSketch":
        if self.config != other.config:
            raise ValueError(
                f"cannot merge telescope sketches with different detection "
                f"configs: {self.config} vs {other.config}"
            )
        self.sketch.merge(other.sketch, _combine_telescope_records)
        return self

    @classmethod
    def merge_all(
        cls, summaries: Iterable["TelescopeSketch"]
    ) -> "TelescopeSketch":
        merged = None
        for summary in summaries:
            merged = summary if merged is None else merged.merge(summary)
        if merged is None:
            raise ValueError("merge_all needs at least one summary")
        return merged

    def cardinality(self) -> float:
        """Approximate distinct victims observed (HLL estimate)."""
        return self.sketch.cardinality()

    def estimate(self, victim: int) -> int:
        """Upper-bound backscatter packet count for one victim."""
        return self.sketch.estimate(victim)

    def top_victims(self, k: int) -> List[Tuple[int, int]]:
        """Top-``k`` victims by estimated packets, count-desc, key tiebreak."""
        ranked = sorted(
            (
                (victim, self.sketch.estimate(victim))
                for victim in self.sketch.heavy
            ),
            key=lambda pair: (-pair[1], pair[0]),
        )
        return ranked[:k]

    def events(self) -> List[TelescopeEvent]:
        """Classify the per-victim aggregates into approximate events.

        One event per victim (no idle-gap splitting). The rate filter
        uses the sound upper bound ``max_ppm <= packets``, so at victim
        granularity the sketch tier never drops a victim the exact tier
        reports (as long as no eviction occurred); the reported
        ``max_ppm`` is the honest per-minute average. ``ports`` are not
        tracked at this tier and ``ip_proto`` is inferred from the
        response-protocol majority.
        """
        cfg = self.config
        min_packets = cfg.min_packets
        min_duration = cfg.min_duration
        min_ppm = cfg.min_max_pps * 60.0
        sketch = self.sketch
        spilled = sketch.evictions > 0
        spill_estimate = sketch.spill.estimate
        mask = SKETCH_PACKED_FIELD_MASK
        events: List[TelescopeEvent] = []
        for victim, record in sketch.heavy.items():
            packed = record[2]
            tcp = packed & mask
            icmp = (packed >> SKETCH_PACKED_ICMP_SHIFT) & mask
            packets = tcp + icmp
            if spilled:
                packets += spill_estimate(victim)
            # max_ppm <= packets always, so `packets < min_ppm` soundly
            # rejects anything the exact rate filter would reject.
            if packets < min_packets or packets < min_ppm:
                continue
            first_ts = record[0]
            last_ts = record[1]
            duration = last_ts - first_ts
            if duration < min_duration:
                continue
            approx_ppm = int(round(packets * 60.0 / max(60.0, duration)))
            events.append(
                TelescopeEvent(
                    victim=victim,
                    start_ts=first_ts,
                    end_ts=last_ts,
                    packets=packets,
                    bytes=(packed >> SKETCH_PACKED_BYTES_SHIFT) & mask,
                    distinct_sources=packed >> SKETCH_PACKED_DSTS_SHIFT,
                    ports=(),
                    ip_proto=PROTO_TCP if tcp >= icmp else PROTO_ICMP,
                    max_ppm=approx_ppm,
                    tcp_responses=tcp,
                    icmp_responses=icmp,
                )
            )
        events.sort(key=lambda event: (event.start_ts, event.victim))
        return events


def detect_sketch(
    config: RSDoSConfig,
    columns: PacketColumns,
    sketch_config: Optional[SketchConfig] = None,
) -> TelescopeSketch:
    """Sketch-tier ingestion of one (shard's) capture into a summary.

    The hot path is a single dict lookup plus two in-place mutations per
    backscatter row — no flow table, no expiry heap, no per-minute
    dicts. Non-backscatter rows are skipped at C speed via
    :func:`itertools.compress`, and the precomputed ``sketch_packed``
    column collapses all four per-row counter updates (tcp, icmp, bytes,
    distinct sources) into one integer add. Returns the mergeable
    :class:`TelescopeSketch`; call ``events()`` on the (merged) summary
    to materialize approximate events.
    """
    summary = TelescopeSketch(config, sketch_config or SketchConfig())
    sketch = summary.sketch
    heavy = sketch.heavy
    admit = sketch.admit
    rows = compress(
        zip(columns.srcs, columns.timestamps, columns.sketch_packed),
        columns.backscatter,
    )
    for victim, now, packed in rows:
        try:
            record = heavy[victim]
            record[1] = now
            record[2] += packed
        except KeyError:
            admit(victim, [now, now, packed])
    sketch.rows += len(columns)
    return summary
