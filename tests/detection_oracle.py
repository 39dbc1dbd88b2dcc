"""Streaming detectors and linear lookups, kept as oracles for the engines.

The pipeline detects RSDoS attacks with :func:`repro.telescope.rsdos.
detect_columns` and AmpPot events with :func:`repro.honeypot.detection.
detect_columns`, each one vectorized segmentation over a whole capture.
This module keeps the one-batch-at-a-time form of the same contract:

* :class:`FlowTable` folds time-sorted backscatter batches into
  victim-keyed :class:`FlowState` flows and expires them after the idle
  timeout, with a full scan of the open flows every sweep interval;
* :class:`RSDoSDetector` classifies each expired flow with the Moore et
  al. filters (25 packets, 60 s, 0.5 pps peak minute);
* :class:`HoneypotDetector` merges request batches per (victim,
  protocol), closing a flow on an idle gap or at the 24 h cap and
  dropping flows of 100 requests or fewer.

Run on ``capture.batches()`` and sorted into canonical order, their
events must equal the columnar engines' exactly.

:func:`telescope_partitioned` and :func:`honeypot_partitioned` detect a
capture one victim partition (``victim % n``) at a time and merge. Flows
are keyed on the victim, so any partition count must give the events of
one partition.

:func:`lpm_reference` is the linear longest-prefix scan that
:meth:`repro.net.routing.RoutingTable.lookup` must agree with. The
hosting-index oracle needs no code here: ``len(index.sites_on(ip,
day))`` must equal ``index.count_on(ip, day)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.honeypot.amppot import RequestBatch
from repro.honeypot.detection import AmpPotEvent, DetectionConfig
from repro.net.addressing import Prefix
from repro.net.packet import PROTO_ICMP, PROTO_TCP, PacketBatch
from repro.net.routing import RoutingTable
from repro.pipeline.simulation import (
    detect_honeypot_shard,
    detect_telescope_shard,
    merge_honeypot_shards,
    merge_telescope_shards,
)
from repro.telescope.rsdos import RSDoSConfig, TelescopeEvent


# -- RSDoS ----------------------------------------------------------------------


@dataclass
class FlowState:
    """Accumulated per-victim backscatter state."""

    victim: int
    first_ts: float
    last_ts: float
    packets: int = 0
    bytes: int = 0
    distinct_sources: int = 0  # spoofed sources == telescope dsts hit
    ports: Set[int] = field(default_factory=set)
    proto_packets: Dict[int, int] = field(default_factory=dict)
    minute_counts: Dict[int, int] = field(default_factory=dict)
    tcp_responses: int = 0
    icmp_responses: int = 0

    def add(self, batch: PacketBatch) -> None:
        """Fold one backscatter batch into the flow."""
        self.last_ts = max(self.last_ts, batch.timestamp)
        self.first_ts = min(self.first_ts, batch.timestamp)
        self.packets += batch.count
        self.bytes += batch.bytes
        self.distinct_sources += batch.distinct_dsts
        self.ports.update(batch.src_ports)
        attack_proto = batch.attack_proto
        self.proto_packets[attack_proto] = (
            self.proto_packets.get(attack_proto, 0) + batch.count
        )
        minute = int(batch.timestamp // 60)
        self.minute_counts[minute] = self.minute_counts.get(minute, 0) + batch.count
        if batch.proto == PROTO_TCP:
            self.tcp_responses += batch.count
        elif batch.proto == PROTO_ICMP:
            self.icmp_responses += batch.count

    @property
    def duration(self) -> float:
        return self.last_ts - self.first_ts

    @property
    def max_ppm(self) -> int:
        """Largest packet count observed in any single minute."""
        return max(self.minute_counts.values()) if self.minute_counts else 0

    @property
    def dominant_proto(self) -> int:
        """Attack protocol accounting for most packets."""
        if not self.proto_packets:
            return 0
        return max(self.proto_packets.items(), key=lambda kv: kv[1])[0]


class FlowTable:
    """Victim-keyed flow table with idle-timeout expiry.

    ``add`` returns any flows expired by the advancing clock; time must be
    fed in non-decreasing order. Every *sweep_interval* seconds of stream
    time, a full scan expires the flows idle since before the timeout.
    """

    def __init__(self, timeout: float = 300.0, sweep_interval: float = 60.0) -> None:
        if timeout <= 0:
            raise ValueError("flow timeout must be positive")
        self.timeout = timeout
        self._sweep_interval = sweep_interval
        self._flows: Dict[int, FlowState] = {}
        self._last_sweep = float("-inf")

    def __len__(self) -> int:
        return len(self._flows)

    def add(self, batch: PacketBatch) -> List[FlowState]:
        """Fold a batch in; return flows that expired before it arrived."""
        expired = self._maybe_sweep(batch.timestamp)
        flow = self._flows.get(batch.src)
        if flow is not None and batch.timestamp - flow.last_ts > self.timeout:
            expired.append(self._flows.pop(batch.src))
            flow = None
        if flow is None:
            flow = FlowState(
                victim=batch.src, first_ts=batch.timestamp, last_ts=batch.timestamp
            )
            self._flows[batch.src] = flow
        flow.add(batch)
        return expired

    def _maybe_sweep(self, now: float) -> List[FlowState]:
        if now - self._last_sweep < self._sweep_interval:
            return []
        self._last_sweep = now
        cutoff = now - self.timeout
        expired = [f for f in self._flows.values() if f.last_ts < cutoff]
        for flow in expired:
            del self._flows[flow.victim]
        return expired

    def flush(self) -> Iterator[FlowState]:
        """Expire every remaining flow (end of capture)."""
        flows = list(self._flows.values())
        self._flows.clear()
        yield from flows


class RSDoSDetector:
    """Streaming RSDoS detection over a time-sorted batch capture."""

    def __init__(self, config: RSDoSConfig = RSDoSConfig()) -> None:
        self.config = config
        self._flows = FlowTable(timeout=config.flow_timeout)
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


# -- AmpPot ---------------------------------------------------------------------


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

    Idle flows are expired by a full scan every quarter gap timeout of
    stream time, as :class:`FlowTable` does for backscatter.
    """

    def __init__(self, config: DetectionConfig = DetectionConfig()) -> None:
        self.config = config
        self._flows: Dict[Tuple[int, str], _OpenFlow] = {}
        self._last_sweep = float("-inf")
        self.batches_seen = 0
        self.flows_discarded = 0

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
        return events

    def _maybe_sweep(self, now: float) -> List[AmpPotEvent]:
        """Expire idle flows periodically so memory stays bounded."""
        if now - self._last_sweep < self.config.gap_timeout / 4:
            return []
        self._last_sweep = now
        cutoff = now - self.config.gap_timeout
        expired_keys = [k for k, f in self._flows.items() if f.last_ts < cutoff]
        events = []
        for key in expired_keys:
            event = self._close(self._flows.pop(key))
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


# -- longest-prefix match -------------------------------------------------------


def lpm_reference(
    table: RoutingTable,
) -> Callable[[int], Optional[Tuple[Prefix, int]]]:
    """A linear longest-prefix scan over *table* as it is now.

    The announcements are read once, here: ``announced_prefixes()``
    sorts on every call. Take a new reference after the table changes.
    """
    announcements = list(table.announced_prefixes())

    def lookup(address: int) -> Optional[Tuple[Prefix, int]]:
        best: Optional[Tuple[Prefix, int]] = None
        for prefix, asn in announcements:
            if prefix.contains(address) and (
                best is None or prefix.length > best[0].length
            ):
                best = (prefix, asn)
        return best

    return lookup


# -- victim partitions ------------------------------------------------------------


def telescope_partitioned(config, capture, n_partitions: int):
    """RSDoS over ``n_partitions`` victim partitions of *capture*, merged."""
    return merge_telescope_shards(
        [
            detect_telescope_shard(
                config, capture.take(capture.src % n_partitions == index)
            )
            for index in range(n_partitions)
        ]
    )


def honeypot_partitioned(config, request_log, n_partitions: int):
    """AmpPot events over ``n_partitions`` victim partitions, merged."""
    return merge_honeypot_shards(
        [
            detect_honeypot_shard(
                config,
                request_log.take(request_log.victim % n_partitions == index),
            )
            for index in range(n_partitions)
        ]
    )
