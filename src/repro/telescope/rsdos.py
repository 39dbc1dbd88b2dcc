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
telescope data set.

:func:`detect_columns` runs the three steps over a whole
:class:`~repro.net.columnar.PacketColumns` capture as one vectorized
segmentation; a pcap replay goes through
:meth:`~repro.net.columnar.PacketColumns.from_batches` first. The tests
pin it to a streaming, one-batch-at-a-time detector
(``tests/detection_oracle.py``). A max rate of 0.5 pps *at the
telescope* corresponds to an estimated 128 pps at the victim (multiply
by 256 for a /8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.net.columnar import MAX_PORT, PacketColumns, decode_port_set
from repro.net.packet import PROTO_ICMP, PROTO_TCP

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


def detect_columns(
    config: RSDoSConfig, capture: PacketColumns
) -> List[TelescopeEvent]:
    """RSDoS over a whole time-sorted capture, as one segmentation.

    Returns one event per flow that passes the filters, in canonical
    ``(start_ts, victim)`` order:

    * backscatter rows are stable-sorted by (victim, timestamp), and a
      flow ends where the victim changes or the gap to the victim's
      previous row is strictly greater than the flow timeout (a gap of
      exactly the timeout continues the flow);
    * per-flow packets, bytes, distinct sources and TCP/ICMP counts are
      ``np.add.reduceat`` sums over the flow's rows, and ``max_ppm`` is
      the largest of its per-``ts // 60`` sums;
    * only flows that pass the three filters get the per-row work the
      event needs beyond the filters: the dominant attack protocol
      (most packets; ties go to the protocol seen first) and the
      union of the rows' port sets.
    """
    rows = np.flatnonzero(capture.backscatter())
    if not len(rows):
        return []
    rows = rows[np.lexsort((capture.ts[rows], capture.src[rows]))]
    victim = capture.src[rows]
    ts = capture.ts[rows]
    count = capture.count[rows]

    new_flow = np.ones(len(rows), dtype=bool)
    new_flow[1:] = (victim[1:] != victim[:-1]) | (
        ts[1:] - ts[:-1] > config.flow_timeout
    )
    starts = np.flatnonzero(new_flow)
    ends = np.append(starts[1:], len(rows))
    packets = np.add.reduceat(count, starts)
    first_ts = ts[starts]
    last_ts = ts[ends - 1]

    # Rows are time-ordered inside a flow, so each (flow, minute) is one
    # run of rows; a flow's first run starts where the flow does.
    minute = ts // 60.0
    new_minute = new_flow.copy()
    new_minute[1:] |= minute[1:] != minute[:-1]
    minute_starts = np.flatnonzero(new_minute)
    per_minute = np.add.reduceat(count, minute_starts)
    max_ppm = np.maximum.reduceat(
        per_minute, np.flatnonzero(new_flow[minute_starts])
    )

    kept = np.flatnonzero(
        (packets >= config.min_packets)
        & ~(last_ts - first_ts < config.min_duration)
        & ~(max_ppm / 60.0 < config.min_max_pps)
    )
    if not len(kept):
        return []
    flow_of_row = np.cumsum(new_flow) - 1
    keep = np.zeros(len(starts), dtype=bool)
    keep[kept] = True
    kept_rows = np.flatnonzero(keep[flow_of_row])
    dominant = _dominant_protos(
        flow_of_row[kept_rows],
        capture.attack_proto()[rows[kept_rows]],
        count[kept_rows],
    )
    ports = _port_unions(
        flow_of_row[kept_rows],
        capture.port_set[rows[kept_rows]],
        capture.port_sets,
    )

    def kept_sums(values: np.ndarray) -> list:
        return np.add.reduceat(values, starts)[kept].tolist()

    proto = capture.proto[rows]
    events = [
        TelescopeEvent(
            victim=flow_victim,
            start_ts=start,
            end_ts=end,
            packets=flow_packets,
            bytes=flow_bytes,
            distinct_sources=sources,
            ports=ports[flow],
            ip_proto=dominant[flow],
            max_ppm=ppm,
            tcp_responses=tcp,
            icmp_responses=icmp,
        )
        for (
            flow, flow_victim, start, end, flow_packets, flow_bytes, sources,
            ppm, tcp, icmp,
        ) in zip(
            kept.tolist(),
            victim[starts[kept]].tolist(),
            first_ts[kept].tolist(),
            last_ts[kept].tolist(),
            packets[kept].tolist(),
            kept_sums(capture.bytes[rows]),
            kept_sums(capture.distinct_dsts[rows]),
            max_ppm[kept].tolist(),
            kept_sums(np.where(proto == PROTO_TCP, count, 0)),
            kept_sums(np.where(proto == PROTO_ICMP, count, 0)),
        )
    ]
    events.sort(key=lambda event: (event.start_ts, event.victim))
    return events


def _dominant_protos(
    flow: np.ndarray, attack_proto: np.ndarray, count: np.ndarray
) -> Dict[int, int]:
    """Flow -> attack protocol with the most packets (first seen on ties).

    *flow* is non-decreasing and rows are in arrival order within a flow.
    """
    order = np.lexsort((attack_proto, flow))  # stable: arrival order kept
    flow = flow[order]
    attack_proto = attack_proto[order]
    runs = np.flatnonzero(
        np.r_[True, (flow[1:] != flow[:-1]) | (attack_proto[1:] != attack_proto[:-1])]
    )
    totals = np.add.reduceat(count[order], runs)
    first_seen = order[runs]  # each (flow, protocol) run starts at its first row
    best = np.lexsort((first_seen, -totals, flow[runs]))
    best_flow = flow[runs][best]
    leaders = runs[best[np.r_[True, best_flow[1:] != best_flow[:-1]]]]
    return dict(zip(flow[leaders].tolist(), attack_proto[leaders].tolist()))


def _port_unions(
    flow: np.ndarray, port_set: np.ndarray, port_sets
) -> Dict[int, Tuple[int, ...]]:
    """Flow -> sorted union of the port sets its rows' codes stand for."""
    # Codes run from -1 - len(port_sets) up to MAX_PORT: shifted to start
    # at 0, each is the low digit of one key per (flow, code) pair.
    low = -1 - len(port_sets)
    span = MAX_PORT + 1 - low
    pairs = np.unique(flow.astype(np.int64) * span + (port_set - low))
    unions: Dict[int, Set[int]] = {}
    for pair_flow, code in zip(
        (pairs // span).tolist(), (pairs % span + low).tolist()
    ):
        unions.setdefault(pair_flow, set()).update(
            decode_port_set(code, port_sets)
        )
    return {key: tuple(sorted(ports)) for key, ports in unions.items()}
