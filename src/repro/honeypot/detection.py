"""Event extraction from the honeypot request logs.

Request batches from all instances are merged per (victim, protocol) into
attack events. A gap longer than the aggregation timeout closes the event;
events shorter than the 100-request threshold are dropped (scans and
dribble), and — matching how AmpPot operates — event durations are capped at
24 hours by closing and reopening the flow.

:func:`detect_columns` applies these rules to a whole
:class:`~repro.honeypot.columnar.RequestColumns` log at once. The tests
pin it to a streaming, one-batch-at-a-time detector
(``tests/detection_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

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


def detect_columns(
    config: DetectionConfig, log: RequestColumns
) -> List[AmpPotEvent]:
    """Event extraction over a whole time-sorted log, as one segmentation.

    Returns one event per flow of more than ``min_requests`` requests,
    in canonical ``(start_ts, victim, protocol)`` order. Rows are
    stable-sorted by (victim, protocol, timestamp); a flow ends where
    the key changes or the gap to the key's previous row is strictly
    greater than the gap timeout. Only flows spanning more than the
    24 h cap get a sequential pass, which closes the flow at the first
    row more than the cap after the flow's first row and reopens it
    there.
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
