"""Admission control: bounded intake with watermarks and load shedding.

The intake queue between the HTTP ingest handlers and the applier thread
is the component that decides whether a traffic burst degrades
*throughput* or kills the *process*. Policy, all deterministic:

* depth reaches the **high watermark** → the service starts *refusing*
  new batches (HTTP 503 with ``Retry-After``) until the applier drains
  the queue back to the **low watermark** (hysteresis, so the service
  does not flap at the boundary);
* a race of concurrent accepted batches can still overflow ``maxsize``
  → **drop-oldest**: the oldest queued entries are evicted to make room,
  counted per feed. The service records each eviction as a ``shed``
  tombstone in the WAL, so recovery replays exactly what the live
  process applied;
* every decision is a counter (``serve_shed_total{feed,policy}``) and the
  queue depth / shedding flag are gauges, so an overload is visible in
  ``/metrics`` while it is happening, not after the postmortem.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.log import get_logger
from repro.obs.metrics import get_registry

log = get_logger("serve.admission")

#: Shed policies, as metric label values.
POLICY_REFUSE = "refuse"
POLICY_DROP_OLDEST = "drop-oldest"


@dataclass(frozen=True)
class QueueEntry:
    """One admitted (already WAL-logged) record awaiting apply."""

    seq: int
    kind: str
    feed: str
    record: dict
    #: The record's canonical JSON, encoded once at intake: its WAL
    #: line's record and, for an attack event, the text the store keeps.
    text: Optional[str] = None
    #: Service-clock time the entry was pushed (after its WAL commit),
    #: for ``serve_queue_wait_seconds``.
    enqueued_at: float = 0.0


@dataclass
class SubmitResult:
    """What one ingest batch got: accepted seqs, rejects, 503 — or 409.

    ``last_seq`` is the highest sequence number assigned to this batch
    (0 when nothing was accepted): the client-visible ack watermark that
    failover drills compare a promoted follower's replication cursor
    against. ``read_only`` marks a write refused by a replica or fenced
    node — an HTTP 409 carrying ``primary_url`` as the place to go.
    """

    accepted: int = 0
    rejected: int = 0
    shed: int = 0
    retry_after: Optional[float] = None
    reasons: Dict[str, int] = field(default_factory=dict)
    last_seq: int = 0
    read_only: bool = False
    primary_url: Optional[str] = None

    @property
    def refused(self) -> bool:
        return self.retry_after is not None

    def http_status(self) -> int:
        """The HTTP status this outcome maps to.

        One place instead of per-handler conditionals: 409 for writes
        refused by role, 503 for anything refused with a Retry-After
        (shedding, draining, degraded disk, sync timeout), 400 when the
        whole batch failed validation, else 202.
        """
        if self.read_only:
            return 409
        if self.refused:
            return 503
        if self.accepted == 0 and self.rejected:
            return 400
        return 202

    def to_dict(self) -> dict:
        body = {
            "accepted": self.accepted,
            "rejected": self.rejected,
            "shed": self.shed,
            "reasons": self.reasons,
        }
        if self.accepted:
            body["last_seq"] = self.last_seq
        if self.retry_after is not None:
            body["retry_after"] = self.retry_after
        if self.read_only:
            body["read_only"] = True
            body["primary_url"] = self.primary_url
        return body


class AdmissionQueue:
    """Bounded FIFO with high/low watermarks and drop-oldest overflow."""

    def __init__(
        self,
        maxsize: int = 4096,
        high_watermark: Optional[int] = None,
        low_watermark: Optional[int] = None,
        retry_after: float = 1.0,
        metrics=None,
    ) -> None:
        if maxsize < 2:
            raise ValueError("queue bound must be at least two entries")
        self.maxsize = maxsize
        self.high_watermark = (
            high_watermark if high_watermark is not None
            else max(1, (maxsize * 4) // 5)
        )
        self.low_watermark = (
            low_watermark if low_watermark is not None
            else max(0, maxsize // 2)
        )
        if not 0 <= self.low_watermark < self.high_watermark <= maxsize:
            raise ValueError(
                "watermarks must satisfy 0 <= low < high <= maxsize"
            )
        if retry_after <= 0:
            raise ValueError("retry_after must be positive")
        self.retry_after = retry_after
        self._entries: List[QueueEntry] = []
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._shedding = False
        registry = metrics if metrics is not None else get_registry()
        self._m_depth = registry.gauge(
            "serve_queue_depth", "entries awaiting apply"
        )
        self._m_shedding = registry.gauge(
            "serve_shedding", "1 while the service refuses ingest batches"
        )
        self._m_shed = registry.counter(
            "serve_shed_total", "records shed by admission control",
            ("feed", "policy"),
        )
        self._m_admitted = registry.counter(
            "serve_admitted_total", "records admitted past the watermarks",
            ("feed",),
        )

    # -- state ----------------------------------------------------------------

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def shedding(self) -> bool:
        with self._lock:
            return self._shedding

    def min_seq(self) -> Optional[int]:
        """Smallest sequence number still queued (None: queue empty).

        Entries are queued in sequence order, so this is the head
        entry's seq. Replication's *stable frontier* rests on it: a
        sequence below every queued entry can no longer be evicted by
        drop-oldest, so no future ``shed`` tombstone can name it — a
        follower may apply it without waiting for more of the log.
        """
        with self._lock:
            return self._entries[0].seq if self._entries else None

    def _update_shedding_locked(self) -> None:
        depth = len(self._entries)
        if not self._shedding and depth >= self.high_watermark:
            self._shedding = True
            log.warning(
                "admission entered shed mode", depth=depth,
                high_watermark=self.high_watermark,
            )
        elif self._shedding and depth <= self.low_watermark:
            self._shedding = False
            log.info(
                "admission left shed mode", depth=depth,
                low_watermark=self.low_watermark,
            )
        self._m_shedding.set(1 if self._shedding else 0)
        self._m_depth.set(depth)

    # -- intake side -----------------------------------------------------------

    def refuse(self, feed: str, count: int) -> Optional[float]:
        """503 check: ``Retry-After`` seconds while shedding, else None.

        Counts the refused batch so a sustained overload is visible as a
        per-feed rate, and deterministic: the same depth sequence always
        produces the same refusals.
        """
        with self._lock:
            if self._shedding:
                self._m_shed.inc(count, feed=feed, policy=POLICY_REFUSE)
                return self.retry_after
            return None

    def push(self, entries: List[QueueEntry]) -> List[QueueEntry]:
        """Enqueue admitted entries; returns entries evicted (drop-oldest).

        Eviction only triggers past ``maxsize`` (concurrent batches that
        each individually passed the watermark check); the evicted
        entries are handed back so the caller can tombstone them in the
        WAL — a drop the recovery path would otherwise re-apply.
        """
        if not entries:
            return []
        dropped: List[QueueEntry] = []
        with self._lock:
            self._entries.extend(entries)
            overflow = len(self._entries) - self.maxsize
            if overflow > 0:
                dropped = self._entries[:overflow]
                del self._entries[:overflow]
                for entry in dropped:
                    self._m_shed.inc(
                        feed=entry.feed, policy=POLICY_DROP_OLDEST
                    )
            for entry in entries:
                self._m_admitted.inc(feed=entry.feed)
            self._update_shedding_locked()
            self._not_empty.notify_all()
        if dropped:
            log.warning(
                "queue overflow; oldest entries dropped",
                dropped=len(dropped),
                maxsize=self.maxsize,
            )
        return dropped

    def unshift(self, entries: List[QueueEntry]) -> None:
        """Put evicted entries back at the head, oldest first.

        The undo for :meth:`push`'s drop-oldest handback, used when the
        drop could not be made durable (the shed tombstone append
        failed): the entries were never taken by the applier, so
        restoring them at the head preserves sequence order. Depth may
        transiently exceed ``maxsize``; the watermark flags update so
        intake keeps refusing until the applier drains the excess.
        """
        if not entries:
            return
        with self._lock:
            self._entries[:0] = entries
            self._update_shedding_locked()
            self._not_empty.notify_all()

    # -- applier side ----------------------------------------------------------

    def take(
        self, max_items: int = 256, timeout: Optional[float] = 0.2
    ) -> List[QueueEntry]:
        """Dequeue up to *max_items* entries, waiting up to *timeout*."""
        with self._not_empty:
            if not self._entries and timeout:
                self._not_empty.wait(timeout)
            if not self._entries:
                return []
            batch = self._entries[:max_items]
            del self._entries[:max_items]
            self._update_shedding_locked()
            return batch

    def wake(self) -> None:
        """Nudge a waiting applier (shutdown path)."""
        with self._not_empty:
            self._not_empty.notify_all()


__all__ = [
    "AdmissionQueue",
    "POLICY_DROP_OLDEST",
    "POLICY_REFUSE",
    "QueueEntry",
    "SubmitResult",
]
