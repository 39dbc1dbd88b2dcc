"""Rolling fused state with query indexes: what the service serves from.

:class:`LiveFusedStore` wraps the incremental
:class:`~repro.core.streaming.StreamingFusion` (Table-1 aggregates, day
summaries, spike alerts) and adds the indexes a query API needs to stay
O(1) per request while the stream is still flowing:

* ``victim ip -> recent events`` (bounded ring per victim, so one
  much-attacked IP cannot grow memory without limit), each event kept
  as its canonical JSON text (:func:`~repro.serve.wal.canonical_json`):
  the text the WAL line carries is the one stored, snapshotted and
  hashed, and a query decodes only the events it returns;
* ``/24 and /16 prefix -> victim set`` (prefix queries without scans);
* ``domain -> latest DPS status record``.

Under a snapshot chain the store also logs what changed since the last
snapshot (:meth:`LiveFusedStore.track_changes`), so a delta snapshot
costs the records applied since, not the whole store.

Everything here is deterministic: applying the same record sequence to a
fresh store — in one process or across any number of crash/recover
cycles — produces the same :meth:`state_digest`. That property is what
the recovery drills assert.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

from repro.core.events import AttackEvent, event_from_dict, event_to_dict
from repro.core.streaming import FUSION_STATE_VERSION, StreamingFusion
from repro.net.addressing import slash16, slash24
from repro.obs.metrics import get_registry
from repro.serve.wal import canonical_json

if TYPE_CHECKING:
    from repro.core.webmap import WebHostingIndex

#: Version of the serialized LiveFusedStore state (snapshot payloads).
#: v2 keeps each event as its canonical JSON text; v1 kept the dicts and
#: still loads.
STORE_STATE_VERSION = 2

#: The state version :meth:`LiveFusedStore.state_digest` names: the
#: digest hashes the v1 form (events as JSON objects), so it is the same
#: for every state version and across nodes of different builds.
DIGEST_STATE_VERSION = 1


def _order_key(text: str) -> tuple:
    """``(start_ts, target)`` of a stored event text, without decoding it.

    Stored texts encode :func:`event_to_dict` output with sorted keys, so
    they end ``,"start_ts":S,"target":T}``; both values are numbers, and
    no string value can hold the unescaped ``,"target":`` marker.
    """
    head, _, target = text.rpartition(',"target":')
    start = head[head.rindex(":") + 1:]
    return (
        int(start) if start.isdigit() else float(start),
        int(target[:-1]),
    )


def validate_dps_record(data) -> Optional[str]:
    """Validate one DPS status record; None when valid, else a reason code."""
    if not isinstance(data, dict):
        return "not-an-object"
    domain = data.get("domain")
    if not isinstance(domain, str) or not domain:
        return "bad-type:domain"
    provider = data.get("provider")
    if not isinstance(provider, str) or not provider:
        return "bad-type:provider"
    day = data.get("day")
    if isinstance(day, bool) or not isinstance(day, int):
        return "bad-type:day"
    if day < 0:
        return "out-of-range:day"
    if "active" in data and not isinstance(data["active"], bool):
        return "bad-type:active"
    return None


def normalize_dps_record(data: dict) -> dict:
    """The canonical form a valid DPS record is stored and replayed as."""
    return {
        "domain": data["domain"],
        "provider": data["provider"],
        "day": data["day"],
        "active": bool(data.get("active", True)),
    }


class LiveFusedStore:
    """Fused state + query indexes over an incremental event stream."""

    def __init__(
        self,
        web_index: Optional[WebHostingIndex] = None,
        baseline_days: int = 7,
        alert_factor: float = 3.0,
        max_events_per_victim: int = 256,
        fusion: Optional[StreamingFusion] = None,
        metrics=None,
    ) -> None:
        if max_events_per_victim < 1:
            raise ValueError("need to keep at least one event per victim")
        self.fusion = (
            fusion
            if fusion is not None
            else StreamingFusion(
                web_index=web_index,
                baseline_days=baseline_days,
                alert_factor=alert_factor,
            )
        )
        self.max_events_per_victim = max_events_per_victim
        self.applied_events = 0
        self.applied_dps = 0
        # One writer (the applier) but many reader threads (HTTP
        # handlers) iterate the index dicts/sets below; without a lock a
        # concurrent apply raises "changed size during iteration" inside
        # a query and /digest can capture a half-applied record.
        # Re-entrant because summary() and state_digest() call other
        # locked methods.
        self._lock = threading.RLock()
        self._by_victim: Dict[int, Deque[str]] = {}
        self._victims_by_slash24: Dict[int, Set[int]] = {}
        self._victims_by_slash16: Dict[int, Set[int]] = {}
        self._dps: Dict[str, dict] = {}
        # The change log a delta snapshot reads, on from track_changes():
        # each accepted event as (victim, its text in the ring) in apply
        # order, and each DPS domain whose record changed, with it.
        self._new_events: Optional[List[Tuple[int, str]]] = None
        self._new_dps: Dict[str, dict] = {}
        registry = metrics if metrics is not None else get_registry()
        self._m_applied = registry.counter(
            "serve_applied_total", "records applied to the fused store",
            ("kind",),
        )

    # -- applying -------------------------------------------------------------

    def apply_attack(self, record: dict, text: Optional[str] = None) -> None:
        """Apply one validated attack-event record (normalizing first).

        *text* is the record's :func:`canonical_json`, encoded at intake.
        The store keeps it as is when normalizing leaves the record
        unchanged: normalizing reuses the record's own values, so equal
        dicts encode to equal texts. Otherwise, or without *text*, the
        normalized record is encoded here.

        Order matters: the fusion's own monotonicity check runs *before*
        any index mutation, so a rejected record (out-of-order beyond the
        one-day tolerance) leaves the store untouched — the all-or-nothing
        property replay determinism rests on.
        """
        event = event_from_dict(record)
        normalized = event_to_dict(event)
        if text is None or normalized != record:
            text = canonical_json(normalized)
        with self._lock:
            self.fusion.ingest(event)
            self._ring(event.target).append(text)
            if self._new_events is not None:
                self._new_events.append((event.target, text))
            self.applied_events += 1
        self._m_applied.inc(kind="attack")

    def _ring(self, victim: int) -> Deque[str]:
        """The victim's event ring, made and prefix-indexed on first use."""
        ring = self._by_victim.get(victim)
        if ring is None:
            ring = deque(maxlen=self.max_events_per_victim)
            self._by_victim[victim] = ring
            self._victims_by_slash24.setdefault(
                slash24(victim), set()
            ).add(victim)
            self._victims_by_slash16.setdefault(
                slash16(victim), set()
            ).add(victim)
        return ring

    def apply_dps(self, record: dict) -> None:
        """Apply one validated DPS status record (latest-by-day wins)."""
        normalized = normalize_dps_record(record)
        domain = normalized["domain"]
        with self._lock:
            current = self._dps.get(domain)
            if current is None or normalized["day"] >= current["day"]:
                self._dps[domain] = normalized
                if self._new_events is not None:
                    self._new_dps[domain] = normalized
            self.applied_dps += 1
        self._m_applied.inc(kind="dps")

    # -- queries --------------------------------------------------------------

    def events_for_ip(self, ip: int, limit: int = 50) -> List[dict]:
        """Most recent events against one victim IP, newest first."""
        with self._lock:
            ring = self._by_victim.get(ip)
            texts = list(ring)[-limit:] if ring else []
        return [json.loads(text) for text in reversed(texts)]

    def events_for_prefix(
        self, base: int, length: int, limit: int = 50
    ) -> List[dict]:
        """Most recent events against any victim in a /24 or /16."""
        with self._lock:
            if length == 24:
                victims = self._victims_by_slash24.get(slash24(base), ())
            elif length == 16:
                victims = self._victims_by_slash16.get(slash16(base), ())
            else:
                raise ValueError("prefix queries support /24 and /16 only")
            merged: List[str] = []
            for victim in victims:
                merged.extend(self._by_victim.get(victim, ()))
        merged.sort(key=_order_key, reverse=True)
        return [json.loads(text) for text in merged[:limit]]

    def victims_in_prefix(self, base: int, length: int) -> List[int]:
        with self._lock:
            if length == 24:
                return sorted(self._victims_by_slash24.get(slash24(base), ()))
            if length == 16:
                return sorted(self._victims_by_slash16.get(slash16(base), ()))
        raise ValueError("prefix queries support /24 and /16 only")

    def domain_status(self, domain: str) -> Optional[dict]:
        """Latest DPS status for one domain, or None if never reported."""
        with self._lock:
            record = self._dps.get(domain)
            return dict(record) if record else None

    def protected_domains(self) -> int:
        with self._lock:
            return sum(1 for r in self._dps.values() if r["active"])

    def summary(self) -> dict:
        """Live Table-1-style aggregates plus stream health."""
        with self._lock:
            summary = self.fusion.running_summary()
            summary.update(
                {
                    "days_closed": len(self.fusion.summaries),
                    "alerts": len(self.fusion.alerts),
                    "indexed_victims": len(self._by_victim),
                    "dps_domains": len(self._dps),
                    "dps_protected": self.protected_domains(),
                    "applied_events": self.applied_events,
                    "applied_dps": self.applied_dps,
                }
            )
        return summary

    # -- durable state --------------------------------------------------------

    def state_dict(self) -> dict:
        """Canonical JSON-able capture of the entire store (events as
        their texts)."""
        with self._lock:
            return {
                "version": STORE_STATE_VERSION,
                "max_events_per_victim": self.max_events_per_victim,
                "applied_events": self.applied_events,
                "applied_dps": self.applied_dps,
                "fusion": self.fusion.state_dict(),
                "by_victim": {
                    str(victim): list(ring)
                    for victim, ring in sorted(self._by_victim.items())
                },
                "dps": {
                    domain: self._dps[domain] for domain in sorted(self._dps)
                },
            }

    @classmethod
    def from_state_dict(
        cls,
        state: dict,
        web_index: Optional[WebHostingIndex] = None,
        metrics=None,
    ) -> "LiveFusedStore":
        version = state.get("version")
        if version not in (1, STORE_STATE_VERSION):
            raise ValueError(
                f"store state v{version!r}, this build reads "
                f"v1 and v{STORE_STATE_VERSION}"
            )
        store = cls(
            max_events_per_victim=int(state["max_events_per_victim"]),
            fusion=StreamingFusion.from_state_dict(
                state["fusion"], web_index=web_index
            ),
            metrics=metrics,
        )
        store.applied_events = int(state["applied_events"])
        store.applied_dps = int(state["applied_dps"])
        for victim_text, events in state["by_victim"].items():
            victim = int(victim_text)
            if version == 1:
                events = [canonical_json(event) for event in events]
            elif not all(isinstance(text, str) for text in events):
                raise TypeError(f"victim {victim} holds a non-text event")
            store._ring(victim).extend(events)
        store._dps = {
            domain: dict(record)
            for domain, record in state["dps"].items()
        }
        return store

    def track_changes(self) -> None:
        """Count the current state as saved and log what changes from here.

        The log is what :meth:`delta_dict` reads: references to the
        texts already in the rings, not copies. A store no snapshot
        chain follows never turns it on.
        """
        with self._lock:
            self._new_events = []
            self._new_dps = {}
            self.fusion.track_additions()

    def delta_dict(self) -> dict:
        """What changed since the last :meth:`capture_saved`, for a delta
        snapshot: the accepted events in apply order, the DPS records
        that changed, the applied counters and the fusion's additions.
        :meth:`apply_delta` of this onto the state as of that save gives
        this store's :meth:`state_dict`."""
        with self._lock:
            if self._new_events is None:
                raise RuntimeError("delta_dict needs track_changes() first")
            return {
                "version": STORE_STATE_VERSION,
                "applied_events": self.applied_events,
                "applied_dps": self.applied_dps,
                "events": list(self._new_events),
                "dps": dict(self._new_dps),
                "fusion": self.fusion.delta_dict(),
            }

    def capture(self, delta: bool) -> Tuple[dict, tuple]:
        """One snapshot's document and its change-log mark, read together.

        The document is :meth:`state_dict`, or with *delta*
        :meth:`delta_dict`. The log keeps everything until
        :meth:`capture_saved` gets the mark, so a save that fails leaves
        its changes for the next snapshot.
        """
        with self._lock:
            document = self.delta_dict() if delta else self.state_dict()
            mark = (
                len(self._new_events),
                dict(self._new_dps),
                self.fusion.additions_mark(),
            )
        return document, mark

    def capture_saved(self, mark: tuple) -> None:
        """Drop from the change log what the capture at *mark* holds."""
        events, dps, fusion_mark = mark
        with self._lock:
            del self._new_events[:events]
            for domain, record in dps.items():
                if self._new_dps.get(domain) is record:
                    del self._new_dps[domain]
            self.fusion.additions_saved(fusion_mark)

    def apply_delta(self, delta: dict) -> None:
        """Fold a :meth:`delta_dict` into this store.

        Each event goes onto its victim's ring, whose bound evicts
        exactly what it evicted live. The version and the event texts
        are checked before anything changes, so a delta of another
        build raises and leaves the store as it was.
        """
        version = delta.get("version")
        if version != STORE_STATE_VERSION:
            raise ValueError(
                f"store delta v{version!r}, this build reads "
                f"v{STORE_STATE_VERSION}"
            )
        events = delta["events"]
        if not all(isinstance(text, str) for _, text in events):
            raise TypeError("delta holds a non-text event")
        fusion = delta["fusion"]
        with self._lock:
            self.fusion.apply_delta(fusion)
            for victim, text in events:
                self._ring(int(victim)).append(text)
            for domain, record in delta["dps"].items():
                self._dps[domain] = dict(record)
            self.applied_events = int(delta["applied_events"])
            self.applied_dps = int(delta["applied_dps"])

    def state_digest(self) -> str:
        """SHA-256 of the canonical state: the equivalence oracle the
        kill-9 drills compare across recoveries.

        The hashed text is the canonical JSON of :meth:`state_dict` with
        every event as a JSON object and ``version`` 1, built by
        splicing the stored texts between the encoded other fields (in
        sorted key order) rather than decoding them.
        """
        with self._lock:
            head = canonical_json({
                "applied_dps": self.applied_dps,
                "applied_events": self.applied_events,
            })
            tail = canonical_json({
                "dps": self._dps,
                "fusion": self.fusion.state_dict(),
                "max_events_per_victim": self.max_events_per_victim,
                "version": DIGEST_STATE_VERSION,
            })
            victims = ",".join(
                f'"{victim}":[{",".join(ring)}]'
                for victim, ring in sorted(
                    (str(victim), ring)
                    for victim, ring in self._by_victim.items()
                )
            )
        canonical = f'{head[:-1]},"by_victim":{{{victims}}},{tail[1:]}'
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


__all__ = [
    "DIGEST_STATE_VERSION",
    "LiveFusedStore",
    "STORE_STATE_VERSION",
    "normalize_dps_record",
    "validate_dps_record",
]
