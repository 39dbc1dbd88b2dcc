"""Rolling snapshots of fused state: a chain of a base and its deltas.

Each snapshot is one :class:`~repro.store.checkpoint.CheckpointStore`
stage, so the atomic write + SHA-256 manifest machinery from the batch
pipeline is reused verbatim: a snapshot on disk is either complete and
checksummed or does not exist. The first snapshot of a store's lineage
is a **base**, stage ``snapshot-<seq>``, holding the whole state as
``{"seq", "state"}`` (the payload every full snapshot has had, so those
an older build wrote load as bases). Each later snapshot is a
**delta**, stage ``snapshot-<seq>-delta``, holding ``{"seq", "prev",
"delta"}``: what changed since the chain element at ``prev``
(:meth:`~repro.serve.state.LiveFusedStore.delta_dict`), so it costs the
records applied since, not the whole store. Sequence numbers are
zero-padded, so name order is sequence order.

Compaction: once the deltas since the last base hold more than
:data:`COMPACT_FACTOR` times as many applied records as that base, the
next snapshot is a base again. So each base is at least ``1 + K`` times
the one before, a server writes O(log N) bases over N records, snapshot
work stays O(1) per record amortized, and recovery reads at most
``1 + K`` times a base.

Retention keeps the newest :data:`KEEP_BASES` (two) bases and every
delta after the older of them. The service prunes the WAL up to that
older base (:meth:`SnapshotManager.wal_prune_seq`), and prunes nothing
while only one base exists: a lone base is never a prune point, since
if it failed to verify nothing older would be left to rebuild from.
Loading takes the newest base that verifies and folds in the deltas
after it along their ``prev`` links. The first delta that fails
verification (or does not follow) ends the chain: it and every later
one are discarded, and the WAL after the last element used covers the
rest. A corrupted snapshot costs a longer replay, never the run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple, Union
from pathlib import Path

from repro.log import get_logger
from repro.obs.metrics import NULL_REGISTRY, get_registry
from repro.serve.state import LiveFusedStore
from repro.store.checkpoint import CheckpointError, CheckpointStore

log = get_logger("serve.snapshot")

SNAPSHOT_PREFIX = "snapshot-"
DELTA_SUFFIX = "-delta"

#: A base replaces the next delta once the deltas since the last base
#: hold more than this many times the base's applied records. A larger
#: factor writes fewer bases but lets recovery fold longer chains.
COMPACT_FACTOR = 8

#: Bases retention keeps: the newest, and one to fall back on.
KEEP_BASES = 2

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})(-delta)?$")


def snapshot_stage_name(seq: int, delta: bool = False) -> str:
    return f"{SNAPSHOT_PREFIX}{seq:012d}{DELTA_SUFFIX if delta else ''}"


def _applied(document: Any) -> int:
    """Records applied as of a state or delta document (0 without)."""
    if not isinstance(document, dict):
        return 0
    return int(document.get("applied_events", 0)) + int(
        document.get("applied_dps", 0)
    )


@dataclass
class SnapshotLoad:
    """Outcome of the newest-valid-chain walk."""

    seq: int = 0
    #: ``{"seq", "state"}``: the base with every usable delta folded in.
    payload: Any = None
    #: Snapshots that failed verification and were discarded on the way.
    discarded: List[str] = field(default_factory=list)
    #: Records applied as of the base (the compaction rule's yardstick).
    base_applied: int = 0
    #: Deltas folded into ``payload``.
    deltas: int = 0

    @property
    def found(self) -> bool:
        return self.payload is not None


class SnapshotManager:
    """Rolling, checksummed base + delta snapshots under one data dir."""

    def __init__(
        self,
        store: Union[str, Path, CheckpointStore],
        metrics=None,
    ) -> None:
        # Paths become real CheckpointStores; anything else only has to
        # duck-type stages/save/load/discard — the simulation harness
        # substitutes an in-memory store with seeded corruption here.
        self.store = (
            CheckpointStore(store)
            if isinstance(store, (str, Path))
            else store
        )
        #: Sequence number of the chain element this node saved (or
        #: resumed from) last: the ``prev`` of its next delta. None
        #: makes the next snapshot a base.
        self.head: Optional[int] = None
        self._base_applied = 0
        registry = metrics if metrics is not None else get_registry()
        self._m_saves = registry.counter(
            "serve_snapshots_total", "rolling snapshots persisted"
        )
        self._m_bases = registry.counter(
            "serve_snapshot_bases_total",
            "rolling snapshots persisted as a base (the whole state)",
        )
        self._m_discarded = registry.counter(
            "serve_snapshots_discarded_total",
            "snapshots that failed verification at load",
        )
        self._m_seq = registry.gauge(
            "serve_snapshot_seq", "sequence number of the newest snapshot"
        )

    def _elements(self) -> List[Tuple[int, str, bool]]:
        """``(seq, stage, is_delta)`` of every chain element, by seq."""
        found = []
        for stage in self.store.stages():
            match = _SNAPSHOT_RE.match(stage)
            if match:
                found.append((int(match.group(1)), stage, bool(match.group(2))))
        return sorted(found)

    def seqs(self) -> List[int]:
        """Sequence numbers of the bases and deltas on disk, ascending."""
        return [seq for seq, _, _ in self._elements()]

    def names(self) -> List[str]:
        """Stage names of the bases and deltas on disk, by seq."""
        return [name for _, name, _ in self._elements()]

    def wal_prune_seq(self) -> Optional[int]:
        """How far the WAL may be pruned: the older of the two newest
        bases. None while only one base exists, so that a base that
        fails to verify always leaves the WAL from before it."""
        bases = [seq for seq, _, delta in self._elements() if not delta]
        return bases[-KEEP_BASES] if len(bases) >= KEEP_BASES else None

    def wants_base(self, applied: int) -> bool:
        """Whether a snapshot at *applied* records must be a base."""
        return (
            self.head is None
            or applied - self._base_applied
            > COMPACT_FACTOR * self._base_applied
        )

    def save(self, seq: int, payload: Any) -> str:
        """Persist one chain element: a base ``{"seq", "state"}`` or a
        delta ``{"seq", "prev", "delta"}``. A base then retires what
        retention no longer keeps."""
        delta = "delta" in payload
        name = snapshot_stage_name(seq, delta)
        self.store.save(name, payload)
        self._m_saves.inc()
        self._m_seq.set(seq)
        if not delta:
            self._m_bases.inc()
            self._base_applied = _applied(payload.get("state"))
            self._retire(seq)
        self.head = seq
        log.debug("snapshot saved", seq=seq, delta=delta)
        return name

    def _retire(self, base_seq: int) -> None:
        elements = self._elements()
        bases = [
            seq for seq, _, delta in elements if not delta and seq <= base_seq
        ]
        oldest = bases[-KEEP_BASES:][0]
        for seq, name, delta in elements:
            # Past the new base (or beside it, as a delta) lies a history
            # it replaces: a follower's pre-bootstrap state.
            if seq < oldest or seq > base_seq or (seq == base_seq and delta):
                self.store.discard(name)

    def discard(self, seq: int) -> None:
        """Drop the chain element at *seq* (one that does not decode)."""
        for element_seq, name, _ in self._elements():
            if element_seq == seq:
                self.store.discard(name)
        self.head = None

    def resume(self, loaded: SnapshotLoad) -> None:
        """Continue this node's chain from what recovery loaded.

        Only an intact chain is continued: after a discard the next
        snapshot starts a fresh lineage with a base.
        """
        if loaded.found and not loaded.discarded:
            self.head = loaded.seq
            self._base_applied = loaded.base_applied

    def load_newest_valid(self) -> SnapshotLoad:
        """The newest base that verifies, with its deltas folded in.

        A snapshot that fails its checksum (or names a state version
        this build cannot read — the caller re-raises that for a lone
        base as :class:`ValueError`) silently shifts recovery back along
        the chain, where the WAL still covers the gap.
        """
        result = SnapshotLoad()
        elements = self._elements()
        for index in reversed(range(len(elements))):
            seq, name, delta = elements[index]
            if delta:
                continue
            base = self._verified(name, result)
            if base is None:
                continue
            deltas = [(s, n) for s, n, d in elements[index + 1:] if d]
            if self._fold(result, seq, base, deltas):
                return result
            self._reject(name, result, "base state does not decode")
        # No base: a delta has nothing to follow.
        for _, name, delta in elements:
            if delta:
                self._reject(name, result, "no base before it")
        return result

    def _fold(self, result: SnapshotLoad, seq: int, base: Any,
              deltas: List[Tuple[int, str]]) -> bool:
        """Fold *deltas* onto *base* into *result*; False when the base
        does not decode."""
        if deltas:
            try:
                store = LiveFusedStore.from_state_dict(
                    base["state"], metrics=NULL_REGISTRY
                )
            except (ValueError, KeyError, TypeError):
                return False
        result.seq = seq
        result.payload = base
        result.base_applied = _applied(base.get("state"))
        for position, (delta_seq, name) in enumerate(deltas):
            payload = self._verified(name, result)
            if payload is not None:
                try:
                    if payload.get("prev") != result.seq:
                        raise ValueError(
                            f"follows seq {payload.get('prev')}, "
                            f"not {result.seq}"
                        )
                    store.apply_delta(payload["delta"])
                except (ValueError, KeyError, TypeError) as exc:
                    self._reject(name, result, str(exc))
                    payload = None
            if payload is None:
                for _, later in deltas[position + 1:]:
                    self._reject(later, result, "follows a discarded delta")
                break
            result.seq = delta_seq
            result.deltas += 1
        if result.deltas:
            result.payload = {"seq": result.seq, "state": store.state_dict()}
        return True

    def _verified(self, name: str, result: SnapshotLoad) -> Any:
        try:
            return self.store.load(name)
        except CheckpointError as exc:
            self._reject(name, result, exc.reason)
            return None

    def _reject(self, name: str, result: SnapshotLoad, reason: str) -> None:
        result.discarded.append(name)
        self._m_discarded.inc()
        log.warning(
            "snapshot rejected; falling back", snapshot=name, reason=reason
        )
        self.store.discard(name)
        self.head = None


__all__ = [
    "COMPACT_FACTOR",
    "KEEP_BASES",
    "SNAPSHOT_PREFIX",
    "SnapshotLoad",
    "SnapshotManager",
    "snapshot_stage_name",
]
