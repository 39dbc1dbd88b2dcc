"""WAL-shipping replication: primary/follower cluster over the serve WAL.

One node is the **primary**: it owns sequence assignment, accepts writes,
and appends every accepted record to its write-ahead log. **Followers**
(`python -m repro serve --replica-of URL`) pull the primary's WAL over
plain HTTP — raw segment bytes, in order — apply the records through
their own :class:`~repro.serve.state.LiveFusedStore`, persist their own
WAL + rolling snapshots, and serve read-only queries. Because the WAL's
byte order *is* its sequence order and every apply is deterministic, a
caught-up follower's :meth:`state_digest` equals the primary's at the
same applied sequence — replication correctness is checkable with one
string compare.

The stable frontier
-------------------

The one hazard in shipping a log that also records *load shedding* is
that a ``shed`` tombstone is written **after** the records it evicts: a
drop-oldest eviction can retroactively shed a sequence the follower has
already fetched. A follower must therefore never apply a record that the
primary could still shed. The protocol closes this with the **stable
sequence**: the primary reports (computed under its intake lock, *before*
it samples segment sizes) the highest sequence below everything still
queued — a sequence at or under it has left the admission queue and can
never be named by a future tombstone. The follower only applies records
at or below the stable frontier, and computes its shed set from *every*
fetched byte (tombstones beyond the frontier included). Ordering
guarantees the frontier is safe: any tombstone naming a stable sequence
was appended before that sequence left the queue, which is before the
size sample the fetch covered.

Epoch fencing
-------------

Every node carries a monotonically increasing **epoch** persisted in an
atomically-written ``cluster.json``. Promotion
(``python -m repro serve-promote`` or ``POST /promote``) bumps the
epoch; a fencing request (``POST /replication/fence``) with a *newer*
epoch forces an old primary into the ``fenced`` role — tail sealed,
writes refused with the new primary's address — while a fence with a
stale epoch is itself refused. Split-brain thus loses: at most one node
per epoch accepts writes.

Catch-up
--------

A follower whose cursor has fallen below the primary's oldest retained
WAL segment (pruning runs up to the older of the two newest snapshot
bases) cannot catch up from the log alone: it **bootstraps** — fetches
the primary's newest snapshot, saves it as a base of its own, resets
its store and local WAL at that sequence, and resumes streaming from
there. Catch-up cost is therefore bounded by one snapshot plus the WAL
after it, regardless of how long the follower was away.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.log import get_logger
from repro.obs.metrics import get_registry
from repro.exec.retry import RetryPolicy
from repro.serve.transport import HttpTransport, TransportError
from repro.serve.wal import KIND_SHED, WAL_KINDS, WalRecord
from repro.store.atomic import atomic_write_text

log = get_logger("serve.replication")

#: Node roles. ``fenced`` is a former primary that saw a newer epoch:
#: it keeps serving reads but refuses writes, pointing at its successor.
ROLE_PRIMARY = "primary"
ROLE_REPLICA = "replica"
ROLE_FENCED = "fenced"
ALL_ROLES = (ROLE_PRIMARY, ROLE_REPLICA, ROLE_FENCED)

#: Durable cluster identity (role + epoch + primary hint), written
#: atomically so a crash can never leave a torn role file.
CLUSTER_FILE = "cluster.json"

#: Durable replication cursor (follower side), written atomically.
CURSOR_FILE = "replication.json"

#: Follower replication states, as the ``serve_replication_state`` gauge.
STATE_INIT = 0
STATE_STREAMING = 1
STATE_BOOTSTRAPPING = 2
STATE_ERROR = 3

REPLICATION_STATE_NAMES = {
    STATE_INIT: "init",
    STATE_STREAMING: "streaming",
    STATE_BOOTSTRAPPING: "bootstrapping",
    STATE_ERROR: "error",
}

#: Bytes per segment-chunk fetch.
FETCH_CHUNK_BYTES = 1 << 20


def write_json_atomic(path: Union[str, Path], payload: dict) -> Path:
    """Write *payload* as JSON via temp file + ``os.replace``.

    Peers and poll loops read these files while they are being rewritten
    (``endpoint.json``, ``cluster.json``, the replication cursor); the
    rename makes a torn read impossible — a reader sees the old complete
    document or the new one, never a prefix.
    """
    path = Path(path)
    atomic_write_text(path, json.dumps(payload, sort_keys=True) + "\n")
    return path


@dataclass
class ClusterState:
    """A node's durable cluster identity."""

    role: str = ROLE_PRIMARY
    epoch: int = 1
    primary_url: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "role": self.role,
            "epoch": self.epoch,
            "primary_url": self.primary_url,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterState":
        role = data.get("role")
        epoch = data.get("epoch")
        if role not in ALL_ROLES:
            raise ValueError(f"unknown cluster role {role!r}")
        if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 1:
            raise ValueError(f"bad cluster epoch {epoch!r}")
        primary = data.get("primary_url")
        if primary is not None and not isinstance(primary, str):
            raise ValueError("primary_url must be a string or null")
        return cls(role=role, epoch=epoch, primary_url=primary)

    def save(self, data_dir: Union[str, Path]) -> Path:
        return write_json_atomic(
            Path(data_dir) / CLUSTER_FILE, self.to_dict()
        )

    @classmethod
    def load(cls, data_dir: Union[str, Path]) -> Optional["ClusterState"]:
        path = Path(data_dir) / CLUSTER_FILE
        try:
            return cls.from_dict(
                json.loads(path.read_text(encoding="utf-8"))
            )
        except FileNotFoundError:
            return None
        except (ValueError, OSError) as exc:
            # A cluster file that does not parse is treated as absent:
            # the caller falls back to its configured role. It cannot be
            # *torn* (atomic writes), so this is corruption, worth a log.
            log.warning("cluster file unreadable", error=str(exc))
            return None


@dataclass
class ShipperCursor:
    """Where a follower's replication stream stands, durably.

    ``offsets`` maps primary segment first-seq -> byte offset below
    which every line is *resolved* (committed locally or shed). Resuming
    from these offsets can re-fetch a little (anything between the
    stable frontier and the last fetch), never skip: duplicates are
    dropped by sequence number.
    """

    epoch: int = 0
    committed_seq: int = 0
    offsets: Dict[int, int] = field(default_factory=dict)
    primary_url: Optional[str] = None
    bootstraps: int = 0

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "committed_seq": self.committed_seq,
            "offsets": {
                str(first): offset
                for first, offset in sorted(self.offsets.items())
            },
            "primary_url": self.primary_url,
            "bootstraps": self.bootstraps,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShipperCursor":
        committed = data.get("committed_seq")
        if isinstance(committed, bool) or not isinstance(committed, int):
            raise ValueError("bad cursor committed_seq")
        offsets: Dict[int, int] = {}
        for key, value in (data.get("offsets") or {}).items():
            offsets[int(key)] = int(value)
        return cls(
            epoch=int(data.get("epoch") or 0),
            committed_seq=committed,
            offsets=offsets,
            primary_url=data.get("primary_url"),
            bootstraps=int(data.get("bootstraps") or 0),
        )

    def save(self, data_dir: Union[str, Path]) -> Path:
        return write_json_atomic(Path(data_dir) / CURSOR_FILE, self.to_dict())

    @classmethod
    def load(cls, data_dir: Union[str, Path]) -> Optional["ShipperCursor"]:
        path = Path(data_dir) / CURSOR_FILE
        try:
            return cls.from_dict(
                json.loads(path.read_text(encoding="utf-8"))
            )
        except FileNotFoundError:
            return None
        except (ValueError, OSError) as exc:
            log.warning("replication cursor unreadable", error=str(exc))
            return None


class ReplicationError(Exception):
    """A poll against the primary failed (transport or protocol)."""


@dataclass
class _ParsedLine:
    """One complete line fetched from the primary's WAL."""

    seq: int
    kind: str
    record: dict
    segment_first: int
    end_offset: int
    trace: Optional[str] = None


class WalShipper:
    """Follower-side replication loop: fetch, parse, commit, snapshot.

    Owns no state mutation itself — every commit goes through
    ``service.replicate_commit`` (WAL append + deterministic apply), so
    the follower's durability story is the same snapshot + WAL replay as
    a single node's. The shipper is the *only* writer on a replica; the
    service refuses external ingest in the replica role.
    """

    def __init__(
        self,
        service,
        primary_url: str,
        poll_interval: float = 0.25,
        follower_id: Optional[str] = None,
        fetch_chunk_bytes: int = FETCH_CHUNK_BYTES,
        retry: Optional[RetryPolicy] = None,
        timeout: float = 10.0,
        metrics=None,
        transport=None,
    ) -> None:
        self.service = service
        self.primary_url = primary_url.rstrip("/")
        self.poll_interval = poll_interval
        self.follower_id = follower_id or Path(service.data_dir).name
        self.fetch_chunk_bytes = fetch_chunk_bytes
        self.timeout = timeout
        self.transport = (
            transport if transport is not None else HttpTransport()
        )
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=1_000_000,
            backoff_base=max(0.05, poll_interval / 2),
            backoff_max=5.0,
            jitter=True,
            jitter_seed=hash(self.follower_id) & 0xFFFF,
        )
        self.committed_seq = 0
        self.known_epoch = 0
        self.bootstraps = 0
        self.last_primary_seq = 0
        self.state = STATE_INIT
        self.polls = 0
        self.errors = 0
        #: Consecutive failed polls (drives the backoff schedule).
        self._error_streak = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        # Fetch-side state. Byte order equals seq order, so pending
        # lines are always in ascending sequence.
        self._buffers: Dict[int, bytes] = {}
        self._fetched: Dict[int, int] = {}
        self._stable_offsets: Dict[int, int] = {}
        self._pending: List[_ParsedLine] = []
        self._line_ends: List[Tuple[int, int, int]] = []  # (seq, seg, end)
        self._shed: set = set()
        self._max_parsed_seq = 0
        self._cursor_dirty = False
        #: Sticky divergence latch: once the primary is seen *behind* our
        #: committed sequence the stream is poisoned (see poll_once) and
        #: every subsequent poll refuses, even after the primary's
        #: sequence grows past us again with different bytes.
        self._diverged: Optional[str] = None
        registry = metrics if metrics is not None else get_registry()
        self._m_state = registry.gauge(
            "serve_replication_state",
            "follower replication state "
            "(0 init, 1 streaming, 2 bootstrapping, 3 error)",
        )
        self._m_lag = registry.gauge(
            "serve_replication_lag_records",
            "records the follower's committed cursor trails the primary by",
        )
        self._m_committed = registry.gauge(
            "serve_replication_committed_seq",
            "highest sequence number committed locally from the primary",
        )
        self._m_polls = registry.counter(
            "serve_replication_polls_total", "replication poll cycles"
        )
        self._m_errors = registry.counter(
            "serve_replication_errors_total",
            "replication polls that failed (transport or protocol)",
        )
        self._m_bytes = registry.counter(
            "serve_replication_fetch_bytes_total",
            "WAL bytes fetched from the primary",
        )
        self._m_commits = registry.counter(
            "serve_replication_commits_total",
            "records committed from the replication stream", ("kind",),
        )
        self._m_bootstraps = registry.counter(
            "serve_replication_bootstraps_total",
            "snapshot bootstraps (follower fell behind the pruned WAL)",
        )
        self._m_lag_bytes = registry.gauge(
            "serve_replication_lag_bytes",
            "WAL bytes the primary reports that this follower "
            "has not fetched yet",
        )
        self._m_commit_age = registry.gauge(
            "serve_replication_last_commit_age_seconds",
            "seconds since this follower last committed replicated records",
        )
        self._last_commit_at = self.service._clock()
        self._reported_bytes = 0
        self._fetched_bytes = 0
        #: Current poll cycle's trace ID (None between polls). Minted per
        #: cycle, attached to every fetch the cycle performs, so one
        #: replication round is one trace on both sides of the wire.
        self._poll_trace: Optional[str] = None

    # -- lifecycle -------------------------------------------------------------

    def resume_from(self, cursor: Optional[ShipperCursor], recovered_seq: int
                    ) -> None:
        """Seat the cursor after the service recovered its local state.

        The local WAL is the source of truth for what was committed
        (``recovered_seq``); the cursor file contributes resume offsets
        and the epoch. A missing or stale cursor only costs re-fetching —
        duplicate sequences are dropped at commit.
        """
        self.committed_seq = recovered_seq
        if cursor is not None:
            self.known_epoch = cursor.epoch
            self.bootstraps = cursor.bootstraps
            if cursor.committed_seq <= recovered_seq:
                self._stable_offsets = dict(cursor.offsets)
            else:
                # Cursor claims more than the recovered WAL holds (crash
                # between cursor write and WAL flush cannot produce this,
                # but a copied-around data dir can): distrust offsets.
                log.warning(
                    "replication cursor ahead of recovered WAL; refetching",
                    cursor_seq=cursor.committed_seq,
                    recovered_seq=recovered_seq,
                )
        self._fetched = dict(self._stable_offsets)

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-shipper", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def lag(self) -> int:
        return max(0, self.last_primary_seq - self.committed_seq)

    def status(self) -> dict:
        return {
            "primary_url": self.primary_url,
            "follower_id": self.follower_id,
            "state": REPLICATION_STATE_NAMES.get(self.state, "?"),
            "committed_seq": self.committed_seq,
            "last_primary_seq": self.last_primary_seq,
            "lag_records": self.lag(),
            "lag_bytes": self.lag_bytes(),
            "last_commit_age_s": round(
                max(0.0, self.service._clock() - self._last_commit_at), 3
            ),
            "epoch": self.known_epoch,
            "bootstraps": self.bootstraps,
            "polls": self.polls,
            "errors": self.errors,
            "pending_lines": len(self._pending),
        }

    def lag_bytes(self) -> int:
        """Reported-but-unfetched WAL bytes (0 before the first poll)."""
        return max(0, self._reported_bytes - self._fetched_bytes)

    # -- transport -------------------------------------------------------------

    def _get(self, path: str) -> bytes:
        url = f"{self.primary_url}{path}"
        headers = (
            {"X-Repro-Trace-Id": self._poll_trace}
            if self._poll_trace is not None
            else None
        )
        try:
            response = self.transport.exchange(
                "GET", url, headers=headers, timeout=self.timeout
            )
        except TransportError as error:
            raise ReplicationError(f"GET {path}: {error}") from error
        if not 200 <= response.status < 300:
            raise ReplicationError(
                f"GET {path} -> {response.status}: {response.data[:200]!r}"
            )
        return response.data

    def _get_json(self, path: str) -> dict:
        raw = self._get(path)
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ReplicationError(f"GET {path}: bad JSON") from error
        if not isinstance(data, dict):
            raise ReplicationError(f"GET {path}: expected an object")
        return data

    def _fetch_status(self) -> dict:
        query = urllib.parse.urlencode(
            {
                "follower": self.follower_id,
                "committed": self.committed_seq,
                "epoch": self.known_epoch,
            }
        )
        return self._get_json(f"/replication/status?{query}")

    # -- poll loop -------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.poll_once()
            except (ReplicationError, OSError) as exc:
                # OSError covers *local* trouble — a follower whose own
                # disk refuses the replicated append (ENOSPC) must keep
                # the poll loop alive to resume once space returns.
                self.errors += 1
                self._error_streak += 1
                self._m_errors.inc()
                self._set_state(STATE_ERROR)
                delay = self.retry.delay(min(self._error_streak, 64))
                log.warning(
                    "replication poll failed",
                    error=str(exc),
                    retry_in_s=round(delay, 3),
                )
                self._stop.wait(delay)
                continue
            self._error_streak = 0
            self._stop.wait(self.poll_interval)

    def poll_once(self) -> dict:
        """One full replication cycle; returns the primary status seen.

        A stopped shipper refuses: its node may since have been promoted,
        and committing from the old primary would collide with the
        sequence numbers it now hands out itself.
        """
        if self._stop.is_set():
            raise ReplicationError("shipper stopped; refusing to poll")
        self.polls += 1
        self._m_polls.inc()
        # One trace per cycle: every fetch this poll performs carries it,
        # so the primary's request log names the cycle and the follower's
        # span below bounds it.
        self._poll_trace = f"{self.follower_id}-poll-{self.polls:06d}"
        try:
            with self.service.tracer.span(
                "replication.poll",
                trace_id=self._poll_trace,
                node=self.follower_id,
                primary=self.primary_url,
            ) as span:
                status = self._fetch_status()
                self._check_epoch(status)
                # Rewind must be checked *before* the bootstrap branch: a
                # rewound primary that also pruned could otherwise talk
                # this follower into bootstrapping away its own (now
                # unique) copy of acked records.
                self._check_rewind(status)
                if self._needs_bootstrap(status):
                    self._bootstrap()
                    status = self._fetch_status()
                    self._check_epoch(status)
                self._set_state(STATE_STREAMING)
                self.last_primary_seq = int(status.get("seq") or 0)
                self._fetch_new_bytes(status)
                stable = int(status.get("stable_seq") or 0)
                committed_before = self.committed_seq
                self._commit_upto(min(stable, self._max_parsed_seq))
                if self.committed_seq > committed_before:
                    self._last_commit_at = self.service._clock()
                span.set_attr(
                    committed_seq=self.committed_seq,
                    lag_records=self.lag(),
                )
        finally:
            self._poll_trace = None
        self._m_lag.set(self.lag())
        self._m_lag_bytes.set(self.lag_bytes())
        self._m_commit_age.set(
            max(0.0, self.service._clock() - self._last_commit_at)
        )
        self._m_committed.set(self.committed_seq)
        if self._cursor_dirty:
            self._persist_cursor()
        return status

    def _set_state(self, state: int) -> None:
        self.state = state
        self._m_state.set(state)

    def _check_epoch(self, status: dict) -> None:
        epoch = status.get("epoch")
        if not isinstance(epoch, int) or isinstance(epoch, bool):
            raise ReplicationError("primary status carries no epoch")
        if epoch < self.known_epoch:
            # A primary serving an older epoch than we have seen is a
            # fenced predecessor (or a rolled-back disk). Streaming from
            # it would fork history.
            raise ReplicationError(
                f"primary epoch {epoch} is stale (seen {self.known_epoch})"
            )
        if epoch > self.known_epoch:
            self.known_epoch = epoch
            self._cursor_dirty = True
        role = status.get("role")
        if role != ROLE_PRIMARY:
            log.warning(
                "replication source is not primary", role=role,
                primary=self.primary_url,
            )

    def _check_rewind(self, status: dict) -> None:
        """Fail-stop when the primary's WAL rewound below our commit.

        A primary whose WAL lost records this follower already committed
        comes back reporting a highest sequence *below* that commit. The
        simulation harness found this when the primary acked before
        fsyncing (corpus trace ``primary-rewind``); now it takes a disk
        that drops fsynced bytes or a data dir restored from an older
        copy. Continuing to stream would misalign byte offsets and
        silently fork history once the primary reassigns those sequences
        to different records. The only safe move is to refuse,
        permanently: an operator (or the failover drill) must re-seed
        this follower or promote it.
        """
        if self._diverged is not None:
            raise ReplicationError(self._diverged)
        seq = int(status.get("seq") or 0)
        if seq < self.committed_seq:
            self._diverged = (
                f"primary rewound to seq {seq} below committed "
                f"{self.committed_seq}; refusing to stream a forked history"
            )
            raise ReplicationError(self._diverged)

    # -- bootstrap -------------------------------------------------------------

    def _needs_bootstrap(self, status: dict) -> bool:
        oldest = status.get("oldest_seq")
        if oldest is None:
            return False
        return self.committed_seq + 1 < int(oldest)

    def _bootstrap(self) -> None:
        """Reset from the primary's newest snapshot (WAL was pruned past us)."""
        self._set_state(STATE_BOOTSTRAPPING)
        with self.service.tracer.span(
            "replication.bootstrap",
            trace_id=self._poll_trace,
            node=self.follower_id,
            primary=self.primary_url,
        ):
            payload = self._get_json("/replication/snapshot")
            seq = payload.get("seq")
            state = payload.get("state")
            if not isinstance(seq, int) or not isinstance(state, dict):
                raise ReplicationError("bootstrap snapshot payload malformed")
            self.service.bootstrap_from_snapshot(seq, state)
        self._buffers.clear()
        self._fetched.clear()
        self._stable_offsets.clear()
        self._pending.clear()
        self._line_ends.clear()
        self._shed.clear()
        self._max_parsed_seq = seq
        self.bootstraps += 1
        self._m_bootstraps.inc()
        # The cursor moves last: a reader on another thread that sees
        # committed_seq at seq also sees the bootstrap counted (the
        # service published its applied_seq inside the call above).
        self.committed_seq = seq
        self._cursor_dirty = True
        log.info(
            "bootstrapped from primary snapshot",
            seq=seq,
            primary=self.primary_url,
        )

    # -- fetch + parse ---------------------------------------------------------

    def _fetch_new_bytes(self, status: dict) -> None:
        sizes = [
            (int(first), int(size))
            for first, size in (status.get("segments") or [])
        ]
        sizes.sort()
        self._reported_bytes = sum(size for _first, size in sizes)
        for index, (first, size) in enumerate(sizes):
            next_first = (
                sizes[index + 1][0] if index + 1 < len(sizes) else None
            )
            if (
                next_first is not None
                and next_first <= self.committed_seq + 1
                and first not in self._buffers
            ):
                # Every sequence this segment can contain is already
                # committed: skip it wholesale (cursor-loss resume).
                self._fetched[first] = size
                self._stable_offsets[first] = size
                continue
            offset = self._fetched.get(first, 0)
            while offset < size and not self._stop.is_set():
                # Cap at the status-reported size: the primary samples
                # it between batch commits, so bytes below it are
                # fsynced — but the segment may have grown since with a
                # batch not yet committed, which a failed commit cuts
                # away again.
                limit = min(self.fetch_chunk_bytes, size - offset)
                chunk = self._get(
                    f"/replication/segment?first={first}"
                    f"&offset={offset}&limit={limit}"
                )
                if not chunk:
                    break
                self._m_bytes.inc(len(chunk))
                offset += len(chunk)
                self._fetched[first] = offset
                self._parse(first, chunk, offset)
        self._fetched_bytes = sum(
            min(self._fetched.get(first, 0), size) for first, size in sizes
        )

    def _parse(self, segment_first: int, chunk: bytes, end_offset: int
               ) -> None:
        """Split fetched bytes into complete lines; keep the torn tail."""
        buffer = self._buffers.get(segment_first, b"") + chunk
        # end_offset is where the buffer *ends* in the segment file; the
        # offset of each parsed line's end is recovered from it.
        consumed_upto = end_offset - len(buffer)
        while True:
            newline = buffer.find(b"\n")
            if newline == -1:
                break
            line = buffer[:newline]
            buffer = buffer[newline + 1:]
            consumed_upto += newline + 1
            text = line.strip()
            if not text:
                continue
            try:
                data = json.loads(text.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                # Mid-segment garbage cannot be a read race (we only
                # parse newline-terminated lines): the primary's log is
                # damaged. Refuse to guess.
                raise ReplicationError(
                    f"unparseable WAL line in segment {segment_first} "
                    f"at ~{consumed_upto} bytes"
                )
            seq = data.get("seq")
            kind = data.get("kind")
            record = data.get("record")
            if (
                not isinstance(seq, int)
                or kind not in WAL_KINDS
                or not isinstance(record, dict)
            ):
                raise ReplicationError(
                    f"malformed WAL record in segment {segment_first}"
                )
            self._max_parsed_seq = max(self._max_parsed_seq, seq)
            self._line_ends.append((seq, segment_first, consumed_upto))
            if kind == KIND_SHED:
                # Effective immediately — the whole point of computing
                # the shed set from *all* fetched bytes is that a
                # tombstone beyond the stable frontier still protects
                # records below it.
                self._shed.update(
                    s for s in record.get("seqs", ()) if isinstance(s, int)
                )
            elif seq > self.committed_seq:
                trace = data.get("trace")
                self._pending.append(
                    _ParsedLine(seq, kind, record, segment_first,
                                consumed_upto,
                                trace if isinstance(trace, str) else None)
                )
        self._buffers[segment_first] = buffer

    # -- commit ----------------------------------------------------------------

    def _commit_upto(self, frontier: int) -> None:
        """Commit every pending record at or below the stable frontier."""
        if frontier <= self.committed_seq:
            return
        batch: List[WalRecord] = []
        keep: List[_ParsedLine] = []
        for line in self._pending:
            if line.seq > frontier:
                keep.append(line)
            elif line.seq in self._shed or line.seq <= self.committed_seq:
                continue
            else:
                batch.append(
                    WalRecord(line.seq, line.kind, line.record, line.trace)
                )
        if batch:
            # Commit BEFORE mutating any shipper state: if the local WAL
            # append fails (disk full), the pending lines must survive
            # for the retry, or the shipper would advance committed_seq
            # over a gap once the disk frees up and never re-fetch the
            # lost records (found by the simulation harness: corpus
            # trace ``follower-enospc-gap``).
            self.service.replicate_commit(batch)
            for record in batch:
                self._m_commits.inc(kind=record.kind)
        self._pending = keep
        # Advance the resolved byte offsets: lines at or under the
        # frontier form a contiguous byte prefix (byte order == seq
        # order), so the last such line per segment is the resume point.
        ends = self._line_ends
        keep_ends: List[Tuple[int, int, int]] = []
        for seq, segment_first, end in ends:
            if seq <= frontier:
                current = self._stable_offsets.get(segment_first, 0)
                if end > current:
                    self._stable_offsets[segment_first] = end
            else:
                keep_ends.append((seq, segment_first, end))
        self._line_ends = keep_ends
        self.committed_seq = frontier
        self._shed = {s for s in self._shed if s > frontier}
        self._cursor_dirty = True

    def _persist_cursor(self) -> None:
        cursor = ShipperCursor(
            epoch=self.known_epoch,
            committed_seq=self.committed_seq,
            offsets=dict(self._stable_offsets),
            primary_url=self.primary_url,
            bootstraps=self.bootstraps,
        )
        cursor.save(self.service.data_dir)
        self._cursor_dirty = False


__all__ = [
    "ALL_ROLES",
    "CLUSTER_FILE",
    "CURSOR_FILE",
    "ClusterState",
    "FETCH_CHUNK_BYTES",
    "REPLICATION_STATE_NAMES",
    "ReplicationError",
    "ROLE_FENCED",
    "ROLE_PRIMARY",
    "ROLE_REPLICA",
    "ShipperCursor",
    "STATE_BOOTSTRAPPING",
    "STATE_ERROR",
    "STATE_INIT",
    "STATE_STREAMING",
    "WalShipper",
    "write_json_atomic",
]
