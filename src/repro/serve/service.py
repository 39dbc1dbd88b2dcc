"""The live ingestion service: intake, apply, snapshot, recover, drain.

Data path (one-way, deterministic)::

    HTTP handler threads                    applier thread
    --------------------                    --------------
    validate records
    breaker / watermark check
    [intake lock]
      assign sequence numbers
      append to WAL
      fsync the batch  (ack point) ------>  take batch from queue
      push to admission queue               apply to LiveFusedStore
      tombstone any drop-oldest             rolling snapshot when due
    ack 202 / 503+Retry-After

The *ack point* is the WAL commit: a batch answered 202 is fsynced
before the client hears back, so neither ``kill -9`` nor a power cut
anywhere in this diagram loses anything acknowledged. Recovery is
therefore snapshot-load + WAL replay, and because every apply is a deterministic function of (state,
record) — including the rejections — the recovered store is
value-identical to one that never crashed.

Supervision: the applier carries a heartbeat the watchdog thread checks
(the same contract the batch executor's
:class:`~repro.exec.pool.SupervisedPool` watchdog enforces on workers —
here a stall is reported and counted rather than killed, since the
applier owns unreplayed in-memory ordering); each feed has a
:class:`~repro.exec.breaker.CircuitBreaker` so a feed whose records keep
failing at apply is refused at the door until its cooldown.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.core.events import validate_event_dict
from repro.exec.breaker import CircuitBreaker
from repro.log import get_logger
from repro.obs.metrics import MetricsRegistry, NullRegistry, get_registry
from repro.obs.timeseries import MetricsHistory, RequestLog
from repro.obs.trace import NULL_TRACER
from repro.serve.admission import AdmissionQueue, QueueEntry, SubmitResult
from repro.serve.replication import (
    ClusterState,
    ROLE_FENCED,
    ROLE_PRIMARY,
    ROLE_REPLICA,
    ShipperCursor,
    WalShipper,
)
from repro.serve.snapshot import SnapshotManager, snapshot_stage_name
from repro.serve.state import (
    LiveFusedStore,
    validate_dps_record,
)
from repro.serve.wal import (
    KIND_ATTACK,
    KIND_DPS,
    KIND_SHED,
    WalRecord,
    WriteAheadLog,
)
from repro.store.checkpoint import CheckpointStore

log = get_logger("serve")

#: Feeds the service accepts attack events from (label space for
#: breakers and shed counters; "dps" is the domain-status feed).
ATTACK_FEEDS = ("telescope", "honeypot")
FEED_DPS = "dps"
ALL_SERVE_FEEDS = ATTACK_FEEDS + (FEED_DPS,)

#: Subdirectory of the data dir holding WAL segments.
WAL_DIR = "wal"

#: Role as the ``serve_role`` gauge value.
ROLE_CODES = {ROLE_PRIMARY: 0, ROLE_REPLICA: 1, ROLE_FENCED: 2}

#: Seconds :meth:`LiveIngestService.drain` waits for the backlog.
DRAIN_TIMEOUT_S = 30.0

#: ``serve_snapshot_seconds`` buckets: a few ms for a fresh store, tens
#: of ms at ten thousand applied records, seconds for a large one.
SNAPSHOT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
)


@dataclass(frozen=True)
class ServeConfig:
    """Every knob of the service's robustness envelope."""

    data_dir: Union[str, Path]
    queue_size: int = 4096
    high_watermark: Optional[int] = None
    low_watermark: Optional[int] = None
    retry_after: float = 1.0
    snapshot_every_events: int = 2000
    snapshot_interval_s: float = 30.0
    snapshot_keep: int = 2
    max_events_per_victim: int = 256
    baseline_days: int = 7
    alert_factor: float = 3.0
    apply_batch: int = 256
    heartbeat_timeout: float = 10.0
    breaker_threshold: int = 8
    breaker_cooldown: float = 5.0
    #: Chaos/test hook: seconds the applier sleeps per record (a slow
    #: consumer without monkeypatching).
    apply_delay: float = 0.0
    #: Replication. ``replica_of`` makes this node a read-only follower
    #: of the primary at that base URL; ``sync_replicas`` (primary side)
    #: makes each accepted batch wait for that many followers to commit
    #: its highest sequence before acknowledging.
    replica_of: Optional[str] = None
    follower_id: Optional[str] = None
    poll_interval_s: float = 0.25
    sync_replicas: int = 0
    sync_timeout_s: float = 5.0
    #: Manual drive: no applier/watchdog/shipper threads are started —
    #: the caller owns all interleaving by calling :meth:`tick_apply`
    #: and ``shipper.poll_once()`` itself. The deterministic simulation
    #: harness is the intended driver.
    manual_drive: bool = False
    #: Never prune WAL segments. Keeps the full log from sequence 1
    #: available for the offline replay oracle (digest checking) at the
    #: cost of unbounded disk — simulation and deep-recovery tests only.
    wal_keep_all: bool = False


@dataclass
class RecoveryInfo:
    """What recovery did at the last start."""

    snapshot_seq: int = 0
    replayed: int = 0
    torn_lines: int = 0
    tail_trimmed_bytes: int = 0
    discarded_snapshots: int = 0
    replay_rejected: int = 0
    #: WAL lines whose sequence number appeared more than once (replay
    #: keeps the first copy; see ReplayReport.duplicate_seqs).
    replay_duplicates: int = 0
    duration_s: float = 0.0
    fresh_start: bool = True

    def to_dict(self) -> dict:
        return {
            "snapshot_seq": self.snapshot_seq,
            "replayed": self.replayed,
            "torn_lines": self.torn_lines,
            "tail_trimmed_bytes": self.tail_trimmed_bytes,
            "discarded_snapshots": self.discarded_snapshots,
            "replay_rejected": self.replay_rejected,
            "replay_duplicates": self.replay_duplicates,
            "duration_s": self.duration_s,
            "fresh_start": self.fresh_start,
        }


class LiveIngestService:
    """Long-running, crash-recoverable ingestion into a fused store."""

    def __init__(
        self,
        config: ServeConfig,
        metrics=None,
        clock: Callable[[], float] = time.monotonic,
        disk=None,
        snapshot_store=None,
        transport=None,
        sleep: Callable[[float], None] = time.sleep,
        tracer=None,
    ) -> None:
        self.config = config
        self.data_dir = Path(config.data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._sleep = sleep
        self._transport = transport
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Node identity in trace IDs and the /status document.
        self.node_name = config.follower_id or "node"
        #: Injectable hook the sync-replication wait calls instead of
        #: blocking on the condition variable: under manual drive there
        #: is no shipper thread to confirm commits, so the driver pumps
        #: follower polls (and the simulated clock) here.
        self.sync_pump: Optional[Callable[[], None]] = None
        # A server's /metrics endpoint is part of its API: when neither
        # the caller nor process telemetry provides a live registry,
        # make one rather than silently serving an empty exposition.
        registry = metrics if metrics is not None else get_registry()
        if isinstance(registry, NullRegistry):
            registry = MetricsRegistry()
        self.metrics = registry
        self.queue = AdmissionQueue(
            maxsize=config.queue_size,
            high_watermark=config.high_watermark,
            low_watermark=config.low_watermark,
            retry_after=config.retry_after,
            metrics=registry,
        )
        self.wal = WriteAheadLog(
            self.data_dir / WAL_DIR, metrics=registry, disk=disk
        )
        self.snapshots = SnapshotManager(
            snapshot_store
            if snapshot_store is not None
            else CheckpointStore(self.data_dir, metrics=registry),
            keep=config.snapshot_keep,
            metrics=registry,
        )
        self.store = LiveFusedStore(
            baseline_days=config.baseline_days,
            alert_factor=config.alert_factor,
            max_events_per_victim=config.max_events_per_victim,
            metrics=registry,
        )
        self.breakers: Dict[str, CircuitBreaker] = {
            feed: CircuitBreaker(
                f"serve-{feed}",
                failure_threshold=config.breaker_threshold,
                cooldown=config.breaker_cooldown,
                clock=clock,
                metrics=registry,
            )
            for feed in ALL_SERVE_FEEDS
        }
        self.recovery = RecoveryInfo()
        # Cluster identity: the durable file wins over a fresh default,
        # but an explicit --replica-of always demotes this node — except
        # a fenced node, which stays fenced until a newer epoch says
        # otherwise.
        loaded_cluster = ClusterState.load(self.data_dir)
        if config.replica_of and (
            loaded_cluster is None or loaded_cluster.role != ROLE_FENCED
        ):
            self.cluster = ClusterState(
                role=ROLE_REPLICA,
                epoch=loaded_cluster.epoch if loaded_cluster else 1,
                primary_url=config.replica_of,
            )
        elif loaded_cluster is not None:
            self.cluster = loaded_cluster
        else:
            self.cluster = ClusterState(role=ROLE_PRIMARY, epoch=1)
        self.shipper: Optional[WalShipper] = None
        self.promotions = 0
        self.fences = 0
        self.sync_refused = 0
        # Follower bookkeeping (primary side): follower id -> committed
        # seq + when it last reported, fed by status-poll piggybacks.
        self._followers: Dict[str, Dict[str, float]] = {}
        self._sync_cond = threading.Condition()
        # Serializes role transitions (promote/fence) against each other;
        # readers see the cluster state by atomic reference swap.
        self._cluster_lock = threading.Lock()
        # Plain mirrors of the hot counters, so /stats and tests work
        # without a live metrics registry.
        self.accepted_by_feed: Dict[str, int] = {}
        self.rejected_by_feed: Dict[str, int] = {}
        self.refused_by_feed: Dict[str, int] = {}
        self.dropped_by_feed: Dict[str, int] = {}
        self.apply_rejected = 0
        self.watchdog_stalls = 0
        # Disk-full degradation: set when a WAL append or snapshot write
        # raises OSError; reads keep serving, ingest answers 503 until a
        # probe append succeeds (see submit / _enter_degraded).
        self.degraded = False
        self.degraded_reason = ""
        self.wal_errors = 0
        self._last_wal_error = 0.0
        self._m_rejected = registry.counter(
            "serve_rejected_total", "ingest records rejected by validation",
            ("feed", "reason"),
        )
        self._m_apply_rejected = registry.counter(
            "serve_apply_rejected_total",
            "records that failed deterministically at apply",
            ("feed",),
        )
        self._m_snapshot_age = registry.gauge(
            "serve_snapshot_age_seconds",
            "seconds since the last completed snapshot",
        )
        self._m_snapshot_seconds = registry.histogram(
            "serve_snapshot_seconds",
            "snapshot save wall time (state capture, write, fsyncs)",
            buckets=SNAPSHOT_BUCKETS,
        )
        self._m_recovery_s = registry.gauge(
            "serve_recovery_duration_seconds",
            "wall time the last crash recovery took",
        )
        self._m_recovery_replayed = registry.gauge(
            "serve_recovery_replayed", "WAL records replayed at last start"
        )
        self._m_heartbeat_age = registry.gauge(
            "serve_applier_heartbeat_age_seconds",
            "seconds since the applier last made progress",
        )
        self._m_stalls = registry.counter(
            "serve_watchdog_stalls_total",
            "heartbeat timeouts the watchdog observed",
        )
        self._m_role = registry.gauge(
            "serve_role", "cluster role (0 primary, 1 replica, 2 fenced)"
        )
        self._m_epoch = registry.gauge(
            "serve_epoch", "cluster epoch this node believes in"
        )
        self._m_promotions = registry.counter(
            "serve_promotions_total", "times this node took over as primary"
        )
        self._m_fences = registry.counter(
            "serve_fences_total",
            "times this node was fenced by a newer epoch",
        )
        self._m_sync_refused = registry.counter(
            "serve_sync_refused_total",
            "batches refused because followers did not confirm in time",
        )
        self._m_degraded = registry.gauge(
            "serve_degraded",
            "1 while ingest is refused because durable writes fail",
        )
        self._m_wal_errors = registry.counter(
            "serve_wal_errors_total",
            "durable-write failures (WAL append / snapshot save)", ("op",),
        )
        self._m_follower_lag = registry.gauge(
            "serve_replication_follower_lag",
            "records each follower trails this primary by", ("follower",),
        )
        self._m_followers = registry.gauge(
            "serve_replication_followers", "followers reporting to this node"
        )
        self._m_follower_age = registry.gauge(
            "serve_replication_follower_age_seconds",
            "seconds since each follower last reported", ("follower",),
        )
        self._m_wal_segments = registry.gauge(
            "serve_wal_segments", "WAL segment files on disk"
        )
        self._m_wal_disk_bytes = registry.gauge(
            "serve_wal_disk_bytes", "WAL bytes currently on disk"
        )
        # Flight recorder: rolling metrics windows + recent-request ring,
        # both on the injected clock so tests replay byte-identically.
        self.history = MetricsHistory(registry, clock)
        self.requests = RequestLog(clock)
        self._trace_lock = threading.Lock()
        self._trace_counter = 0
        self._publish_cluster_gauges()
        # Intake lock serializes seq assignment + WAL append + enqueue,
        # making WAL order identical to apply order. It also guards the
        # accepted/dropped mirrors, so quiesce() never sees an enqueued
        # entry before its accounting.
        self._intake_lock = threading.Lock()
        # Stats lock guards the pre-admission mirrors (rejected/refused)
        # that concurrent handler threads update outside the intake lock.
        self._stats_lock = threading.Lock()
        # Snapshot lock serializes snapshot + WAL rotation between the
        # applier and the drain path (a timed-out drain can leave both
        # threads wanting to snapshot).
        self._snapshot_lock = threading.Lock()
        # applied_events + applied_dps at the moment recovery finished:
        # quiesce() measures applier progress relative to this, since
        # snapshot-loaded and replayed records were never "accepted" in
        # this process's lifetime.
        self._recovery_base = 0
        self._seq = 0
        self._applied_seq = 0
        self._applied_since_snapshot = 0
        self._last_snapshot_at = clock()
        self._last_beat = clock()
        self._started_at = clock()
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._applier: Optional[threading.Thread] = None
        self._watchdog: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> RecoveryInfo:
        """Recover durable state, then start the applier and watchdog."""
        info = self._recover()
        self.cluster.save(self.data_dir)
        if not self.config.manual_drive:
            self._applier = threading.Thread(
                target=self._apply_loop, name="repro-serve-applier",
                daemon=True,
            )
            self._applier.start()
            self._watchdog = threading.Thread(
                target=self._watch_loop, name="repro-serve-watchdog",
                daemon=True,
            )
            self._watchdog.start()
        if self.cluster.role == ROLE_REPLICA and self.cluster.primary_url:
            self.shipper = WalShipper(
                self,
                self.cluster.primary_url,
                poll_interval=self.config.poll_interval_s,
                follower_id=self.config.follower_id,
                metrics=self.metrics,
                transport=self._transport,
            )
            # The local WAL (just recovered) is the commit truth; the
            # cursor file contributes resume offsets and the epoch.
            self.shipper.resume_from(
                ShipperCursor.load(self.data_dir), self._seq
            )
            if not self.config.manual_drive:
                self.shipper.start()
        self._publish_cluster_gauges()
        log.info(
            "service started",
            data_dir=str(self.data_dir),
            role=self.cluster.role,
            epoch=self.cluster.epoch,
            snapshot_seq=info.snapshot_seq,
            replayed=info.replayed,
        )
        return info

    def _recover(self) -> RecoveryInfo:
        started = self._clock()
        info = RecoveryInfo()
        # Cut any crash-torn bytes off the tail segment *first*: replay
        # merely skips a torn final line, but this process is about to
        # append to that segment, and appending onto a partial line
        # would merge an acknowledged record into it — unrecoverable on
        # the next crash. Truncating keeps the segment append-safe and
        # keeps max_seq() from undercounting past the tear (so the torn
        # record's sequence number can be reused without a stale
        # duplicate surviving on disk).
        tail_segments = self.wal.segments()
        if tail_segments:
            info.tail_trimmed_bytes = self.wal.repair_tail(tail_segments[-1])
        # Newest snapshot that both verifies (checksums, at the store
        # layer) and decodes (state version, here). Either failure mode
        # discards the snapshot and falls back one generation — the WAL
        # still covers the widened gap.
        while True:
            loaded = self.snapshots.load_newest_valid()
            info.discarded_snapshots += len(loaded.discarded)
            if not loaded.found:
                break
            try:
                payload = loaded.payload
                self.store = LiveFusedStore.from_state_dict(
                    payload["state"], metrics=self.metrics
                )
                info.snapshot_seq = int(payload["seq"])
                info.fresh_start = False
                break
            except (ValueError, KeyError, TypeError) as exc:
                log.warning(
                    "snapshot payload unusable; falling back",
                    seq=loaded.seq,
                    error=str(exc),
                )
                self.snapshots.store.discard(snapshot_stage_name(loaded.seq))
                info.discarded_snapshots += 1
        records, report = self.wal.replay(after_seq=info.snapshot_seq)
        info.torn_lines = report.torn_lines
        info.replay_duplicates = report.duplicate_seqs
        for record in records:
            try:
                self._apply_record(record.kind, record.record, feed="replay")
            except ValueError:
                # Deterministic apply rejection: the live process skipped
                # this record too, so skipping it again is equivalence,
                # not loss.
                info.replay_rejected += 1
            info.replayed += 1
        highest = max(info.snapshot_seq, self.wal.max_seq())
        self._seq = highest
        self._applied_seq = highest
        # Continue the tail segment if one exists; else start fresh.
        segments = self.wal.segments()
        if segments:
            from repro.serve.wal import segment_first_seq

            self.wal.open_segment(segment_first_seq(segments[-1].name))
        else:
            self.wal.open_segment(self._seq + 1)
        self._recovery_base = (
            self.store.applied_events + self.store.applied_dps
        )
        info.duration_s = self._clock() - started
        self.recovery = info
        self._m_recovery_s.set(info.duration_s)
        self._m_recovery_replayed.set(info.replayed)
        self._last_snapshot_at = self._clock()
        if info.replayed or not info.fresh_start:
            log.info(
                "state recovered",
                snapshot_seq=info.snapshot_seq,
                replayed=info.replayed,
                torn=info.torn_lines,
                discarded_snapshots=info.discarded_snapshots,
                duration_s=round(info.duration_s, 3),
            )
        return info

    def drain(self, timeout: float = DRAIN_TIMEOUT_S) -> bool:
        """Graceful shutdown: refuse intake, apply the backlog, snapshot.

        Returns True when the queue fully drained inside *timeout* —
        either way the WAL is flushed and the state snapshotted, so
        nothing acknowledged is lost even on a timed-out drain.
        """
        self._draining.set()
        if self.shipper is not None:
            self.shipper.stop()
        deadline = self._clock() + timeout
        drained = True
        while self.queue.depth > 0:
            if self._clock() >= deadline:
                drained = False
                log.warning(
                    "drain timed out with entries queued",
                    depth=self.queue.depth,
                )
                break
            if self.config.manual_drive:
                # No applier thread: apply the backlog inline.
                self.tick_apply()
            else:
                self._sleep(0.02)
        self._stop.set()
        self.queue.wake()
        if self._applier is not None:
            self._applier.join(timeout=max(timeout, 1.0))
        if self._watchdog is not None:
            self._watchdog.join(timeout=1.0)
        if self._applier is not None and self._applier.is_alive():
            # The applier outlived its join (huge backlog, injected
            # apply delay): it may be mid-snapshot itself, so skip the
            # final snapshot rather than race it — the flushed WAL alone
            # already preserves everything acknowledged.
            log.warning(
                "applier still running after drain; skipping final snapshot"
            )
        else:
            self._snapshot_now()
        with self._snapshot_lock:
            self.wal.close()
        log.info("service drained", drained=drained, seq=self._applied_seq)
        return drained

    def quiesce(self, timeout: float = 30.0) -> bool:
        """Wait until every admitted record was applied or dropped.

        Queue depth alone is not enough: the applier takes entries in
        batches, so the queue can read empty while a batch is still
        being applied. This settles on the accounting identity instead —
        applied + apply-rejected + dropped catches up with accepted,
        where applied counts only records applied *in this process*
        (``_recovery_base`` subtracts what the snapshot and WAL replay
        contributed, which was never accepted in this lifetime). The
        mirrors are read under the intake lock, so an entry is never
        visible in the queue before its accounting. Drills and tests
        use it; the serving path never needs to.
        """
        deadline = self._clock() + timeout
        while True:
            with self._intake_lock:
                admitted = sum(self.accepted_by_feed.values())
                dropped = sum(self.dropped_by_feed.values())
            settled = (
                self.store.applied_events
                + self.store.applied_dps
                - self._recovery_base
                + self.apply_rejected
                + dropped
            )
            if self.queue.depth == 0 and settled >= admitted:
                return True
            if self._clock() >= deadline:
                return False
            if self.config.manual_drive:
                self.tick_apply()
            else:
                self._sleep(0.01)

    def stop(self) -> None:
        """Hard stop (tests): no drain, no final snapshot."""
        self._draining.set()
        if self.shipper is not None:
            self.shipper.stop()
        self._stop.set()
        self.queue.wake()
        if self._applier is not None:
            self._applier.join(timeout=5.0)
        if self._watchdog is not None:
            self._watchdog.join(timeout=1.0)
        self.wal.close()

    # -- intake ---------------------------------------------------------------

    def mint_trace_id(self) -> str:
        """A fresh node-scoped trace ID (deterministic counter + name)."""
        with self._trace_lock:
            self._trace_counter += 1
            return f"{self.node_name}-{self._trace_counter:06d}"

    def submit(
        self, feed: str, kind: str, records: List[dict],
        trace: Optional[str] = None,
    ) -> SubmitResult:
        """Validate, admit, log and enqueue one ingest batch.

        *trace* tags each accepted record's WAL line with the request
        trace ID, which is how a client-visible request stays nameable
        on every follower the record ships to.
        """
        if feed not in ALL_SERVE_FEEDS:
            result = SubmitResult(rejected=len(records))
            result.reasons["unknown-feed"] = len(records)
            return result
        result = SubmitResult()
        if self.cluster.role != ROLE_PRIMARY:
            # Followers and fenced ex-primaries take no writes: accepting
            # one would fork the sequence space. 409 + where to go.
            result.read_only = True
            result.primary_url = self.cluster.primary_url
            result.reasons["read-only"] = len(records)
            return result
        if self._draining.is_set():
            result.retry_after = self.config.retry_after
            return result
        if self.degraded and not self._probe_due():
            # Durable writes are failing (disk full): refuse fast.
            # Reads stay up; one submit per retry_after window gets
            # through below as the recovery probe.
            with self._stats_lock:
                self.refused_by_feed[feed] = (
                    self.refused_by_feed.get(feed, 0) + len(records)
                )
            result.reasons["degraded"] = len(records)
            result.retry_after = self.config.retry_after
            return result
        breaker = self.breakers[feed]
        if not breaker.allow():
            with self._stats_lock:
                self.refused_by_feed[feed] = (
                    self.refused_by_feed.get(feed, 0) + len(records)
                )
            result.retry_after = self.config.breaker_cooldown
            return result
        valid: List[dict] = []
        validator = (
            validate_event_dict if kind == KIND_ATTACK else validate_dps_record
        )
        for record in records:
            reason = validator(record)
            if reason is None:
                valid.append(record)
            else:
                result.rejected += 1
                result.reasons[reason] = result.reasons.get(reason, 0) + 1
                self._m_rejected.inc(feed=feed, reason=reason)
        if result.rejected:
            with self._stats_lock:
                self.rejected_by_feed[feed] = (
                    self.rejected_by_feed.get(feed, 0) + result.rejected
                )
        if not valid:
            return result
        retry_after = self.queue.refuse(feed, len(valid))
        if retry_after is not None:
            with self._stats_lock:
                self.refused_by_feed[feed] = (
                    self.refused_by_feed.get(feed, 0) + len(valid)
                )
            result.shed = len(valid)
            result.retry_after = retry_after
            return result
        degraded_before = self.degraded
        with self._intake_lock:
            entries = []
            error: Optional[OSError] = None
            for record in valid:
                # Sequence numbers advance only on a successful append:
                # an ENOSPC'd record was never acked, so its candidate
                # sequence is safely reused (WAL.append cut any partial
                # bytes away).
                try:
                    self.wal.append(self._seq + 1, kind, record, trace=trace)
                except OSError as exc:
                    error = exc
                    break
                self._seq += 1
                entries.append(
                    QueueEntry(
                        seq=self._seq, kind=kind, feed=feed, record=record
                    )
                )
            # The ack point: one fsync commits the batch. A failed
            # commit cut every line of it away again, so nothing is
            # acked and the sequence numbers are reused.
            try:
                self.wal.flush()
            except OSError as exc:
                error = exc
                self._seq -= len(entries)
                entries = []
            if error is not None:
                self._enter_degraded("append", error)
            elif degraded_before:
                # The probe commit went through: disk is back.
                self._clear_degraded()
            dropped = self.queue.push(entries) if entries else []
            if dropped:
                # Make the drop decision durable *before* acknowledging,
                # so replay and the live process agree on what was shed.
                try:
                    self.wal.append(
                        self._seq + 1,
                        KIND_SHED,
                        {
                            "seqs": [entry.seq for entry in dropped],
                            "feed": feed,
                        },
                    )
                    self.wal.flush()
                    self._seq += 1
                except OSError as exc:
                    # Tombstone did not land: put the dropped entries
                    # back so live state matches a replay that never saw
                    # the tombstone. The queue grows past its bound for
                    # a moment; degraded mode throttles further intake.
                    self.queue.unshift(dropped)
                    dropped = []
                    self._enter_degraded("append", exc)
                for entry in dropped:
                    self.dropped_by_feed[entry.feed] = (
                        self.dropped_by_feed.get(entry.feed, 0) + 1
                    )
            if entries:
                self.accepted_by_feed[feed] = (
                    self.accepted_by_feed.get(feed, 0) + len(entries)
                )
        result.accepted = len(entries)
        not_logged = len(valid) - len(entries)
        if not_logged:
            with self._stats_lock:
                self.refused_by_feed[feed] = (
                    self.refused_by_feed.get(feed, 0) + not_logged
                )
            result.reasons["degraded"] = not_logged
            result.retry_after = self.config.retry_after
        if not entries:
            return result
        result.last_seq = entries[-1].seq
        if self.config.sync_replicas > 0:
            with self.tracer.span(
                "serve.sync.wait",
                trace_id=trace,
                node=self.node_name,
                seq=result.last_seq,
                sync_replicas=self.config.sync_replicas,
            ) as sync_span:
                confirmed = self._await_followers(
                    result.last_seq, self.config.sync_timeout_s
                )
                sync_span.set_attr(confirmed=confirmed)
            if not confirmed:
                # The batch *is* durable locally (WAL'd above) — what
                # failed is the replication guarantee. Answer 503 so the
                # client retries against a cluster that can honor it. A
                # retry may duplicate records in the stream; both copies
                # replicate and replay identically everywhere, so the
                # digest contract holds — at-least-once, not exactly-once,
                # is sync mode's documented trade.
                self.sync_refused += len(entries)
                self._m_sync_refused.inc(len(entries))
                result.reasons["sync-timeout"] = len(entries)
                result.retry_after = self.config.retry_after
        return result

    # -- replication ----------------------------------------------------------

    @property
    def applied_seq(self) -> int:
        """Highest sequence number applied to (or committed into) the store."""
        return self._applied_seq

    def _publish_cluster_gauges(self) -> None:
        self._m_role.set(ROLE_CODES.get(self.cluster.role, -1))
        self._m_epoch.set(self.cluster.epoch)

    def note_follower(self, follower_id: str, committed_seq: int) -> None:
        """Record a follower's committed cursor (status-poll piggyback)."""
        with self._sync_cond:
            self._followers[follower_id] = {
                "committed_seq": committed_seq,
                "at": self._clock(),
            }
            count = len(self._followers)
            self._sync_cond.notify_all()
        self._m_followers.set(count)
        self._m_follower_lag.set(
            max(0, self._seq - committed_seq), follower=follower_id
        )
        self._m_follower_age.set(0.0, follower=follower_id)

    def _await_followers(self, seq: int, timeout: float) -> bool:
        """Block until ``sync_replicas`` followers committed *seq*.

        With a ``sync_pump`` installed (manual drive) the wait never
        blocks on the condition variable — there is no other thread to
        signal it. Instead the pump is called between checks; it is
        expected to advance follower replication and the injected clock,
        so the deadline can expire deterministically.
        """
        deadline = self._clock() + timeout
        pump = self.sync_pump
        while True:
            with self._sync_cond:
                confirmed = sum(
                    1
                    for info in self._followers.values()
                    if info["committed_seq"] >= seq
                )
                if confirmed >= self.config.sync_replicas:
                    return True
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return False
                if pump is None:
                    self._sync_cond.wait(min(remaining, 0.25))
            if pump is not None:
                pump()

    def replication_status(
        self,
        follower_id: Optional[str] = None,
        committed: Optional[int] = None,
    ) -> dict:
        """Primary-side shipping state (``GET /replication/status``).

        The **stable frontier** is the load-bearing field: ``stable_seq``
        and the segment sizes are sampled under the intake lock, which no
        batch leaves uncommitted. So every byte a follower fetches from
        this reply is fsynced here (a power cut cannot take back what a
        follower committed), and the byte ranges provably contain every
        ``shed`` tombstone that can name a sequence at or under the
        frontier — a record below it is safe to apply the moment it is
        parsed.
        """
        if follower_id and committed is not None:
            self.note_follower(follower_id, committed)
        with self._intake_lock:
            seq = self._seq
            queued_min = self.queue.min_seq()
            stable = queued_min - 1 if queued_min is not None else seq
            segments = self.wal.segment_sizes()
        self._update_wal_gauges(segments)
        with self._sync_cond:
            followers = {
                fid: {
                    "committed_seq": int(info["committed_seq"]),
                    "seq_lag": max(0, seq - int(info["committed_seq"])),
                    "age_s": round(self._clock() - info["at"], 3),
                }
                for fid, info in sorted(self._followers.items())
            }
        for fid, info in followers.items():
            self._m_follower_lag.set(info["seq_lag"], follower=fid)
            self._m_follower_age.set(info["age_s"], follower=fid)
        status = {
            "role": self.cluster.role,
            "epoch": self.cluster.epoch,
            "primary_url": self.cluster.primary_url,
            "seq": seq,
            "applied_seq": self._applied_seq,
            "stable_seq": stable,
            "oldest_seq": self.wal.oldest_seq(),
            "segments": segments,
            "snapshot_seqs": self.snapshots.seqs(),
            "followers": followers,
            "sync_replicas": self.config.sync_replicas,
        }
        if self.shipper is not None:
            status["replication"] = self.shipper.status()
        return status

    def replicate_commit(self, batch: List[WalRecord]) -> int:
        """Commit replicated records: local WAL commit, then apply.

        The follower-side write path — the shipper is its only caller
        and the only writer on a replica (external ingest is refused by
        role), so the records carry the primary's sequence numbers
        untouched and the local WAL stays byte-order == seq-order. Apply
        rejections are deterministic and counted exactly like the
        primary's, keeping the state digest contract intact.
        """
        if not batch:
            return 0
        with self._intake_lock:
            try:
                for record in batch:
                    self.wal.append(
                        record.seq, record.kind, record.record,
                        trace=record.trace,
                    )
                # A batch is fsynced before the committed cursor moves.
                self.wal.flush()
            except OSError as exc:
                # Propagate to the shipper (it will not advance its
                # committed cursor and re-fetches the batch later; the
                # replayed duplicates are deduped by sequence number)
                # but keep the node marked degraded meanwhile.
                self._enter_degraded("append", exc)
                raise
            if self.degraded:
                self._clear_degraded()
            if batch[-1].seq > self._seq:
                self._seq = batch[-1].seq
        for record in batch:
            # A traced record gets a follower-side apply span carrying
            # the originating request's trace ID — the cross-node half
            # of the flight recorder's request story.
            if record.trace is not None:
                with self.tracer.span(
                    "serve.replicate.apply",
                    trace_id=record.trace,
                    seq=record.seq,
                    kind=record.kind,
                    node=self.node_name,
                    role=self.cluster.role,
                    epoch=self.cluster.epoch,
                ):
                    try:
                        self._apply_record(
                            record.kind, record.record, feed="replication"
                        )
                    except ValueError:
                        self.apply_rejected += 1
                        self._m_apply_rejected.inc(feed="replication")
            else:
                try:
                    self._apply_record(
                        record.kind, record.record, feed="replication"
                    )
                except ValueError:
                    self.apply_rejected += 1
                    self._m_apply_rejected.inc(feed="replication")
            self._applied_seq = max(self._applied_seq, record.seq)
            self._applied_since_snapshot += 1
            self._beat()
        self._maybe_snapshot()
        return len(batch)

    def bootstrap_from_snapshot(self, seq: int, state: dict) -> None:
        """Replace local state wholesale with a primary snapshot.

        The catch-up reset for a follower whose cursor fell below the
        primary's pruned WAL. Save-then-wipe ordering is crash-safe:
        dying between the local snapshot save and the WAL wipe leaves
        only WAL records at or below the new snapshot sequence, which
        replay skips; dying before the save leaves the previous local
        state intact and the next poll bootstraps again.
        """
        store = LiveFusedStore.from_state_dict(state, metrics=self.metrics)
        with self._snapshot_lock, self._intake_lock:
            self.store = store
            self._seq = seq
            self._applied_seq = seq
            self.snapshots.save(seq, {"seq": seq, "state": store.state_dict()})
            self.wal.close()
            for path in self.wal.segments():
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass
            self.wal.open_segment(seq + 1)
            self._applied_since_snapshot = 0
            self._last_snapshot_at = self._clock()
            self._recovery_base = store.applied_events + store.applied_dps
        log.info("bootstrapped from snapshot", seq=seq)

    def promote(self) -> dict:
        """Take over as primary: stop streaming, bump the epoch, open up.

        Fetched-but-uncommitted lines the shipper still held (beyond the
        stable frontier) are discarded with it: under synchronous
        replication the old primary never acknowledged them without this
        follower committing first, so dropping them loses nothing acked.
        The epoch bump is what fences the old primary — its writes (and
        stale fence attempts) carry a smaller epoch from here on.
        """
        with self._cluster_lock:
            if self.cluster.role == ROLE_PRIMARY:
                return {
                    "promoted": False,
                    "role": self.cluster.role,
                    "epoch": self.cluster.epoch,
                    "seq": self._seq,
                    "applied_seq": self._applied_seq,
                }
            epoch_seen = self.cluster.epoch
            if self.shipper is not None:
                self.shipper.stop()
                epoch_seen = max(epoch_seen, self.shipper.known_epoch)
            self.cluster = ClusterState(
                role=ROLE_PRIMARY, epoch=epoch_seen + 1, primary_url=None
            )
            self.cluster.save(self.data_dir)
            self.promotions += 1
            self._m_promotions.inc()
            self._publish_cluster_gauges()
        # Seal the reign boundary: snapshot + fresh WAL segment, so the
        # new epoch's writes start on a segment of their own.
        self._snapshot_now()
        log.info(
            "promoted to primary", epoch=self.cluster.epoch, seq=self._seq
        )
        return {
            "promoted": True,
            "role": self.cluster.role,
            "epoch": self.cluster.epoch,
            "seq": self._seq,
            "applied_seq": self._applied_seq,
        }

    def fence(self, epoch: int, primary_url: Optional[str] = None) -> bool:
        """Step down before a newer epoch; False refuses a stale fence.

        A fenced ex-primary keeps serving reads (possibly of a diverged
        suffix the new primary never saw — that divergence is exactly
        why it must not take writes) and points clients at its
        successor. A replica getting fenced merely records the newer
        epoch and primary hint.
        """
        with self._cluster_lock:
            if epoch <= self.cluster.epoch:
                log.warning(
                    "stale fence refused",
                    requested_epoch=epoch,
                    current_epoch=self.cluster.epoch,
                )
                return False
            new_role = (
                ROLE_FENCED
                if self.cluster.role in (ROLE_PRIMARY, ROLE_FENCED)
                else self.cluster.role
            )
            self.cluster = ClusterState(
                role=new_role, epoch=epoch, primary_url=primary_url
            )
            self.cluster.save(self.data_dir)
            self.fences += 1
            self._m_fences.inc()
            self._publish_cluster_gauges()
        log.warning(
            "fenced by newer epoch", epoch=epoch, role=new_role,
            primary=primary_url,
        )
        return True

    # -- applier --------------------------------------------------------------

    def _apply_record(self, kind: str, record: dict, feed: str) -> None:
        if kind == KIND_ATTACK:
            self.store.apply_attack(record)
        elif kind == KIND_DPS:
            self.store.apply_dps(record)
        else:  # pragma: no cover - intake validates kinds
            raise ValueError(f"unknown record kind {kind!r}")

    def _apply_loop(self) -> None:
        while True:
            batch = self.queue.take(
                max_items=self.config.apply_batch, timeout=0.1
            )
            if not batch:
                self._beat()
                if self._stop.is_set():
                    return
                continue
            self._apply_batch(batch)

    def _apply_batch(self, batch: List[QueueEntry]) -> None:
        delay = self.config.apply_delay
        for entry in batch:
            if delay:
                self._sleep(delay)
            try:
                self._apply_record(entry.kind, entry.record, entry.feed)
            except ValueError as exc:
                # Deterministic rejection (e.g. out-of-order beyond
                # tolerance): counted, breaker-charged, and — because
                # the same record replays to the same rejection —
                # recovery stays value-identical.
                self.apply_rejected += 1
                self._m_apply_rejected.inc(feed=entry.feed)
                self.breakers[entry.feed].record_failure(str(exc))
            else:
                self.breakers[entry.feed].record_success()
            self._applied_seq = max(self._applied_seq, entry.seq)
            self._applied_since_snapshot += 1
            self._beat()
        self._maybe_snapshot()

    def tick_apply(self) -> int:
        """Apply one queued batch inline; the manual-drive step.

        Returns how many entries were applied. Never blocks: an empty
        queue only beats the heartbeat. The simulation scheduler calls
        this instead of the applier thread existing.
        """
        batch = self.queue.take(
            max_items=self.config.apply_batch, timeout=None
        )
        if not batch:
            self._beat()
            return 0
        self._apply_batch(batch)
        return len(batch)

    def _beat(self) -> None:
        self._last_beat = self._clock()

    # -- degraded mode ---------------------------------------------------------

    def _probe_due(self) -> bool:
        """One submit per retry_after window probes a degraded disk."""
        return (
            self._clock() - self._last_wal_error >= self.config.retry_after
        )

    def _enter_degraded(self, op: str, exc: OSError) -> None:
        self.wal_errors += 1
        self._m_wal_errors.inc(op=op)
        self._last_wal_error = self._clock()
        if not self.degraded:
            self.degraded = True
            self.degraded_reason = f"{op}: {exc}"
            self._m_degraded.set(1)
            log.error(
                "durable writes failing; ingest degraded to read-only",
                op=op,
                error=str(exc),
            )

    def _clear_degraded(self) -> None:
        if self.degraded:
            self.degraded = False
            self.degraded_reason = ""
            self._m_degraded.set(0)
            log.info("durable writes recovered; ingest re-enabled")

    def _maybe_snapshot(self) -> None:
        due_events = (
            self._applied_since_snapshot >= self.config.snapshot_every_events
        )
        due_time = (
            self._applied_since_snapshot > 0
            and self._clock() - self._last_snapshot_at
            >= self.config.snapshot_interval_s
        )
        if due_events or due_time:
            self._snapshot_now()

    def _snapshot_now(self) -> None:
        # The snapshot lock serializes snapshot + rotation against the
        # drain path's final snapshot and WAL close.
        with self._snapshot_lock:
            started = time.perf_counter()
            seq = self._applied_seq
            payload = {"seq": seq, "state": self.store.state_dict()}
            try:
                self.snapshots.save(seq, payload)
                self._m_snapshot_seconds.observe(
                    time.perf_counter() - started
                )
                # Rotate under the intake lock: concurrent appends must
                # not race the segment switch, and the fresh segment
                # starts above every sequence number handed out so far.
                with self._intake_lock:
                    self.wal.rotate(self._seq + 1)
            except OSError as exc:
                # A full disk must not kill the applier: note it, stay
                # on the current WAL segment, and let the next due
                # snapshot (or ingest probe) retry. Nothing acked is at
                # risk — the WAL that backs this state is still intact.
                self._enter_degraded("snapshot", exc)
                return
            # Prune only up to the *oldest retained* snapshot, not this
            # one: if this snapshot is later found corrupt, recovery
            # falls back to an older one and needs the WAL span between
            # them intact.
            retained = self.snapshots.seqs()
            if retained and not self.config.wal_keep_all:
                self.wal.prune(retained[0])
            self._applied_since_snapshot = 0
            self._last_snapshot_at = self._clock()
            self._m_snapshot_age.set(0.0)
            log.debug("rolling snapshot", seq=seq)

    # -- watchdog -------------------------------------------------------------

    def _watch_loop(self) -> None:
        interval = max(0.05, min(1.0, self.config.heartbeat_timeout / 4))
        while not self._stop.wait(interval):
            age = self._clock() - self._last_beat
            self._m_heartbeat_age.set(age)
            self._m_snapshot_age.set(self._clock() - self._last_snapshot_at)
            try:
                self._update_wal_gauges()
            except OSError:
                pass
            self.history.maybe_sample()
            if age > self.config.heartbeat_timeout and self.queue.depth > 0:
                self.watchdog_stalls += 1
                self._m_stalls.inc()
                log.error(
                    "applier heartbeat stale",
                    age_s=round(age, 2),
                    depth=self.queue.depth,
                )

    # -- introspection --------------------------------------------------------

    def _update_wal_gauges(self, segments=None) -> tuple:
        """Refresh segment-count / bytes-on-disk gauges; returns both."""
        if segments is None:
            segments = self.wal.segment_sizes()
        total = sum(size for _first, size in segments)
        self._m_wal_segments.set(len(segments))
        self._m_wal_disk_bytes.set(total)
        return len(segments), total

    def status_doc(self, recent: int = 20) -> dict:
        """Topology + health as one JSON document (``GET /status``).

        Every value is either integral or rounded, so the document is
        byte-deterministic under an injected clock — the property the
        ops console and the simulation harness both lean on.
        """
        segments = self.wal.segment_sizes()
        seg_count, wal_bytes = self._update_wal_gauges(segments)
        seq = self._seq
        with self._sync_cond:
            followers = {
                fid: {
                    "committed_seq": int(info["committed_seq"]),
                    "seq_lag": max(0, seq - int(info["committed_seq"])),
                    "age_s": round(self._clock() - info["at"], 3),
                }
                for fid, info in sorted(self._followers.items())
            }
        doc = {
            "node": self.node_name,
            "role": self.cluster.role,
            "epoch": self.cluster.epoch,
            "primary_url": self.cluster.primary_url,
            "seq": seq,
            "applied_seq": self._applied_seq,
            "queue_depth": self.queue.depth,
            "shedding": self.queue.shedding,
            "draining": self._draining.is_set(),
            "degraded": self.degraded,
            "uptime_s": round(self._clock() - self._started_at, 3),
            "wal": {
                "segments": seg_count,
                "bytes": wal_bytes,
                "oldest_seq": self.wal.oldest_seq(),
            },
            "snapshots": {
                "seqs": self.snapshots.seqs(),
                "newest_age_s": round(
                    self._clock() - self._last_snapshot_at, 3
                ),
            },
            "followers": followers,
            "sync_replicas": self.config.sync_replicas,
            "requests": {
                "total": self.requests.total,
                "slow_threshold_s": self.requests.slow_threshold_s,
                "recent": self.requests.recent(recent),
                "slow": self.requests.slow(),
            },
        }
        if self.shipper is not None:
            doc["replication"] = self.shipper.status()
        return doc

    def stats(self) -> dict:
        """Operational snapshot for ``GET /stats`` (plain values)."""
        with self._intake_lock:
            accepted = dict(sorted(self.accepted_by_feed.items()))
            dropped = dict(sorted(self.dropped_by_feed.items()))
        with self._stats_lock:
            rejected = dict(sorted(self.rejected_by_feed.items()))
            refused = dict(sorted(self.refused_by_feed.items()))
        replication = (
            self.shipper.status() if self.shipper is not None else None
        )
        return {
            "uptime_s": self._clock() - self._started_at,
            "seq": self._seq,
            "applied_seq": self._applied_seq,
            "role": self.cluster.role,
            "epoch": self.cluster.epoch,
            "primary_url": self.cluster.primary_url,
            "replication": replication,
            "promotions": self.promotions,
            "fences": self.fences,
            "sync_refused": self.sync_refused,
            "queue_depth": self.queue.depth,
            "shedding": self.queue.shedding,
            "draining": self._draining.is_set(),
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "wal_errors": self.wal_errors,
            "accepted": accepted,
            "rejected": rejected,
            "refused": refused,
            "dropped": dropped,
            "apply_rejected": self.apply_rejected,
            "watchdog_stalls": self.watchdog_stalls,
            "snapshot_seqs": self.snapshots.seqs(),
            "snapshot_age_s": self._clock() - self._last_snapshot_at,
            "breakers": {
                feed: breaker.state
                for feed, breaker in sorted(self.breakers.items())
            },
            "recovery": self.recovery.to_dict(),
            "summary": self.store.summary(),
        }


__all__ = [
    "ALL_SERVE_FEEDS",
    "ATTACK_FEEDS",
    "FEED_DPS",
    "LiveIngestService",
    "RecoveryInfo",
    "ServeConfig",
    "WAL_DIR",
]
