"""Unit tests for the live service's building blocks.

WAL (append/replay/rotation/torn tails/shed tombstones), rolling
snapshots (retention, corrupt fall-back), admission control (watermark
hysteresis, drop-oldest), the fused store (apply/query/state roundtrip)
and the service itself (validation, accounting, drain, recovery).
"""

import errno
import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import AdmissionQueue, QueueEntry
from repro.serve.disk import LocalDisk
from repro.serve.service import LiveIngestService, ServeConfig
from repro.serve.snapshot import SnapshotManager, snapshot_stage_name
from repro.serve.state import (
    LiveFusedStore,
    normalize_dps_record,
    validate_dps_record,
)
from repro.serve.wal import (
    FSYNC_BUCKETS,
    KIND_ATTACK,
    KIND_DPS,
    KIND_SHED,
    WalRecord,
    WriteAheadLog,
    segment_first_seq,
    segment_name,
)
from repro.store.checkpoint import CheckpointStore


def attack(i, *, day=0):
    """A valid serialized attack event; strictly ordered by *i*."""
    base = day * 86400.0
    return {
        "source": "telescope",
        "target": (10 << 24) + i,
        "start_ts": base + float(i),
        "end_ts": base + float(i) + 30.0,
        "intensity": 50.0 + i,
    }


def entry(seq, feed="telescope"):
    return QueueEntry(seq=seq, kind=KIND_ATTACK, feed=feed, record=attack(seq))


class TestWriteAheadLog:
    def test_fsync_histogram_counts_every_fsync(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(tmp_path, metrics=registry)
        for first in (1, 5, 9):
            for seq in range(first, first + 4):
                wal.append(seq, KIND_ATTACK, attack(seq))
            wal.flush()
        wal.flush()
        wal.rotate(13)
        wal.append(13, KIND_ATTACK, attack(13))
        wal.close()
        fsyncs = registry.value("serve_wal_fsyncs_total")
        # One per commit: three batches and the close. A commit with
        # nothing new and the rotation of a committed segment cost none.
        assert fsyncs == 4
        seconds = registry.histogram(
            "serve_wal_fsync_seconds", buckets=FSYNC_BUCKETS
        )
        assert seconds.count() == fsyncs
        assert seconds.sum() >= 0.0
        assert "serve_wal_fsync_seconds_count 4" in (
            registry.render_prometheus()
        )

    def test_append_replay_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for seq in range(1, 6):
            wal.append(seq, KIND_ATTACK, attack(seq))
        wal.close()
        records, report = WriteAheadLog(tmp_path).replay()
        assert [r.seq for r in records] == [1, 2, 3, 4, 5]
        assert records[0].record == attack(1)
        assert report.torn_lines == 0

    def test_replay_after_seq_skips_covered_prefix(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for seq in range(1, 6):
            wal.append(seq, KIND_ATTACK, attack(seq))
        wal.close()
        records, _report = WriteAheadLog(tmp_path).replay(after_seq=3)
        assert [r.seq for r in records] == [4, 5]

    def test_shed_tombstone_excludes_dropped_seqs(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        for seq in range(1, 5):
            wal.append(seq, KIND_ATTACK, attack(seq))
        wal.append(5, KIND_SHED, {"seqs": [1, 2], "feed": "telescope"})
        wal.close()
        records, report = WriteAheadLog(tmp_path).replay()
        assert [r.seq for r in records] == [3, 4]
        assert report.shed_seqs == 2

    def test_torn_tail_discarded_not_fatal(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, KIND_ATTACK, attack(1))
        wal.append(2, KIND_ATTACK, attack(2))
        wal.close()
        segment = next(tmp_path.glob("wal-*.jsonl"))
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "kind": "att')  # crash mid-append
        records, report = WriteAheadLog(tmp_path).replay()
        assert [r.seq for r in records] == [1, 2]
        assert report.torn_lines == 1

    def test_repair_tail_truncates_torn_bytes(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, KIND_ATTACK, attack(1))
        wal.append(2, KIND_ATTACK, attack(2))
        wal.close()
        segment = next(tmp_path.glob("wal-*.jsonl"))
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "kind": "att')  # crash mid-append
        trimmed = WriteAheadLog(tmp_path).repair_tail(segment)
        assert trimmed > 0
        # The file now ends at the last complete line: appending to it
        # is safe, and a second repair is a no-op.
        assert segment.read_text(encoding="utf-8").endswith("\n")
        assert WriteAheadLog(tmp_path).repair_tail(segment) == 0
        records, report = WriteAheadLog(tmp_path).replay()
        assert [r.seq for r in records] == [1, 2]
        assert report.torn_lines == 0

    def test_repair_tail_then_append_survives_second_replay(self, tmp_path):
        """The double-crash scenario: a torn tail must not swallow
        records appended after recovery continues the segment."""
        wal = WriteAheadLog(tmp_path)
        wal.append(1, KIND_ATTACK, attack(1))
        wal.close()
        segment = next(tmp_path.glob("wal-*.jsonl"))
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "kind": "att')  # crash mid-append
        recovered = WriteAheadLog(tmp_path)
        recovered.repair_tail(segment)
        recovered.open_segment(segment_first_seq(segment.name))
        recovered.append(2, KIND_ATTACK, attack(2))
        recovered.append(3, KIND_ATTACK, attack(3))
        recovered.close()
        records, report = WriteAheadLog(tmp_path).replay()
        assert [r.seq for r in records] == [1, 2, 3]
        assert report.torn_lines == 0
        assert WriteAheadLog(tmp_path).max_seq() == 3

    def test_rotate_and_prune_respect_coverage(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.open_segment(1)
        for seq in (1, 2, 3):
            wal.append(seq, KIND_ATTACK, attack(seq))
        wal.rotate(4)
        for seq in (4, 5):
            wal.append(seq, KIND_ATTACK, attack(seq))
        assert len(wal.segments()) == 2
        # A snapshot at 2 does not cover seq 3: nothing prunable.
        assert wal.prune(2) == 0
        # A snapshot at 3 covers the whole first segment.
        assert wal.prune(3) == 1
        records, _report = wal.replay(after_seq=3)
        assert [r.seq for r in records] == [4, 5]
        wal.close()

    def test_current_segment_never_pruned(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.open_segment(1)
        wal.append(1, KIND_ATTACK, attack(1))
        assert wal.prune(100) == 0
        wal.close()

    def test_max_seq_spans_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.open_segment(1)
        wal.append(1, KIND_ATTACK, attack(1))
        wal.rotate(2)
        wal.append(2, KIND_DPS, {"domain": "x", "provider": "p", "day": 0})
        wal.close()
        assert WriteAheadLog(tmp_path).max_seq() == 2

    def test_segment_naming_roundtrip(self):
        assert segment_first_seq(segment_name(42)) == 42
        assert segment_first_seq("other.jsonl") is None
        assert segment_first_seq("wal-notanum.jsonl") is None

    def test_unknown_kind_refused(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        with pytest.raises(ValueError):
            wal.append(1, "mystery", {})


class TestSnapshotManager:
    def test_rolling_retention(self, tmp_path):
        manager = SnapshotManager(tmp_path, keep=2)
        for seq in (10, 20, 30):
            manager.save(seq, {"seq": seq})
        assert manager.seqs() == [20, 30]

    def test_load_newest(self, tmp_path):
        manager = SnapshotManager(tmp_path, keep=2)
        manager.save(10, {"seq": 10})
        manager.save(20, {"seq": 20})
        loaded = manager.load_newest_valid()
        assert loaded.found and loaded.seq == 20
        assert loaded.payload == {"seq": 20}

    def test_empty_store(self, tmp_path):
        loaded = SnapshotManager(tmp_path).load_newest_valid()
        assert not loaded.found and loaded.seq == 0

    def test_corrupt_newest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path)
        manager = SnapshotManager(store, keep=2)
        manager.save(10, {"seq": 10})
        manager.save(20, {"seq": 20})
        payload = store.payload_path(snapshot_stage_name(20))
        payload.write_bytes(b"garbage" + payload.read_bytes())
        loaded = manager.load_newest_valid()
        assert loaded.found and loaded.seq == 10
        assert loaded.discarded == [snapshot_stage_name(20)]
        # The corrupt snapshot was discarded on disk too.
        assert manager.seqs() == [10]


class TestAdmissionQueue:
    def test_watermark_hysteresis(self):
        queue = AdmissionQueue(maxsize=10, high_watermark=6, low_watermark=2)
        assert queue.refuse("telescope", 1) is None
        queue.push([entry(seq) for seq in range(1, 7)])  # depth 6 == high
        assert queue.shedding
        assert queue.refuse("telescope", 1) == queue.retry_after
        # Draining to 3 (> low) keeps shedding on; to 2 (== low) clears it.
        queue.take(max_items=3, timeout=0)
        assert queue.shedding
        queue.take(max_items=1, timeout=0)
        assert not queue.shedding
        assert queue.refuse("telescope", 1) is None

    def test_drop_oldest_returns_evicted(self):
        queue = AdmissionQueue(maxsize=4, high_watermark=3, low_watermark=1)
        queue.push([entry(1), entry(2)])
        dropped = queue.push([entry(3), entry(4), entry(5), entry(6)])
        assert [e.seq for e in dropped] == [1, 2]
        assert queue.depth == 4
        assert [e.seq for e in queue.take(max_items=10, timeout=0)] == [
            3, 4, 5, 6,
        ]

    def test_take_batches_fifo(self):
        queue = AdmissionQueue(maxsize=10)
        queue.push([entry(seq) for seq in (1, 2, 3)])
        assert [e.seq for e in queue.take(max_items=2, timeout=0)] == [1, 2]
        assert [e.seq for e in queue.take(max_items=2, timeout=0)] == [3]
        assert queue.take(max_items=2, timeout=0) == []

    def test_bad_watermarks_refused(self):
        with pytest.raises(ValueError):
            AdmissionQueue(maxsize=10, high_watermark=2, low_watermark=5)
        with pytest.raises(ValueError):
            AdmissionQueue(maxsize=1)


class TestDpsValidation:
    def test_valid(self):
        record = {"domain": "x.com", "provider": "p", "day": 3}
        assert validate_dps_record(record) is None
        assert normalize_dps_record(record)["active"] is True

    @pytest.mark.parametrize(
        "record,reason",
        [
            ("nope", "not-an-object"),
            ({"provider": "p", "day": 0}, "bad-type:domain"),
            ({"domain": "x", "day": 0}, "bad-type:provider"),
            ({"domain": "x", "provider": "p"}, "bad-type:day"),
            ({"domain": "x", "provider": "p", "day": True}, "bad-type:day"),
            ({"domain": "x", "provider": "p", "day": -1}, "out-of-range:day"),
            (
                {"domain": "x", "provider": "p", "day": 0, "active": 1},
                "bad-type:active",
            ),
        ],
    )
    def test_rejections(self, record, reason):
        assert validate_dps_record(record) == reason


class TestLiveFusedStore:
    def test_apply_and_query(self):
        store = LiveFusedStore(metrics=MetricsRegistry())
        for i in range(5):
            store.apply_attack(attack(i))
        victim = (10 << 24) + 2
        events = store.events_for_ip(victim)
        assert len(events) == 1 and events[0]["target"] == victim
        by_prefix = store.events_for_prefix(10 << 24, 24, limit=3)
        assert len(by_prefix) == 3
        # Newest first.
        assert by_prefix[0]["start_ts"] > by_prefix[-1]["start_ts"]
        assert store.victims_in_prefix(10 << 24, 16) == [
            (10 << 24) + i for i in range(5)
        ]

    def test_dps_latest_by_day_wins(self):
        store = LiveFusedStore(metrics=MetricsRegistry())
        store.apply_dps({"domain": "x", "provider": "old", "day": 1})
        store.apply_dps({"domain": "x", "provider": "new", "day": 5})
        store.apply_dps({"domain": "x", "provider": "stale", "day": 2})
        assert store.domain_status("x")["provider"] == "new"
        store.apply_dps(
            {"domain": "x", "provider": "off", "day": 6, "active": False}
        )
        assert store.protected_domains() == 0

    def test_per_victim_ring_bounded(self):
        store = LiveFusedStore(
            max_events_per_victim=3, metrics=MetricsRegistry()
        )
        victim = (10 << 24) + 1
        for i in range(10):
            record = attack(1)
            record["start_ts"] += i
            record["end_ts"] += i
            store.apply_attack(record)
        assert len(store.events_for_ip(victim, limit=100)) == 3

    def test_state_roundtrip_preserves_digest(self):
        store = LiveFusedStore(metrics=MetricsRegistry())
        for i in range(8):
            store.apply_attack(attack(i))
        store.apply_dps({"domain": "x", "provider": "p", "day": 0})
        restored = LiveFusedStore.from_state_dict(
            json.loads(json.dumps(store.state_dict())),
            metrics=MetricsRegistry(),
        )
        assert restored.state_digest() == store.state_digest()
        assert restored.summary() == store.summary()

    def test_state_version_mismatch_raises(self):
        store = LiveFusedStore(metrics=MetricsRegistry())
        state = store.state_dict()
        state["version"] = 999
        with pytest.raises(ValueError):
            LiveFusedStore.from_state_dict(state)

    def test_rejected_apply_leaves_store_untouched(self):
        store = LiveFusedStore(metrics=MetricsRegistry())
        store.apply_attack(attack(0, day=5))
        digest = store.state_digest()
        with pytest.raises(ValueError):
            store.apply_attack(attack(0, day=1))  # beyond disorder tolerance
        assert store.state_digest() == digest


class TestLiveIngestService:
    def make(self, tmp_path, **overrides):
        defaults = dict(
            data_dir=tmp_path / "serve",
            snapshot_every_events=10,
            queue_size=256,
        )
        defaults.update(overrides)
        return LiveIngestService(
            ServeConfig(**defaults), metrics=MetricsRegistry()
        )

    def test_submit_validates_and_accounts(self, tmp_path):
        service = self.make(tmp_path)
        service.start()
        try:
            result = service.submit(
                "telescope", KIND_ATTACK,
                [attack(1), {"source": "telescope"}, "junk"],
            )
            assert result.accepted == 1
            assert result.rejected == 2
            assert result.reasons["not-an-object"] == 1
            assert service.quiesce(timeout=10)
            assert service.store.applied_events == 1
        finally:
            service.stop()

    def test_unknown_feed_rejected_whole(self, tmp_path):
        service = self.make(tmp_path)
        service.start()
        try:
            result = service.submit("mystery", KIND_ATTACK, [attack(1)])
            assert result.accepted == 0
            assert result.reasons == {"unknown-feed": 1}
        finally:
            service.stop()

    def test_drain_then_recover_identical(self, tmp_path):
        service = self.make(tmp_path)
        service.start()
        service.submit("telescope", KIND_ATTACK, [attack(i) for i in range(25)])
        assert service.quiesce(timeout=10)
        digest = service.store.state_digest()
        assert service.drain(timeout=10)
        recovered = self.make(tmp_path)
        info = recovered.start()
        try:
            assert not info.fresh_start
            assert recovered.store.state_digest() == digest
            # Sequence numbering continues; no seq is ever reused.
            result = recovered.submit("telescope", KIND_ATTACK, [attack(30)])
            assert result.accepted == 1
            assert recovered._seq > 25
        finally:
            recovered.stop()

    def test_draining_service_refuses(self, tmp_path):
        service = self.make(tmp_path)
        service.start()
        service.drain(timeout=10)
        result = service.submit("telescope", KIND_ATTACK, [attack(1)])
        assert result.refused

    def test_breaker_opens_on_apply_failures(self, tmp_path):
        service = self.make(tmp_path, breaker_threshold=2)
        service.start()
        try:
            # Establish day 5, then feed records that deterministically
            # fail at apply (older than the disorder tolerance).
            service.submit("telescope", KIND_ATTACK, [attack(0, day=5)])
            service.submit(
                "telescope", KIND_ATTACK,
                [attack(1, day=0), attack(2, day=0)],
            )
            assert service.quiesce(timeout=10)
            assert service.apply_rejected == 2
            assert service.breakers["telescope"].state == "open"
            refused = service.submit("telescope", KIND_ATTACK, [attack(3, day=5)])
            assert refused.refused
        finally:
            service.stop()

    def test_stats_shape(self, tmp_path):
        service = self.make(tmp_path)
        service.start()
        try:
            service.submit("telescope", KIND_ATTACK, [attack(1)])
            assert service.quiesce(timeout=10)
            stats = service.stats()
            assert stats["accepted"] == {"telescope": 1}
            assert stats["queue_depth"] == 0
            assert stats["recovery"]["fresh_start"] is True
            assert stats["summary"]["applied_events"] == 1
            assert set(stats["breakers"]) == {"dps", "honeypot", "telescope"}
        finally:
            service.stop()

    def test_metrics_flow(self, tmp_path):
        service = self.make(tmp_path)
        service.start()
        try:
            service.submit("telescope", KIND_ATTACK, [attack(i) for i in range(3)])
            assert service.quiesce(timeout=10)
            registry = service.metrics
            assert registry.value("serve_admitted_total", feed="telescope") == 3
            assert registry.value("serve_wal_appends_total", kind="attack") == 3
            assert registry.value("serve_applied_total", kind="attack") == 3
            text = registry.render_prometheus()
            assert "serve_queue_depth" in text
        finally:
            service.stop()


class FailingFsyncDisk(LocalDisk):
    """A local disk whose next fsync fails with EIO once."""

    def __init__(self):
        self.fail_next_fsync = False

    def fsync(self, handle):
        if self.fail_next_fsync:
            self.fail_next_fsync = False
            raise OSError(errno.EIO, "input/output error (injected)")
        super().fsync(handle)


class TestFailedCommit:
    """A batch whose fsync fails is acked nowhere and leaves no line."""

    def make(self, data_dir, disk=None, clock=None, **overrides):
        return LiveIngestService(
            ServeConfig(data_dir=data_dir, manual_drive=True, **overrides),
            metrics=MetricsRegistry(),
            disk=disk,
            clock=clock or (lambda: 0.0),
        )

    def test_failed_commit_acks_nothing_and_reuses_no_sequence(
        self, tmp_path
    ):
        now = [0.0]
        disk = FailingFsyncDisk()
        service = self.make(tmp_path, disk=disk, clock=lambda: now[0])
        service.start()
        try:
            disk.fail_next_fsync = True
            failed = service.submit(
                "telescope", KIND_ATTACK, [attack(i) for i in range(1, 5)]
            )
            assert failed.accepted == 0
            assert failed.reasons == {"degraded": 4}
            assert failed.http_status() == 503
            assert service.degraded and service._seq == 0
            assert service.queue.depth == 0
            assert service.wal.replay()[0] == []
            # Past the probe window the next batch commits and takes
            # the sequence numbers the failed one gave back.
            now[0] += service.config.retry_after
            acked = service.submit(
                "telescope", KIND_ATTACK, [attack(i) for i in range(5, 9)]
            )
            assert acked.accepted == 4 and acked.last_seq == 4
            assert not service.degraded
        finally:
            service.stop()
        recovered = self.make(tmp_path)
        info = recovered.start()
        try:
            assert info.replayed == 4 and info.replay_duplicates == 0
            records, report = recovered.wal.replay()
            assert report.duplicate_seqs == 0
            assert [(r.seq, r.record) for r in records] == [
                (seq, attack(seq + 4)) for seq in range(1, 5)
            ]
        finally:
            recovered.stop()

    def test_follower_failed_commit_raises_without_advancing(
        self, tmp_path
    ):
        disk = FailingFsyncDisk()
        follower = self.make(
            tmp_path, disk=disk, replica_of="http://127.0.0.1:1"
        )
        follower.start()
        batch = [WalRecord(seq, KIND_ATTACK, attack(seq)) for seq in (1, 2)]
        try:
            disk.fail_next_fsync = True
            with pytest.raises(OSError):
                follower.replicate_commit(batch)
            assert follower._seq == 0 and follower.applied_seq == 0
            assert follower.degraded
            assert follower.wal.replay()[0] == []
            # The shipper re-sends the batch; this time it commits.
            assert follower.replicate_commit(batch) == 2
            assert follower._seq == 2 and not follower.degraded
            assert [r.seq for r in follower.wal.replay()[0]] == [1, 2]
        finally:
            follower.stop()
