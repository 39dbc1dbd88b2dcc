"""Incremental snapshots: a base, then deltas, folded back on load.

The contract: at every snapshot point, the base merged with the deltas
after it equals the live store's ``state_dict()`` — through the change
log, through a real checkpoint store (pickle) and through the simtest
store (JSON). Around it: a failed save keeps its changes for the next
delta, a corrupt delta in the middle of a chain costs WAL replay but
not state, a data dir of full snapshots from the build before deltas
recovers to its digest, compaction writes a base at the rule's
threshold, and a follower bootstrapped from the merged payload starts
its own chain with a base.
"""

import json
import random
import shutil
import sys
import threading
from pathlib import Path

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.http import handle
from repro.serve.service import LiveIngestService, ServeConfig
from repro.serve.snapshot import (
    COMPACT_FACTOR,
    SnapshotManager,
    snapshot_stage_name,
)
from repro.serve.state import LiveFusedStore
from repro.serve.wal import KIND_ATTACK, KIND_DPS
from repro.simtest.disk import MemorySnapshotStore
from repro.store.checkpoint import CheckpointStore

DAY = 86400.0
V2_DATADIR = Path(__file__).parent / "serve_v2_datadir"


def chain_stream(seed: int, days: int = 24):
    """Multi-day (kind, record) items: day rollovers, a spike day every
    ninth day (alerts once the baseline is full), repeat victims (ring
    evictions), ASNs, DPS records that do and do not win their domain,
    and an out-of-order event the fusion rejects."""
    rng = random.Random(seed)
    items = []
    for day in range(days):
        count = 8 if day % 9 != 8 else 60
        times = sorted(rng.uniform(day * DAY, (day + 1) * DAY)
                       for _ in range(count))
        for ts in times:
            items.append((KIND_ATTACK, {
                "source": rng.choice(["telescope", "honeypot"]),
                "target": (10 << 24) + rng.randrange(300),
                "start_ts": ts,
                "end_ts": ts + 60.0,
                "intensity": float(rng.randrange(1, 500)),
                "asn": rng.choice([None, 64500, 64501, 64502 + day]),
            }))
            if rng.random() < 0.15:
                items.append((KIND_DPS, {
                    "domain": f"site-{rng.randrange(8)}.example",
                    "provider": f"dps-{rng.randrange(2)}",
                    "day": max(0, day - rng.randrange(2)),
                    "active": rng.random() < 0.7,
                }))
        if day == 12:
            items.append((KIND_ATTACK, {
                "source": "telescope", "target": 10 << 24,
                "start_ts": 0.0, "end_ts": 1.0, "intensity": 1.0,
            }))
    return items


def apply(store: LiveFusedStore, kind: str, record: dict) -> None:
    try:
        if kind == KIND_ATTACK:
            store.apply_attack(record)
        else:
            store.apply_dps(record)
    except ValueError:
        pass  # the out-of-order event: rejected, as in the service


def feed_for(kind: str, record: dict) -> str:
    return record["source"] if kind == KIND_ATTACK else "dps"


class TestMergeOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_base_plus_deltas_equals_state_at_every_snapshot(self, seed):
        rng = random.Random(seed)
        store = LiveFusedStore(max_events_per_victim=3,
                               metrics=MetricsRegistry())
        store.track_changes()
        base, _ = store.capture(delta=False)
        merged = LiveFusedStore.from_state_dict(
            base, metrics=MetricsRegistry()
        )
        items = chain_stream(seed)
        position = 0
        while position < len(items):
            step = rng.randint(1, 40)
            for kind, record in items[position:position + step]:
                apply(store, kind, record)
            position += step
            delta, mark = store.capture(delta=True)
            store.capture_saved(mark)
            # The JSON round trip is what the simtest store does to it.
            merged.apply_delta(json.loads(json.dumps(delta)))
            assert merged.state_dict() == store.state_dict()
        assert store.fusion.alerts, "stream must raise alerts"
        assert merged.state_digest() == store.state_digest()

    def test_captures_racing_applies_lose_nothing(self):
        """A snapshot thread captures and saves while the applier keeps
        applying: what each capture leaves in the change log is exactly
        what the next delta carries."""
        store = LiveFusedStore(max_events_per_victim=3,
                               metrics=MetricsRegistry())
        store.track_changes()
        merged = LiveFusedStore.from_state_dict(
            store.capture(delta=False)[0], metrics=MetricsRegistry()
        )
        items = chain_stream(10, days=60)
        done = threading.Event()

        def applier():
            try:
                for kind, record in items:
                    apply(store, kind, record)
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=applier)
            thread.start()
            captures = 0
            while not done.is_set() or captures == 0:
                delta, mark = store.capture(delta=True)
                merged.apply_delta(delta)
                store.capture_saved(mark)
                captures += 1
            thread.join(timeout=30)
            assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        delta, mark = store.capture(delta=True)
        merged.apply_delta(delta)
        store.capture_saved(mark)
        assert captures > 1
        assert merged.state_dict() == store.state_dict()

    @pytest.mark.parametrize("make_store", [
        lambda tmp: CheckpointStore(tmp),
        lambda tmp: MemorySnapshotStore(),
    ], ids=["checkpoint", "memory"])
    def test_manager_loads_the_merged_state(self, tmp_path, make_store):
        store = LiveFusedStore(max_events_per_victim=3,
                               metrics=MetricsRegistry())
        store.track_changes()
        manager = SnapshotManager(make_store(tmp_path),
                                  metrics=MetricsRegistry())
        for seq, (kind, record) in enumerate(chain_stream(4), start=1):
            apply(store, kind, record)
            if seq % 25:
                continue
            base = manager.wants_base(store.applied_events + store.applied_dps)
            document, mark = store.capture(delta=not base)
            manager.save(seq, {"seq": seq, "state": document} if base else
                         {"seq": seq, "prev": manager.head, "delta": document})
            store.capture_saved(mark)
            loaded = manager.load_newest_valid()
            assert loaded.seq == seq and not loaded.discarded
            assert loaded.payload == {"seq": seq, "state": store.state_dict()}
        assert loaded.deltas > 0


class TestChainOnDisk:
    def service(self, data_dir, **overrides) -> LiveIngestService:
        config = ServeConfig(
            data_dir=data_dir, manual_drive=True,
            snapshot_every_events=overrides.pop("snapshot_every_events", 10),
            max_events_per_victim=3, **overrides,
        )
        return LiveIngestService(config, metrics=MetricsRegistry(),
                                 clock=lambda: 0.0)

    def ingest(self, service, items, batch: int = 10) -> None:
        for start in range(0, len(items), batch):
            for kind, record in items[start:start + batch]:
                result = service.submit(feed_for(kind, record), kind, [record])
                assert result.accepted == 1
            while service.tick_apply():
                pass

    def reference(self, items) -> str:
        store = LiveFusedStore(max_events_per_victim=3,
                               metrics=MetricsRegistry())
        for kind, record in items:
            apply(store, kind, record)
        return store.state_digest()

    def test_compaction_writes_a_base_at_the_threshold(self, tmp_path):
        items = [(KIND_ATTACK, record) for kind, record in chain_stream(5)
                 if kind == KIND_ATTACK and record["start_ts"] > 1.0][:140]
        service = self.service(tmp_path)
        service.start()
        self.ingest(service, items)
        # Base at 10; deltas while the records since it are at most
        # K * 10; a base again at the first snapshot past that.
        threshold = 10 + COMPACT_FACTOR * 10
        second_base = threshold + 10
        names = service.snapshots.names()
        later = [
            snapshot_stage_name(seq, delta=True)
            for seq in range(second_base + 10, 141, 10)
        ]
        assert names == (
            [snapshot_stage_name(10)]
            + [snapshot_stage_name(seq, delta=True)
               for seq in range(20, second_base, 10)]
            + [snapshot_stage_name(second_base)] + later
        )
        assert service.metrics.value("serve_snapshot_bases_total") == 2
        # Both lineages are kept, and the WAL after the older base.
        assert service.wal.oldest_seq() == 11
        service.stop()
        again = self.service(tmp_path)
        info = again.start()
        assert info.snapshot_seq == 140
        assert info.snapshot_deltas == len(later)
        assert again.store.state_digest() == self.reference(items)
        again.stop()

    def test_retention_keeps_bases_and_their_deltas(self, tmp_path):
        items = [(KIND_ATTACK, record) for kind, record in chain_stream(6)
                 if kind == KIND_ATTACK and record["start_ts"] > 1.0][:110]
        service = self.service(tmp_path)
        service.start()
        self.ingest(service, items[:90])
        # One base: a lone base is never a prune point.
        assert service.snapshots.wal_prune_seq() is None
        assert service.wal.oldest_seq() == 1
        self.ingest(service, items[90:])
        seqs = service.snapshots.seqs()
        assert seqs == list(range(10, 111, 10))
        assert service.snapshots.wal_prune_seq() == 10
        # The WAL is pruned only up to the older of the two bases.
        assert service.wal.oldest_seq() == 11
        service.stop()

    def test_failed_delta_save_carries_its_events_forward(self, tmp_path):
        items = chain_stream(7)[:60]
        snaps = MemorySnapshotStore()
        config = ServeConfig(data_dir=tmp_path, manual_drive=True,
                             snapshot_every_events=10,
                             max_events_per_victim=3)
        now = [0.0]
        service = LiveIngestService(config, metrics=MetricsRegistry(),
                                    clock=lambda: now[0], snapshot_store=snaps)
        service.start()
        self.ingest(service, items[:10])
        assert snaps.stages() == [snapshot_stage_name(10)]
        snaps.fail_saves = True
        self.ingest(service, items[10:20])
        assert service.degraded
        assert snaps.stages() == [snapshot_stage_name(10)]
        snaps.fail_saves = False
        now[0] += config.retry_after  # the next submit probes the disk
        self.ingest(service, items[20:30])
        # One delta holds both batches: the failed save's 10 and these.
        delta = snaps.load(snapshot_stage_name(30, delta=True))
        assert delta["prev"] == 10
        attacks = sum(kind == KIND_ATTACK for kind, _ in items[10:30])
        assert len(delta["delta"]["events"]) == attacks
        loaded = service.snapshots.load_newest_valid()
        assert loaded.payload["state"] == service.store.state_dict()
        service.stop()

    def test_corrupt_middle_delta_falls_back_and_wal_covers(self, tmp_path):
        items = chain_stream(8)[:75]
        service = self.service(tmp_path)
        service.start()
        self.ingest(service, items[:50])
        self.ingest(service, items[50:], batch=25)
        service.stop()  # kill -9: no final snapshot
        names = service.snapshots.names()
        assert len(names) >= 4
        middle = names[2]
        assert middle.endswith("-delta")
        payload = CheckpointStore(tmp_path).payload_path(middle)
        payload.write_bytes(b"\x00garbage\x00" + payload.read_bytes())

        again = self.service(tmp_path)
        info = again.start()
        # The chain ends before the corrupt delta: it and every later
        # element are discarded, and the WAL replays the rest.
        assert info.snapshot_seq == service.snapshots.seqs()[0] + 10
        assert info.snapshot_deltas == 1
        assert info.discarded_snapshots == len(names) - 2
        assert again.snapshots.names() == names[:2]
        assert info.replayed == len(items) - info.snapshot_seq
        assert again.store.state_digest() == self.reference(items)
        # After a discard the chain restarts with a base.
        assert again.snapshots.head is None
        self.ingest(again, chain_stream(8, days=30)[75:85])
        assert not again.snapshots.names()[-1].endswith("-delta")
        again.stop()

    def test_delta_that_does_not_follow_ends_the_chain(self, tmp_path):
        store = CheckpointStore(tmp_path)
        manager = SnapshotManager(store, metrics=MetricsRegistry())
        live = LiveFusedStore(metrics=MetricsRegistry())
        live.track_changes()
        manager.save(1, {"seq": 1, "state": live.state_dict()})
        stray = {"seq": 2, "prev": 7, "delta": live.delta_dict()}
        store.save(snapshot_stage_name(2, delta=True), stray)
        loaded = manager.load_newest_valid()
        assert loaded.seq == 1 and loaded.deltas == 0
        assert loaded.discarded == [snapshot_stage_name(2, delta=True)]

    def test_data_dir_of_full_snapshots_recovers_to_its_digest(
        self, tmp_path
    ):
        """``serve_v2_datadir`` was written by the build before delta
        snapshots (commit 5cb3488): full v2 snapshots at 42 and 84, the
        WAL after 42, killed 30 records after the last snapshot. It
        loads as a base, and the chain continues from it with deltas."""
        expected = json.loads((V2_DATADIR / "expected.json").read_text())
        data_dir = tmp_path / "serve"
        shutil.copytree(V2_DATADIR, data_dir)
        config = dict(snapshot_every_events=40)
        service = self.service(data_dir, **config)
        info = service.start()
        assert info.snapshot_seq == expected["snapshot_seq"]
        assert info.snapshot_deltas == 0
        assert info.replayed == expected["replayed"]
        assert service.store.state_digest() == expected["digest"]
        assert service.snapshots.head == expected["snapshot_seq"]
        # The next snapshot is a delta on the old full snapshot.
        assert service.drain(timeout=10)
        assert service.snapshots.names()[-1] == snapshot_stage_name(
            expected["records"], delta=True
        )
        again = self.service(data_dir, **config)
        info = again.start()
        assert info.snapshot_deltas == 1 and info.replayed == 0
        assert again.store.state_digest() == expected["digest"]
        again.stop()


def test_replication_snapshot_is_merged_and_bootstrap_writes_a_base(
    tmp_path,
):
    items = chain_stream(9)[:40]
    primary = LiveIngestService(
        ServeConfig(data_dir=tmp_path / "primary", manual_drive=True,
                    snapshot_every_events=10),
        metrics=MetricsRegistry(), clock=lambda: 0.0,
    )
    primary.start()
    for kind, record in items:
        assert primary.submit(feed_for(kind, record), kind, [record]).accepted
        primary.tick_apply()
    assert primary.snapshots.names()[-1].endswith("-delta")
    response = handle(primary, "GET", "/replication/snapshot", {}, b"")
    assert response.status == 200
    body = json.loads(response.data)
    head = primary.snapshots.head
    assert body["seq"] == head
    assert body["state"] == primary.store.state_dict()

    follower = LiveIngestService(
        ServeConfig(data_dir=tmp_path / "follower", manual_drive=True,
                    snapshot_every_events=10,
                    replica_of="http://127.0.0.1:1"),
        metrics=MetricsRegistry(), clock=lambda: 0.0,
    )
    follower.start()
    follower.bootstrap_from_snapshot(body["seq"], body["state"])
    assert follower.snapshots.names() == [snapshot_stage_name(head)]
    assert follower.store.state_digest() == primary.store.state_digest()
    follower.stop()
    primary.stop()
