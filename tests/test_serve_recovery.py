"""Property-style crash-recovery drill for the live service.

The contract under test: *snapshot + WAL replay reproduces the exact
fused state* — the recovered store's digest equals the digest an
uninterrupted process would have reached — across randomized kill
points, batch sizes, event orderings and snapshot cadences (seeded, so
a failure reproduces). Plus the named edge paths: empty WAL, and a
corrupted newest snapshot falling back to an older one.

The kill is :meth:`LiveIngestService.stop`: a hard stop with no drain
and no final snapshot, so recovery must work from whatever the WAL and
rolling snapshots happened to capture — the in-process equivalent of
``kill -9`` (the subprocess version of the same drill runs in the serve
chaos scenarios and CI).
"""

import random

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.service import LiveIngestService, ServeConfig
from repro.serve.state import LiveFusedStore
from repro.serve.wal import KIND_ATTACK, KIND_DPS
from repro.store.checkpoint import CheckpointStore


def make_stream(rng: random.Random, count: int = 80):
    """A shuffled single-day stream of (kind, record) ingest items.

    Single-day because intra-day disorder is within the fusion's
    tolerance: any ordering of these records is applied in full, so the
    reference digest is well-defined for every shuffle.
    """
    items = []
    for i in range(count):
        if rng.random() < 0.2:
            items.append(
                (
                    KIND_DPS,
                    {
                        "domain": f"site-{rng.randrange(10)}.example",
                        "provider": f"dps-{rng.randrange(3)}",
                        "day": 0,
                        "active": rng.random() < 0.8,
                    },
                )
            )
        else:
            start = rng.uniform(0.0, 80000.0)
            items.append(
                (
                    KIND_ATTACK,
                    {
                        "source": rng.choice(["telescope", "honeypot"]),
                        "target": (10 << 24) + rng.randrange(512),
                        "start_ts": start,
                        "end_ts": start + rng.uniform(1.0, 600.0),
                        "intensity": rng.uniform(1.0, 500.0),
                    },
                )
            )
    return items


def reference_digest(items) -> str:
    """Digest of an uninterrupted apply of *items* in order."""
    store = LiveFusedStore(metrics=MetricsRegistry())
    for kind, record in items:
        if kind == KIND_ATTACK:
            store.apply_attack(record)
        else:
            store.apply_dps(record)
    return store.state_digest()


def service_at(data_dir, snapshot_every) -> LiveIngestService:
    return LiveIngestService(
        ServeConfig(
            data_dir=data_dir,
            snapshot_every_events=snapshot_every,
            queue_size=4096,  # no shedding: every record must survive
        ),
        metrics=MetricsRegistry(),
    )


def feed_for(kind: str, record: dict) -> str:
    return record.get("source", "telescope") if kind == KIND_ATTACK else "dps"


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_randomized_kill_points_recover_exactly(tmp_path, seed):
    rng = random.Random(seed)
    items = make_stream(rng)
    expected = reference_digest(items)
    data_dir = tmp_path / "serve"
    snapshot_every = rng.choice([3, 7, 13, 50])

    # Split the stream at 1-3 random kill points; each segment is fed by
    # a fresh process recovering from the previous one's remains.
    cuts = sorted(rng.sample(range(1, len(items)), rng.randint(1, 3)))
    segments, prev = [], 0
    for cut in cuts + [len(items)]:
        segments.append(items[prev:cut])
        prev = cut

    for index, segment in enumerate(segments):
        service = service_at(data_dir, snapshot_every)
        service.start()
        position = 0
        while position < len(segment):
            size = rng.randint(1, 9)
            batch = segment[position:position + size]
            position += size
            for kind, record in batch:
                result = service.submit(feed_for(kind, record), kind, [record])
                assert result.accepted == 1, result.to_dict()
        last = index == len(segments) - 1
        if last:
            assert service.quiesce(timeout=30)
            # kill -9 right after the applier caught up: nothing may be
            # lost even though no final snapshot was taken.
            service.stop()
        else:
            # kill -9 mid-apply: whatever was queued but unapplied must
            # come back from the WAL.
            service.stop()

    recovered = service_at(data_dir, snapshot_every)
    recovered.start()
    try:
        assert recovered.quiesce(timeout=30)
        assert recovered.store.state_digest() == expected
    finally:
        recovered.stop()


def test_empty_wal_recovers_from_snapshot_alone(tmp_path):
    rng = random.Random(99)
    items = make_stream(rng, count=30)
    expected = reference_digest(items)
    data_dir = tmp_path / "serve"
    service = service_at(data_dir, snapshot_every=5)
    service.start()
    for kind, record in items:
        service.submit(feed_for(kind, record), kind, [record])
    assert service.quiesce(timeout=30)
    # Graceful drain: final snapshot covers everything, WAL tail empty.
    assert service.drain(timeout=30)

    recovered = service_at(data_dir, snapshot_every=5)
    info = recovered.start()
    try:
        assert info.replayed == 0
        assert not info.fresh_start
        assert recovered.store.state_digest() == expected
    finally:
        recovered.stop()


def test_corrupt_newest_snapshot_falls_back_to_older(tmp_path):
    rng = random.Random(7)
    items = make_stream(rng, count=60)
    expected = reference_digest(items)
    data_dir = tmp_path / "serve"
    # Small apply batches force the snapshot cadence to actually fire
    # mid-stream (one big batch would collapse it into one snapshot).
    service = LiveIngestService(
        ServeConfig(
            data_dir=data_dir,
            snapshot_every_events=10,
            apply_batch=5,
            queue_size=4096,
        ),
        metrics=MetricsRegistry(),
    )
    service.start()
    for kind, record in items:
        service.submit(feed_for(kind, record), kind, [record])
    assert service.quiesce(timeout=30)
    service.stop()

    store = CheckpointStore(data_dir)
    seqs = service.snapshots.seqs()
    names = service.snapshots.names()
    assert len(seqs) >= 2, "drill needs at least two rolling snapshots"
    # The chain: one base, then deltas.
    assert not names[0].endswith("-delta")
    assert names[-1].endswith("-delta")
    payload = store.payload_path(names[-1])
    payload.write_bytes(b"\x00garbage\x00" + payload.read_bytes())

    recovered = service_at(data_dir, snapshot_every=10)
    info = recovered.start()
    try:
        assert info.discarded_snapshots == 1
        assert info.snapshot_seq == seqs[-2]
        # Falling back costs a longer replay, never correctness: the WAL
        # still covers the span between the older snapshot and the kill.
        assert info.replayed > 0
        assert recovered.quiesce(timeout=30)
        assert recovered.store.state_digest() == expected
    finally:
        recovered.stop()


def test_corrupt_newest_two_snapshots_fall_back_to_third(tmp_path):
    """Snapshot fallback is a chain, not a single step: with the newest
    two chain elements corrupted, recovery must land on the third and
    replay the longer WAL tail exactly. One base holds the whole chain,
    so the WAL is not pruned at all."""
    rng = random.Random(17)
    items = make_stream(rng, count=90)
    expected = reference_digest(items)
    data_dir = tmp_path / "serve"
    config = ServeConfig(
        data_dir=data_dir,
        snapshot_every_events=10,
        apply_batch=5,
        queue_size=4096,
    )
    service = LiveIngestService(config, metrics=MetricsRegistry())
    service.start()
    for kind, record in items:
        service.submit(feed_for(kind, record), kind, [record])
    assert service.quiesce(timeout=30)
    service.stop()

    store = CheckpointStore(data_dir)
    seqs = service.snapshots.seqs()
    assert len(seqs) >= 3, "drill needs at least three rolling snapshots"
    for name in service.snapshots.names()[-2:]:
        payload = store.payload_path(name)
        payload.write_bytes(b"\x00garbage\x00" + payload.read_bytes())

    recovered = LiveIngestService(config, metrics=MetricsRegistry())
    info = recovered.start()
    try:
        assert info.discarded_snapshots == 2
        assert info.snapshot_seq == seqs[-3]
        assert info.replayed > 0
        assert recovered.quiesce(timeout=30)
        assert recovered.store.state_digest() == expected
    finally:
        recovered.stop()


def test_every_snapshot_corrupt_replays_wal_from_seq_zero(tmp_path):
    """The last rung of the fallback ladder: every snapshot is garbage,
    but a lone base is never a prune point, so the WAL from sequence 1
    is still there and recovery rebuilds from it."""
    rng = random.Random(23)
    items = make_stream(rng, count=60)
    expected = reference_digest(items)
    data_dir = tmp_path / "serve"
    config = ServeConfig(
        data_dir=data_dir,
        snapshot_every_events=10,
        apply_batch=5,
        queue_size=4096,
    )
    service = LiveIngestService(config, metrics=MetricsRegistry())
    service.start()
    for kind, record in items:
        service.submit(feed_for(kind, record), kind, [record])
    assert service.quiesce(timeout=30)
    service.stop()

    store = CheckpointStore(data_dir)
    seqs = service.snapshots.seqs()
    assert seqs, "drill needs snapshots to corrupt"
    for name in service.snapshots.names():
        payload = store.payload_path(name)
        payload.write_bytes(b"\x00garbage\x00" + payload.read_bytes())

    recovered = LiveIngestService(config, metrics=MetricsRegistry())
    info = recovered.start()
    try:
        assert info.discarded_snapshots == len(seqs)
        assert info.snapshot_seq == 0
        assert info.replayed == len(items)
        assert recovered.store.state_digest() == expected
    finally:
        recovered.stop()


def test_duplicate_wal_seqs_dedupe_and_are_counted(tmp_path):
    """A follower that re-appends a batch after a failed commit leaves
    duplicate sequence numbers in its WAL; replay must apply each seq
    once and surface the count in RecoveryInfo.replay_duplicates."""
    rng = random.Random(31)
    items = make_stream(rng, count=20)
    expected = reference_digest(items)
    data_dir = tmp_path / "serve"
    service = service_at(data_dir, snapshot_every=1000)  # WAL-only
    service.start()
    for kind, record in items:
        assert service.submit(feed_for(kind, record), kind, [record]).accepted
    assert service.quiesce(timeout=30)
    service.stop()

    segments = sorted((data_dir / "wal").glob("wal-*.jsonl"))
    lines = segments[-1].read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) >= 4
    # Re-append the last three committed lines verbatim — the torn-retry
    # shape: same seqs, same payloads, appended again.
    with open(segments[-1], "a", encoding="utf-8") as handle:
        handle.writelines(lines[-3:])

    recovered = service_at(data_dir, snapshot_every=1000)
    info = recovered.start()
    try:
        assert info.replay_duplicates == 3
        assert info.replayed == len(items)
        assert recovered.store.state_digest() == expected
    finally:
        recovered.stop()


def test_all_snapshots_corrupt_recovers_from_wal_alone(tmp_path):
    rng = random.Random(11)
    items = make_stream(rng, count=30)
    expected = reference_digest(items)
    data_dir = tmp_path / "serve"
    service = service_at(data_dir, snapshot_every=100)  # never snapshots
    service.start()
    for kind, record in items:
        service.submit(feed_for(kind, record), kind, [record])
    assert service.quiesce(timeout=30)
    service.stop()

    recovered = service_at(data_dir, snapshot_every=100)
    info = recovered.start()
    try:
        assert info.fresh_start
        assert info.replayed == len(items)
        assert recovered.store.state_digest() == expected
    finally:
        recovered.stop()


def test_torn_tail_survives_second_crash(tmp_path):
    """Crash mid-append, recover, ingest more, crash again: the records
    acknowledged after the first recovery must replay — continuing the
    tail segment may not concatenate onto the torn line (the
    double-crash hazard repair_tail exists for)."""
    rng = random.Random(21)
    items = make_stream(rng, count=40)
    first, second = items[:20], items[20:]
    expected = reference_digest(items)
    data_dir = tmp_path / "serve"

    service = service_at(data_dir, snapshot_every=1000)  # WAL-only
    service.start()
    for kind, record in first:
        assert service.submit(feed_for(kind, record), kind, [record]).accepted
    assert service.quiesce(timeout=30)
    service.stop()

    # Simulate kill -9 mid-append: a torn, unacknowledged final line.
    segments = sorted((data_dir / "wal").glob("wal-*.jsonl"))
    with open(segments[-1], "a", encoding="utf-8") as handle:
        handle.write('{"seq": 9999, "kind": "att')

    middle = service_at(data_dir, snapshot_every=1000)
    info = middle.start()
    assert info.tail_trimmed_bytes > 0
    for kind, record in second:
        assert middle.submit(feed_for(kind, record), kind, [record]).accepted
    assert middle.quiesce(timeout=30)
    live_digest = middle.store.state_digest()
    assert live_digest == expected
    middle.stop()  # second hard kill

    recovered = service_at(data_dir, snapshot_every=1000)
    recovered.start()
    try:
        assert recovered.quiesce(timeout=30)
        assert recovered.store.state_digest() == expected
    finally:
        recovered.stop()


def test_shed_tombstones_keep_recovery_equivalent(tmp_path):
    """Drop-oldest sheds must be replayed as drops, not as applies."""
    data_dir = tmp_path / "serve"
    service = LiveIngestService(
        ServeConfig(
            data_dir=data_dir,
            queue_size=8,
            high_watermark=7,
            low_watermark=2,
            snapshot_every_events=1000,
            apply_delay=0.02,
        ),
        metrics=MetricsRegistry(),
    )
    service.start()
    dropped_total = 0
    for i in range(6):
        batch = [
            {
                "source": "telescope",
                "target": (10 << 24) + i * 6 + j,
                "start_ts": float(i * 6 + j),
                "end_ts": float(i * 6 + j) + 30.0,
                "intensity": 10.0,
            }
            for j in range(6)
        ]
        service.submit("telescope", KIND_ATTACK, batch)
    assert service.quiesce(timeout=30)
    dropped_total = sum(service.dropped_by_feed.values())
    assert dropped_total > 0, "drill must actually shed"
    live_digest = service.store.state_digest()
    service.stop()  # hard kill: recovery sees WAL with tombstones

    recovered = LiveIngestService(
        ServeConfig(data_dir=data_dir), metrics=MetricsRegistry()
    )
    recovered.start()
    try:
        assert recovered.store.state_digest() == live_digest
    finally:
        recovered.stop()
