"""WAL-shipping replication: shipping primitives, cluster protocol, client.

Three layers under test, bottom up:

* **WAL shipping primitives** — ``segment_sizes`` / ``read_chunk`` /
  ``oldest_seq`` / truncated ``replay(upto_seq=...)`` with a whole-log
  shed set, plus the prune boundary rules a follower's bootstrap
  decision hangs off (including the newest-segment guard that keeps a
  prune racing a rotation from deleting the live tail);
* **the cluster protocol** — a real in-process primary (behind its HTTP
  server, since the shipper only speaks HTTP) with in-process follower
  services: streaming convergence by state digest, read-only refusal
  with a primary hint, shed-under-replication equivalence, snapshot
  bootstrap when the cursor falls below the pruned WAL, promotion with
  an epoch bump, fencing and stale-fence refusal, and synchronous-ack
  ingest timing out into 503 when no follower confirms;
* **the client** — Retry-After honoring, connection failover across the
  endpoint list, and 409 primary-hint redirects, against a scripted
  transport (no sockets, no sleeps).
"""

import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.client import ClientResponse, ServeClient, ServeClientError
from repro.serve.http import (
    ENDPOINT_FILE,
    ServeHTTPServer,
    read_endpoint_file,
    write_endpoint_file,
)
from repro.serve.replication import (
    CLUSTER_FILE,
    CURSOR_FILE,
    ClusterState,
    ROLE_FENCED,
    ROLE_PRIMARY,
    ROLE_REPLICA,
    ShipperCursor,
    WalShipper,
)
from repro.serve.service import LiveIngestService, ServeConfig
from repro.serve.wal import KIND_ATTACK, KIND_SHED, WriteAheadLog
from repro.pipeline.runner import RetryPolicy


def attack(i: int) -> dict:
    return {
        "source": "telescope",
        "target": (10 << 24) + (i % 999),
        "start_ts": float(i),
        "end_ts": float(i) + 30.0,
        "intensity": 50.0 + (i % 7),
    }


def wait_until(predicate, timeout: float = 15.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached within timeout")


def make_service(data_dir, **overrides) -> LiveIngestService:
    config = ServeConfig(
        data_dir=data_dir,
        queue_size=overrides.pop("queue_size", 4096),
        snapshot_every_events=overrides.pop("snapshot_every_events", 10_000),
        **overrides,
    )
    return LiveIngestService(config, metrics=MetricsRegistry())


def start_http(service):
    server = ServeHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


def stop_http(server):
    server.shutdown()
    server.server_close()


# -- WAL shipping primitives ---------------------------------------------------


def test_segment_sizes_and_read_chunk_round_trip(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal", metrics=MetricsRegistry())
    for seq in range(1, 6):
        wal.append(seq, KIND_ATTACK, attack(seq))
    wal.rotate(6)
    for seq in range(6, 9):
        wal.append(seq, KIND_ATTACK, attack(seq))
    wal.flush()

    sizes = wal.segment_sizes()
    assert [first for first, _size in sizes] == [1, 6]
    assert all(size > 0 for _first, size in sizes)
    assert wal.oldest_seq() == 1

    # Chunked reads reassemble the exact segment bytes at any chunk size.
    for first, size in sizes:
        whole = wal.read_chunk(first, 0, max_bytes=size)
        pieces, offset = [], 0
        while offset < size:
            piece = wal.read_chunk(first, offset, max_bytes=7)
            pieces.append(piece)
            offset += len(piece)
        assert b"".join(pieces) == whole
        assert len(whole) == size
    assert wal.read_chunk(999, 0) is None  # no such segment
    with pytest.raises(ValueError):
        wal.read_chunk(1, -1)
    with pytest.raises(ValueError):
        wal.read_chunk(1, 0, max_bytes=0)


def test_replay_upto_sheds_via_whole_log_tombstones(tmp_path):
    """A tombstone *beyond* the cut still sheds a record below it."""
    wal = WriteAheadLog(tmp_path / "wal", metrics=MetricsRegistry())
    for seq in range(1, 6):
        wal.append(seq, KIND_ATTACK, attack(seq))
    wal.append(6, KIND_SHED, {"seqs": [4], "feed": "telescope"})
    wal.flush()

    records, report = wal.replay(after_seq=0, upto_seq=4)
    assert [r.seq for r in records] == [1, 2, 3]
    assert report.shed_seqs == 1
    # The untruncated replay agrees about seq 4.
    full, _report = wal.replay(after_seq=0)
    assert [r.seq for r in full] == [1, 2, 3, 5]


def test_prune_boundary_and_newest_segment_guard(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal", metrics=MetricsRegistry())
    for seq in range(1, 11):
        wal.append(seq, KIND_ATTACK, attack(seq))
        if seq % 5 == 0:
            wal.rotate(seq + 1)
    # Segments: 1..5, 6..10, and the empty tail at 11.
    assert [f for f, _s in wal.segment_sizes()] == [1, 6, 11]

    # A snapshot at 5 covers exactly segment 1: only it may go.
    assert wal.prune(upto_seq=5) == 1
    assert wal.oldest_seq() == 6
    # A snapshot at 4 would cover nothing removable.
    assert wal.prune(upto_seq=4) == 0

    # Regression (prune racing rotation): even a snapshot covering
    # *everything* must leave the newest segment on disk — a rotation
    # racing the scan may be about to continue it.
    wal.close()
    fresh = WriteAheadLog(tmp_path / "wal", metrics=MetricsRegistry())
    assert fresh.prune(upto_seq=10_000) == 1  # removes 6..10, keeps 11
    assert [f for f, _s in fresh.segment_sizes()] == [11]


# -- durable cluster identity and cursor ---------------------------------------


def test_cluster_state_round_trip_and_validation(tmp_path):
    state = ClusterState(role=ROLE_REPLICA, epoch=3,
                         primary_url="http://127.0.0.1:1")
    state.save(tmp_path)
    loaded = ClusterState.load(tmp_path)
    assert loaded == state
    # No temp droppings from the atomic write.
    assert [p.name for p in tmp_path.iterdir()] == [CLUSTER_FILE]

    with pytest.raises(ValueError):
        ClusterState.from_dict({"role": "king", "epoch": 1})
    with pytest.raises(ValueError):
        ClusterState.from_dict({"role": ROLE_PRIMARY, "epoch": 0})
    with pytest.raises(ValueError):
        ClusterState.from_dict({"role": ROLE_PRIMARY, "epoch": True})

    (tmp_path / CLUSTER_FILE).write_text("{torn", encoding="utf-8")
    assert ClusterState.load(tmp_path) is None


def test_shipper_cursor_round_trip_and_distrust(tmp_path):
    cursor = ShipperCursor(
        epoch=2, committed_seq=40, offsets={1: 100, 21: 55},
        primary_url="http://127.0.0.1:1", bootstraps=1,
    )
    cursor.save(tmp_path)
    loaded = ShipperCursor.load(tmp_path)
    assert loaded == cursor
    assert [p.name for p in tmp_path.iterdir()] == [CURSOR_FILE]

    # A cursor claiming more than the recovered WAL holds must not seed
    # resume offsets — refetching is safe, skipping is not.
    service = make_service(tmp_path / "svc")
    service.start()
    try:
        shipper = WalShipper(service, "http://127.0.0.1:1",
                             metrics=MetricsRegistry())
        shipper.resume_from(loaded, recovered_seq=10)
        assert shipper.committed_seq == 10
        assert shipper.known_epoch == 2
        assert shipper._stable_offsets == {}
        # And a trustworthy cursor does seed them.
        trusted = WalShipper(service, "http://127.0.0.1:1",
                             metrics=MetricsRegistry())
        trusted.resume_from(loaded, recovered_seq=40)
        assert trusted._stable_offsets == {1: 100, 21: 55}
    finally:
        service.stop()


def test_endpoint_file_written_atomically(tmp_path):
    write_endpoint_file(tmp_path, "127.0.0.1", 4242, 77)
    assert read_endpoint_file(tmp_path) == {
        "host": "127.0.0.1", "port": 4242, "pid": 77,
    }
    assert [p.name for p in tmp_path.iterdir()] == [ENDPOINT_FILE]


# -- cluster protocol ----------------------------------------------------------


def test_follower_converges_promotes_and_fences(tmp_path):
    primary = make_service(tmp_path / "primary")
    primary.start()
    server, url = start_http(primary)
    follower = make_service(
        tmp_path / "follower", replica_of=url, follower_id="f1",
        poll_interval_s=0.05,
    )
    try:
        for i in range(0, 60, 12):
            result = primary.submit(
                "telescope", KIND_ATTACK, [attack(j) for j in range(i, i + 12)]
            )
            assert result.accepted == 12
        assert primary.quiesce(timeout=20)

        follower.start()
        wait_until(lambda: follower.applied_seq >= 60)
        assert follower.store.state_digest() == primary.store.state_digest()
        assert follower.shipper is not None
        assert follower.shipper.lag() == 0

        # Writes are refused with the primary's address attached.
        refused = follower.submit("telescope", KIND_ATTACK, [attack(999)])
        assert refused.read_only
        assert refused.primary_url == url
        assert refused.accepted == 0

        # The primary sees the follower's piggybacked cursor on the poll
        # after the commit.
        wait_until(
            lambda: primary.replication_status()["followers"]
            .get("f1", {}).get("committed_seq", 0) >= 60
        )
        assert primary.replication_status()["stable_seq"] == 60

        # Promotion: epoch bumps, writes open up, shipper stops.
        promoted = follower.promote()
        assert promoted["promoted"]
        assert promoted["epoch"] == 2
        assert follower.cluster.role == ROLE_PRIMARY
        assert not follower.shipper.running
        accepted = follower.submit("telescope", KIND_ATTACK, [attack(999)])
        assert accepted.accepted == 1
        # Promoting again is a no-op, not another epoch.
        assert not follower.promote()["promoted"]
        assert follower.cluster.epoch == 2

        # The old primary: fenced by the newer epoch, refuses the stale one.
        assert primary.fence(2, primary_url="http://new")
        assert primary.cluster.role == ROLE_FENCED
        fenced = primary.submit("telescope", KIND_ATTACK, [attack(1000)])
        assert fenced.read_only
        assert fenced.primary_url == "http://new"
        assert not primary.fence(2)  # not strictly newer
        assert not primary.fence(1)
        assert primary.cluster.epoch == 2
    finally:
        follower.stop()
        stop_http(server)
        primary.stop()


def test_follower_restart_resumes_from_cursor(tmp_path):
    primary = make_service(tmp_path / "primary")
    primary.start()
    server, url = start_http(primary)
    fdir = tmp_path / "follower"
    try:
        primary.submit("telescope", KIND_ATTACK,
                       [attack(i) for i in range(30)])
        assert primary.quiesce(timeout=20)

        follower = make_service(fdir, replica_of=url, follower_id="f1",
                                poll_interval_s=0.05)
        follower.start()
        wait_until(lambda: follower.applied_seq >= 30)
        follower.stop()  # hard stop: no drain

        primary.submit("telescope", KIND_ATTACK,
                       [attack(i) for i in range(30, 50)])
        assert primary.quiesce(timeout=20)

        resumed = make_service(fdir, replica_of=url, follower_id="f1",
                               poll_interval_s=0.05)
        info = resumed.start()
        assert info.replayed == 30  # local WAL replayed, not refetched
        wait_until(lambda: resumed.applied_seq >= 50)
        assert resumed.store.state_digest() == primary.store.state_digest()
        resumed.stop()
    finally:
        stop_http(server)
        primary.stop()


def test_shed_under_replication_keeps_digests_equal(tmp_path):
    """Drop-oldest sheds on the primary must not reach follower state."""
    primary = make_service(
        tmp_path / "primary", queue_size=8, high_watermark=7,
        low_watermark=2, apply_delay=0.02,
    )
    primary.start()
    server, url = start_http(primary)
    follower = make_service(
        tmp_path / "follower", replica_of=url, follower_id="f1",
        poll_interval_s=0.05,
    )
    follower.start()
    try:
        for i in range(6):
            primary.submit(
                "telescope", KIND_ATTACK,
                [attack(i * 6 + j) for j in range(6)],
            )
        assert primary.quiesce(timeout=30)
        assert sum(primary.dropped_by_feed.values()) > 0, "must actually shed"
        wait_until(
            lambda: follower.shipper.committed_seq >= primary.applied_seq
        )
        assert follower.store.state_digest() == primary.store.state_digest()
    finally:
        follower.stop()
        stop_http(server)
        primary.stop()


def test_late_follower_bootstraps_from_snapshot(tmp_path):
    """A fresh follower behind the pruned WAL catches up via snapshot."""
    primary = make_service(
        tmp_path / "primary", snapshot_every_events=10, apply_batch=5,
    )
    primary.start()
    server, url = start_http(primary)
    try:
        # Quiesce between chunks so the rolling snapshots rotate the WAL
        # *between* appends — only then do old segments become prunable.
        for chunk in range(6):
            primary.submit(
                "telescope", KIND_ATTACK,
                [attack(i) for i in range(chunk * 10, chunk * 10 + 10)],
            )
            assert primary.quiesce(timeout=20)
        wait_until(lambda: primary.wal.oldest_seq() > 1)

        follower = make_service(
            tmp_path / "follower", replica_of=url, follower_id="late",
            poll_interval_s=0.05,
        )
        follower.start()
        try:
            # Wait on the shipper's cursor, not the service's applied_seq:
            # a bootstrap publishes applied_seq before the shipper has
            # counted it, and the cursor is the shipper's last step.
            wait_until(
                lambda: follower.shipper.committed_seq >= primary.applied_seq
            )
            assert follower.shipper.bootstraps >= 1
            assert (
                follower.store.state_digest() == primary.store.state_digest()
            )
            # The bootstrap survives a restart: local snapshot + WAL
            # replay land back on the same state.
            follower.stop()
            again = make_service(
                tmp_path / "follower", replica_of=url, follower_id="late",
                poll_interval_s=0.05,
            )
            again.start()
            wait_until(lambda: again.applied_seq >= primary.applied_seq)
            assert again.store.state_digest() == primary.store.state_digest()
            again.stop()
        finally:
            follower.stop()
    finally:
        stop_http(server)
        primary.stop()


def test_sync_replicas_times_out_without_followers(tmp_path):
    primary = make_service(
        tmp_path / "primary", sync_replicas=1, sync_timeout_s=0.2,
        retry_after=0.5,
    )
    primary.start()
    server, url = start_http(primary)
    try:
        result = primary.submit("telescope", KIND_ATTACK, [attack(1)])
        # Locally durable but the replication guarantee failed: 503 path.
        assert result.reasons.get("sync-timeout") == 1
        assert result.retry_after == 0.5

        follower = make_service(
            tmp_path / "follower", replica_of=url, follower_id="f1",
            poll_interval_s=0.05,
        )
        follower.start()
        try:
            wait_until(
                lambda: primary.replication_status()["followers"].get("f1")
                is not None
            )
            confirmed = primary.submit("telescope", KIND_ATTACK, [attack(2)])
            assert confirmed.accepted == 1
            assert "sync-timeout" not in confirmed.reasons
        finally:
            follower.stop()
    finally:
        stop_http(server)
        primary.stop()


# -- client --------------------------------------------------------------------


class ScriptedTransport:
    """Replaces ServeClient._exchange with a canned response sequence."""

    def __init__(self, steps):
        self.steps = list(steps)
        self.calls = []

    def __call__(self, method, endpoint, path, body, trace=None):
        self.calls.append((method, endpoint, path))
        if not self.steps:
            raise AssertionError("transport script exhausted")
        step = self.steps.pop(0)
        if isinstance(step, Exception):
            raise step
        status, payload = step
        return ClientResponse(status=status, body=payload, endpoint=endpoint)


def scripted_client(steps, endpoints=("http://a", "http://b")):
    sleeps = []
    client = ServeClient(
        list(endpoints),
        retry=RetryPolicy(max_attempts=4, backoff_base=0.01,
                          backoff_max=0.05, jitter=False),
        sleep=sleeps.append,
    )
    transport = ScriptedTransport(steps)
    client._exchange = transport
    return client, transport, sleeps


def test_client_honors_retry_after_on_503():
    client, transport, sleeps = scripted_client([
        (503, {"retry_after": 1.25, "reasons": {"shedding": 1}}),
        (202, {"accepted": 1}),
    ])
    response = client.request("POST", "/ingest/attacks", {"records": []})
    assert response.status == 202
    assert sleeps and sleeps[0] >= 1.25  # header wins over backoff
    assert client.retries == 1


def test_client_fails_over_on_connection_error():
    client, transport, sleeps = scripted_client([
        OSError("connection refused"),
        (200, {"ok": True}),
    ])
    response = client.request("GET", "/stats")
    assert response.ok
    # The second attempt went to the other endpoint.
    assert [endpoint for _m, endpoint, _p in transport.calls] == [
        "http://a", "http://b",
    ]
    assert client.failovers == 1


def test_client_redirects_on_read_only_hint():
    client, transport, sleeps = scripted_client([
        (409, {"read_only": True, "primary_url": "http://c"}),
        (202, {"accepted": 1}),
    ])
    response = client.request("POST", "/ingest/attacks", {"records": []})
    assert response.status == 202
    assert transport.calls[-1][1] == "http://c"
    assert client.redirects == 1
    assert not sleeps  # redirects re-aim immediately
    assert client.active_endpoint == "http://c"


def test_client_pinned_endpoint_never_redirects():
    client, transport, _sleeps = scripted_client([
        (409, {"read_only": True, "primary_url": "http://c"}),
    ])
    response = client.request(
        "POST", "/ingest/attacks", {"records": []}, endpoint="http://b"
    )
    assert response.status == 409  # returned as-is, no follow
    assert transport.calls == [("POST", "http://b", "/ingest/attacks")]


def test_client_exhausts_budget_with_last_error():
    client, _transport, _sleeps = scripted_client(
        [OSError("boom")] * 4
    )
    with pytest.raises(ServeClientError) as excinfo:
        client.request("GET", "/stats")
    assert "boom" in str(excinfo.value)
