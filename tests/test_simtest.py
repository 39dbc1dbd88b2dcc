"""Tests for the deterministic cluster simulation harness.

Four layers of assurance:

1. The fault primitives behave as documented (SimClock, SimDisk power
   cuts / torn ENOSPC appends, MemorySnapshotStore corruption).
2. Determinism: the same seed produces byte-identical traces, and a
   trace replays to the byte — the property everything else (CI gating,
   shrinking, corpus regression) rests on.
3. The committed regression corpus replays to its recorded outcome, and
   a bounded fresh sweep stays violation-free.
4. Oracle sensitivity: re-introducing a fixed serve-layer bug (no
   fsync between a WAL append and its ack) makes the digest oracle
   fire again, and the shrinker reduces that failure while preserving
   its signature; re-introducing the old retention rule (prune up to
   a lone base) makes the per-node recovery oracle fire — the harness
   is shown to *detect*, not just pass.
"""

import json
from pathlib import Path

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.service import LiveIngestService, ServeConfig
from repro.serve.transport import TransportError
from repro.serve.wal import KIND_ATTACK
from repro.simtest import (
    MemorySnapshotStore,
    SimClock,
    SimDisk,
    SimTransport,
    default_spec,
    run_sim,
    run_trace,
    shrink_trace,
    trace_to_json,
)
from repro.simtest.harness import execute_ops

CORPUS_DIR = Path(__file__).parent / "simtest_corpus"


# -- fault primitives ----------------------------------------------------------


def test_sim_clock_advances_and_sleeps_without_waiting():
    clock = SimClock()
    assert clock() == 0.0
    clock.advance(1.5)
    clock.sleep(0.25)
    assert clock.now() == pytest.approx(1.75)
    assert clock.slept == pytest.approx(0.25)
    with pytest.raises(ValueError):
        clock.advance(-1.0)


def test_sim_disk_power_cut_rolls_back_to_fsynced_length():
    disk = SimDisk()
    handle = disk.open_append("wal/seg.jsonl")
    disk.append(handle, b"synced-line\n")
    disk.fsync(handle)
    disk.append(handle, b"unsynced-line\n")
    lost = disk.crash_power(keep_unsynced_fraction=0.0)
    assert disk.read_bytes("wal/seg.jsonl") == b"synced-line\n"
    assert list(lost.values()) == [b"unsynced-line\n"]


def test_sim_disk_partial_power_cut_leaves_torn_tail():
    disk = SimDisk()
    handle = disk.open_append("wal/seg.jsonl")
    disk.append(handle, b"first\n")
    disk.fsync(handle)
    disk.append(handle, b"0123456789")
    disk.crash_power(keep_unsynced_fraction=0.5)
    # Half the unsynced tail survives: a mid-line cut, the torn case.
    assert disk.read_bytes("wal/seg.jsonl") == b"first\n01234"


def test_sim_disk_process_crash_keeps_flushed_bytes():
    disk = SimDisk()
    handle = disk.open_append("wal/seg.jsonl")
    disk.append(handle, b"flushed-but-not-synced\n")
    disk.crash_process()
    assert disk.read_bytes("wal/seg.jsonl") == b"flushed-but-not-synced\n"


def test_sim_disk_enospc_append_raises_and_can_tear():
    disk = SimDisk()
    handle = disk.open_append("wal/seg.jsonl")
    disk.append(handle, b"ok\n")
    disk.set_full(True, partial_next_append=4)
    with pytest.raises(OSError):
        disk.append(handle, b"doomed-record\n")
    # The first failing append landed a 4-byte torn prefix.
    assert disk.read_bytes("wal/seg.jsonl") == b"ok\ndoom"
    disk.set_full(False)
    disk.append(handle, b"after\n")
    assert disk.read_bytes("wal/seg.jsonl").endswith(b"after\n")


def test_memory_snapshot_store_enospc_and_corruption():
    store = MemorySnapshotStore()
    store.save("snap-1", {"seq": 1})
    store.fail_saves = True
    with pytest.raises(OSError):
        store.save("snap-2", {"seq": 2})
    store.fail_saves = False
    store.save("snap-2", {"seq": 2})
    assert store.corrupt_newest(1) == 1
    assert store.load("snap-1") == {"seq": 1}


def test_sim_transport_partitions_and_crashed_nodes():
    clock = SimClock()
    transport = SimTransport(seed=1, clock=clock)
    service_box = {"svc": None}
    transport.register("n0", lambda: service_box["svc"])
    bound = transport.bind("client")
    url = transport.url_of("n0") + "/healthz"
    # Crashed (service None): connection refused.
    with pytest.raises(TransportError):
        bound.exchange("GET", url)
    transport.partition("client", "n0")
    with pytest.raises(TransportError):
        bound.exchange("GET", url)
    transport.heal("client", "n0")
    assert not transport.partitioned("client", "n0")


# -- degraded mode through the simulated disk ----------------------------------


def _manual_service(tmp_path, disk, clock):
    return LiveIngestService(
        ServeConfig(
            data_dir=tmp_path / "node",
            manual_drive=True,
            retry_after=0.2,
            queue_size=64,
        ),
        metrics=MetricsRegistry(),
        clock=clock,
        disk=disk,
        snapshot_store=MemorySnapshotStore(),
        sleep=clock.sleep,
    )


def _attack(n):
    return {
        "source": "telescope",
        "target": (10 << 24) + n,
        "start_ts": float(n),
        "end_ts": float(n) + 30.0,
        "intensity": 50.0,
    }


def test_disk_full_degrades_to_read_only_and_probe_recovers(tmp_path):
    disk, clock = SimDisk(), SimClock()
    service = _manual_service(tmp_path, disk, clock)
    registry = service.metrics
    service.start()
    try:
        assert service.submit("telescope", KIND_ATTACK, [_attack(0)]).accepted
        disk.set_full(True)
        refused = service.submit("telescope", KIND_ATTACK, [_attack(1)])
        assert refused.accepted == 0
        assert refused.http_status() == 503
        assert refused.retry_after is not None
        assert service.degraded
        assert registry.value("serve_degraded") == 1
        assert registry.value("serve_wal_errors_total", op="append") >= 1
        # While degraded and inside the probe window: fast refusal, no
        # further disk traffic.
        fast = service.submit("telescope", KIND_ATTACK, [_attack(2)])
        assert fast.reasons.get("degraded")
        assert fast.http_status() == 503
        # Disk returns; the next submit past the window is the probe.
        disk.set_full(False)
        clock.advance(0.5)
        probe = service.submit("telescope", KIND_ATTACK, [_attack(3)])
        assert probe.accepted == 1
        assert not service.degraded
        assert registry.value("serve_degraded") == 0
        while service.tick_apply():
            pass
        assert service.applied_seq == service._seq
    finally:
        service.stop()


def test_enospc_in_a_commit_write_acks_none_of_the_batch(tmp_path):
    """The batch is one write: a torn ENOSPC write acks no record of it
    (not even those whose lines were whole) and leaves no partial line."""
    disk, clock = SimDisk(), SimClock()
    service = _manual_service(tmp_path, disk, clock)
    service.start()
    try:
        assert service.submit(
            "telescope", KIND_ATTACK, [_attack(n) for n in range(3)]
        ).accepted == 3
        segment = service.wal.segments()[-1]
        committed = disk.read_bytes(segment)
        # Tear the write after two whole lines and part of a third.
        torn = len(committed) // 3 * 2 + 10
        disk.set_full(True, partial_next_append=torn)
        failed = service.submit(
            "telescope", KIND_ATTACK, [_attack(n) for n in range(3, 8)]
        )
        assert failed.accepted == 0
        assert failed.reasons == {"degraded": 5}
        assert failed.http_status() == 503
        assert service._seq == 3 and service.queue.depth == 3
        assert disk.read_bytes(segment) == committed
        disk.set_full(False)
        clock.advance(0.5)
        retried = service.submit(
            "telescope", KIND_ATTACK, [_attack(n) for n in range(3, 8)]
        )
        assert retried.accepted == 5 and retried.last_seq == 8
        records, report = service.wal.replay()
        assert report.torn_lines == 0
        assert [(r.seq, r.record) for r in records] == [
            (n + 1, _attack(n)) for n in range(8)
        ]
    finally:
        service.stop()


def test_acked_batch_survives_a_power_cut_on_the_primary():
    """Acked means fsynced: a power cut that keeps none of the unsynced
    tail loses nothing the client was answered 202 for."""
    ops = [
        {"op": "ingest", "feed": "telescope", "start": 0, "count": 5},
        {"op": "ingest", "feed": "dps", "start": 5, "count": 3},
        {"op": "crash", "node": "n0", "mode": "power", "keep_fraction": 0.0},
        {"op": "restart", "node": "n0"},
    ]
    violations, summary = execute_ops(0, default_spec(nodes=1), ops)
    assert violations == []
    assert summary["acked"] == 8
    assert summary["final_seq"] == 8


# -- determinism + sweep -------------------------------------------------------


def test_same_seed_produces_byte_identical_traces():
    config = default_spec(nodes=3, steps=30)
    first = trace_to_json(run_sim(5, config))
    second = trace_to_json(run_sim(5, config))
    assert first == second


def test_trace_replay_is_byte_identical():
    config = default_spec(nodes=3, steps=30)
    trace = run_sim(9, config)
    replayed = run_trace(json.loads(trace_to_json(trace)))
    assert trace_to_json(replayed) == trace_to_json(trace)


@pytest.mark.parametrize("seed", range(10))
def test_seed_sweep_passes_oracles(seed):
    trace = run_sim(seed, default_spec(nodes=3, steps=40))
    assert trace["violations"] == [], trace["violations"]


# -- regression corpus ---------------------------------------------------------


def _corpus_traces():
    paths = sorted(CORPUS_DIR.glob("*.json"))
    assert paths, "regression corpus must not be empty"
    return paths


@pytest.mark.parametrize(
    "path", _corpus_traces(), ids=lambda p: p.stem
)
def test_corpus_trace_replays_to_recorded_outcome(path):
    trace = json.loads(path.read_text(encoding="utf-8"))
    result = run_trace(trace)
    assert result["violations"] == trace["violations"], (
        f"{path.name}: replay diverged from recorded outcome "
        f"(a fixed bug has regressed, or the harness changed semantics)"
    )


# -- oracle sensitivity + shrinker ---------------------------------------------


def test_digest_oracle_detects_missing_fsync_barrier(monkeypatch):
    """Re-introduce the primary-rewind bug; the oracle must catch it.

    The fix under guard: a WAL commit fsyncs its batch before the ack
    and before replication_status reports the bytes, so followers never
    learn of power-loss-volatile bytes. With the commit writing its
    batch but skipping the fsync, the corpus seed's schedule forks the
    follower digests — and the shrinker must reduce the failure while
    keeping its signature.
    """
    monkeypatch.setattr(SimDisk, "fsync", lambda self, handle: None)
    config = default_spec(nodes=3, steps=60)
    trace = run_sim(0, config)
    oracles = {v.get("oracle") for v in trace["violations"]}
    assert "digest" in oracles, trace["violations"]
    minimized, runs = shrink_trace(trace, max_runs=200)
    assert 0 < len(minimized["ops"]) < len(trace["ops"])
    assert "digest" in {v.get("oracle") for v in minimized["violations"]}
    assert runs >= 1


def test_recovery_oracle_detects_pruning_to_a_lone_base(monkeypatch):
    """Re-introduce the old retention rule, which pruned the WAL up to
    the only base: a node whose lone base is then corrupted recovers
    onto an empty store over a WAL that starts after that base, and
    the per-node recovery oracle must see its digest change."""
    from repro.serve.snapshot import DELTA_SUFFIX, SnapshotManager

    def oldest_base_seq(self):
        bases = [seq for seq, name in zip(self.seqs(), self.names())
                 if not name.endswith(DELTA_SUFFIX)]
        return bases[0] if bases else None

    monkeypatch.setattr(SnapshotManager, "wal_prune_seq", oldest_base_seq)
    trace = run_sim(4, default_spec(nodes=3, steps=60))
    oracles = {v.get("oracle") for v in trace["violations"]}
    assert "recovery" in oracles, trace["violations"]


def test_shrinker_refuses_passing_trace():
    trace = run_sim(1, default_spec(nodes=3, steps=30))
    assert trace["violations"] == []
    with pytest.raises(ValueError):
        shrink_trace(trace)


# -- flight recorder: cross-node trace propagation -----------------------------


def test_trace_id_propagates_primary_to_follower_deterministically(tmp_path):
    """One traced client write shows up, attributed, on both sim nodes.

    The trace ID attached at the client rides the WAL line to the
    follower, whose ``serve.replicate.apply`` span carries it — and the
    whole exchange is byte-deterministic under the simulated clock.
    """
    from repro.obs.trace import SpanTracer
    from repro.serve.client import ServeClient

    def run(base_dir):
        clock = SimClock()
        transport = SimTransport(seed=0, clock=clock)
        services = {}
        tracers = {}

        def make(name, replica_of=None):
            tracer = SpanTracer(clock=clock)
            service = LiveIngestService(
                ServeConfig(
                    data_dir=base_dir / name,
                    manual_drive=True,
                    replica_of=replica_of,
                    follower_id=name,
                    poll_interval_s=0.1,
                ),
                metrics=MetricsRegistry(),
                clock=clock,
                disk=SimDisk(),
                snapshot_store=MemorySnapshotStore(),
                transport=transport.bind(name),
                sleep=clock.sleep,
                tracer=tracer,
            )
            services[name] = service
            tracers[name] = tracer
            transport.register(name, lambda n=name: services[n])
            service.start()
            return service

        primary = make("n0")
        follower = make("n1", replica_of=transport.url_of("n0"))
        client = ServeClient(
            [transport.url_of("n0")],
            transport=transport.bind("client"),
            sleep=clock.sleep,
        )
        try:
            response = client.request(
                "POST", "/ingest/attacks?feed=telescope",
                body={"records": [_attack(i) for i in range(3)]},
                trace="ingest-telescope-0",
            )
            assert response.status == 202
            assert response.trace_id == "ingest-telescope-0"
            while primary.tick_apply():
                pass
            for _ in range(5):
                follower.shipper.poll_once()
            while follower.tick_apply():
                pass
            records, _report = follower.wal.replay()
            spans = {
                name: [s.to_dict() for s in tracers[name].spans]
                for name in sorted(tracers)
            }
            requests = {
                name: services[name].requests.recent()
                for name in sorted(services)
            }
            return records, spans, requests
        finally:
            follower.stop()
            primary.stop()

    records, spans, requests = run(tmp_path / "a")

    # The follower's replayed WAL attributes every record to the client.
    assert len(records) == 3
    assert {r.trace for r in records} == {"ingest-telescope-0"}
    # The ingest request hit the primary's request log with the ID...
    ingest_rows = [
        r for r in requests["n0"] if r["endpoint"] == "/ingest/attacks"
    ]
    assert ingest_rows and ingest_rows[0]["trace_id"] == "ingest-telescope-0"
    # ...and the follower's apply span carries the same ID: the
    # cross-node propagation proof, one ID on two distinct nodes.
    applies = [
        s for s in spans["n1"] if s["name"] == "serve.replicate.apply"
    ]
    assert applies
    assert {s["attrs"]["trace_id"] for s in applies} == {"ingest-telescope-0"}
    assert {s["attrs"]["node"] for s in applies} == {"n1"}
    http_spans = [s for s in spans["n0"] if s["name"] == "serve.http"]
    assert any(
        s["attrs"]["trace_id"] == "ingest-telescope-0" for s in http_spans
    )

    # Same schedule, different directory: byte-identical evidence.
    records2, spans2, requests2 = run(tmp_path / "b")
    assert [r.trace for r in records2] == [r.trace for r in records]
    assert json.dumps(spans2, sort_keys=True) == json.dumps(
        spans, sort_keys=True
    )
    assert requests2 == requests
