"""Equivalence tests for the hot-path engine.

Every fast path introduced by the performance layer must be a drop-in
replacement: victim-partitioned detection, the packed LPM/hosting lookups,
chunked JSONL serialization and the cross-run stage cache are each
pinned against their reference — identical events, identical lookups,
identical bytes — across seeded scenarios and injected fault plans.
The checkpoint manifest's codec field is checked here too.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults.injectors import FaultInjectorSet
from repro.faults.plan import FaultPlan
from repro.pipeline import datasets
from repro.pipeline.datasets import (
    QuarantinedRecord,
    event_to_dict,
    save_events_jsonl,
    write_quarantine_jsonl,
)
from repro.obs import Telemetry
from repro.pipeline.runner import (
    OBSERVATION_STAGES,
    ResilientPipeline,
    stage_fingerprint,
)
from repro.pipeline.simulation import (
    honeypot_capture,
    merge_honeypot_shards,
    merge_telescope_shards,
    telescope_capture,
)
from repro.store.atomic import atomic_writer
from repro.store.checkpoint import CheckpointStore, CheckpointVersionError
from tests.detection_oracle import (
    HoneypotDetector,
    RSDoSDetector,
    honeypot_partitioned,
    lpm_reference,
    telescope_partitioned,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


# -- shared captures ----------------------------------------------------------


@pytest.fixture(scope="module")
def capture(small_config, sim):
    return telescope_capture(small_config, sim.ground_truth)


@pytest.fixture(scope="module")
def request_log(small_config, sim):
    return honeypot_capture(small_config, sim.ground_truth)


# -- victim-partitioned detection ---------------------------------------------


class TestShardedDetection:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_telescope_shards_match_serial(
        self, small_config, capture, n_shards
    ):
        serial = RSDoSDetector(small_config.rsdos_config()).run(
            capture.batches()
        )
        assert telescope_partitioned(
            small_config, capture, n_shards
        ) == merge_telescope_shards([list(serial)])

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_honeypot_shards_match_serial(
        self, small_config, request_log, n_shards
    ):
        serial = HoneypotDetector(
            small_config.honeypot_detection_config()
        ).run(request_log.batches())
        assert honeypot_partitioned(
            small_config, request_log, n_shards
        ) == merge_honeypot_shards([list(serial)])

    def test_shards_match_serial_under_fault_plan(self, small_config, sim):
        plan = FaultPlan.standard(
            small_config.n_days, n_honeypots=small_config.n_honeypots
        )
        injectors = FaultInjectorSet(plan)
        degraded = telescope_capture(
            small_config, sim.ground_truth, fault=injectors.telescope
        )
        assert telescope_partitioned(
            small_config, degraded, 3
        ) == telescope_partitioned(small_config, degraded, 1)
        degraded_log = honeypot_capture(
            small_config, sim.ground_truth, fault=injectors.honeypot
        )
        assert honeypot_partitioned(
            small_config, degraded_log, 3
        ) == honeypot_partitioned(small_config, degraded_log, 1)


# -- packed lookups -----------------------------------------------------------


class TestPackedLookups:
    def test_lpm_matches_reference(self, sim):
        routing = sim.topology.routing
        reference = lpm_reference(routing)
        rng = random.Random(11)
        for _ in range(5000):
            address = rng.randrange(1 << 32)
            assert routing.lookup(address) == reference(address)

    def test_lpm_rebuilds_after_withdraw(self, sim):
        routing = sim.topology.routing
        prefix, asn = next(iter(routing.announced_prefixes()))
        address = prefix.network
        assert routing.lookup(address) is not None
        routing.withdraw(prefix)
        assert routing.lookup(address) == lpm_reference(routing)(address)
        routing.announce(prefix, asn)
        assert routing.lookup(address) == lpm_reference(routing)(address)

    def test_hosting_count_matches_reference(self, sim, small_config):
        index = sim.web_index
        rng = random.Random(12)
        targets = [e.target for e in sim.fused.combined.events]
        for _ in range(5000):
            ip = rng.choice(targets)
            day = rng.randrange(small_config.n_days)
            assert index.count_on(ip, day) == len(index.sites_on(ip, day))


# -- chunked serialization ----------------------------------------------------


class TestChunkedSerialization:
    def _reference_events(self, events, path):
        with atomic_writer(path, text=True) as handle:
            for event in events:
                handle.write(json.dumps(event_to_dict(event)) + "\n")

    def test_events_byte_identical(self, sim, tmp_path):
        events = sim.fused.combined.events
        self._reference_events(events, tmp_path / "ref.jsonl")
        save_events_jsonl(events, tmp_path / "fast.jsonl")
        assert (tmp_path / "fast.jsonl").read_bytes() == (
            tmp_path / "ref.jsonl"
        ).read_bytes()

    def test_events_byte_identical_across_chunks(
        self, sim, tmp_path, monkeypatch
    ):
        # A tiny chunk size forces many joins, covering the chunk
        # boundary and the trailing partial chunk.
        monkeypatch.setattr(datasets, "WRITE_CHUNK_LINES", 7)
        events = sim.fused.combined.events[:100]
        self._reference_events(events, tmp_path / "ref.jsonl")
        assert save_events_jsonl(events, tmp_path / "fast.jsonl") == 100
        assert (tmp_path / "fast.jsonl").read_bytes() == (
            tmp_path / "ref.jsonl"
        ).read_bytes()

    def test_quarantine_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setattr(datasets, "WRITE_CHUNK_LINES", 4)
        records = [
            QuarantinedRecord(line_no=i, reason="parse-error", raw=f"x{i}")
            for i in range(11)
        ]
        with atomic_writer(tmp_path / "ref.jsonl", text=True) as handle:
            for record in records:
                handle.write(json.dumps(record.to_dict(), sort_keys=True))
                handle.write("\n")
        assert write_quarantine_jsonl(records, tmp_path / "fast.jsonl") == 11
        assert (tmp_path / "fast.jsonl").read_bytes() == (
            tmp_path / "ref.jsonl"
        ).read_bytes()

    def test_empty_inputs(self, tmp_path):
        assert save_events_jsonl([], tmp_path / "events.jsonl") == 0
        assert (tmp_path / "events.jsonl").read_bytes() == b""
        assert write_quarantine_jsonl([], tmp_path / "q.jsonl") == 0
        assert (tmp_path / "q.jsonl").read_bytes() == b""


# -- checkpoint codec field ---------------------------------------------------


class TestCheckpointCodec:
    PAYLOAD = {"events": list(range(3000)), "tag": "x" * 500}

    def test_legacy_manifest_defaults_to_pickle(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("attacks", self.PAYLOAD)
        manifest_path = store.manifest_path("attacks")
        document = json.loads(manifest_path.read_text())
        del document["codec"]
        manifest_path.write_text(json.dumps(document))
        assert store.load("attacks") == self.PAYLOAD

    def test_unknown_codec_is_version_skew(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("attacks", self.PAYLOAD)
        manifest_path = store.manifest_path("attacks")
        document = json.loads(manifest_path.read_text())
        document["codec"] = "lz4"
        manifest_path.write_text(json.dumps(document))
        with pytest.raises(CheckpointVersionError, match="lz4"):
            store.load("attacks")


# -- cross-run stage cache ----------------------------------------------------


class TestStageFingerprint:
    def test_sensitive_to_every_input(self, small_config):
        base = stage_fingerprint(small_config, "telescope")
        assert stage_fingerprint(small_config, "telescope") == base
        assert stage_fingerprint(small_config, "honeypot") != base
        reseeded = small_config.with_seed(small_config.seed + 1)
        assert stage_fingerprint(reseeded, "telescope") != base


class TestStageCache:
    """The stage cache is a checkpoint store whose entry names are
    ``<stage>-<fingerprint>``; a run adopts an entry that verifies and
    recomputes (then rewrites) one that does not."""

    @staticmethod
    def key(config, stage):
        return f"{stage}-{stage_fingerprint(config, stage)}"

    @staticmethod
    def run(config, cache_dir):
        telemetry = Telemetry.create()
        result = ResilientPipeline(
            config, stage_cache=cache_dir, telemetry=telemetry
        ).run()
        statuses = {s.name: s.status for s in result.quality.stages}
        return result, statuses, telemetry.metrics

    @pytest.fixture(scope="class")
    def cold(self, small_config, tmp_path_factory):
        """One cold run's cache directory and result."""
        cache_dir = tmp_path_factory.mktemp("cold") / "cache"
        result, statuses, metrics = self.run(small_config, cache_dir)
        return cache_dir, result, statuses, metrics

    @pytest.fixture
    def cache(self, cold, tmp_path):
        """A private copy of the cold cache, free to tamper with."""
        copy = tmp_path / "cache"
        shutil.copytree(cold[0], copy)
        return CheckpointStore(copy)

    def assert_recomputed_once(self, config, cache, cold, stage):
        """A warm run over *cache* recomputes *stage* alone, matches the
        cold run, and leaves a fresh entry equal to the cold one."""
        result, statuses, metrics = self.run(config, cache.run_dir)
        events = result.fused.combined.events
        assert events == cold[1].fused.combined.events
        for other in OBSERVATION_STAGES:
            expected = "ok" if other == stage else "cache-hit"
            assert statuses[other] == expected, other
        assert metrics.value("stage_cache_misses_total", stage=stage) == 1
        key = self.key(config, stage)
        assert cache.load(key) == CheckpointStore(cold[0]).load(key)

    def test_miss_then_hit_round_trip(self, cold, small_config):
        cache_dir, _, statuses, metrics = cold
        keys = sorted(self.key(small_config, s) for s in OBSERVATION_STAGES)
        assert CheckpointStore(cache_dir).stages() == keys
        for stage in OBSERVATION_STAGES:
            assert statuses[stage] == "ok"
            assert metrics.value("stage_cache_misses_total", stage=stage) == 1
            assert metrics.value("stage_cache_hits_total", stage=stage) == 0
        written = sum(
            CheckpointStore(cache_dir).manifest(key).payload_bytes
            for key in keys
        )
        assert metrics.value("stage_cache_bytes_written_total") == written
        _, warm, metrics = self.run(small_config, cache_dir)
        for stage in OBSERVATION_STAGES:
            assert warm[stage] == "cache-hit"
            assert metrics.value("stage_cache_hits_total", stage=stage) == 1
        assert metrics.value("stage_cache_bytes_read_total") == written
        assert metrics.value("stage_cache_bytes_written_total") == 0
        # Cache entries are not run-dir checkpoints.
        assert metrics.value("checkpoint_saves_total") == 0
        assert metrics.value("checkpoint_loads_total", result="ok") == 0

    def test_poisoned_payload_is_a_miss(self, cold, cache, small_config):
        payload_path = cache.payload_path(self.key(small_config, "telescope"))
        data = bytearray(payload_path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        payload_path.write_bytes(bytes(data))
        self.assert_recomputed_once(small_config, cache, cold, "telescope")

    def test_stale_fingerprint_is_a_miss(self, cold, cache, small_config):
        # Another scenario's entry copied under this scenario's name: the
        # manifest names the other fingerprint, so it must not be served.
        other = small_config.with_seed(small_config.seed + 1)
        foreign = CheckpointStore(cache.run_dir.parent / "foreign")
        foreign.save(self.key(other, "telescope"), ["not", "this", "run"])
        key = self.key(small_config, "telescope")
        shutil.copyfile(
            foreign.payload_path(self.key(other, "telescope")),
            cache.payload_path(key),
        )
        shutil.copyfile(
            foreign.manifest_path(self.key(other, "telescope")),
            cache.manifest_path(key),
        )
        self.assert_recomputed_once(small_config, cache, cold, "telescope")

    def test_schema_skew_is_a_miss(self, cold, cache, small_config):
        manifest_path = cache.manifest_path(self.key(small_config, "honeypot"))
        document = json.loads(manifest_path.read_text())
        document["schema_version"] = 999
        manifest_path.write_text(json.dumps(document))
        self.assert_recomputed_once(small_config, cache, cold, "honeypot")

    def test_warm_run_hits_and_matches(self, tmp_path, small_config):
        cache_dir = tmp_path / "cache"
        cold = ResilientPipeline(small_config, stage_cache=cache_dir).run()
        warm = ResilientPipeline(small_config, stage_cache=cache_dir).run()
        assert warm.fused.combined.events == cold.fused.combined.events
        warm_status = {
            s.name: s.status for s in warm.quality.stages
        }
        for stage in OBSERVATION_STAGES:
            assert warm_status[stage] == "cache-hit"
        assert all(
            s.status == "ok" for s in cold.quality.stages
        )

    def test_faulted_plan_bypasses_cache(self, tmp_path, small_config):
        plan = FaultPlan.standard(
            small_config.n_days, n_honeypots=small_config.n_honeypots
        )
        cache_dir = tmp_path / "cache"
        ResilientPipeline(
            small_config, plan=plan, stage_cache=cache_dir
        ).run()
        assert list(cache_dir.glob("**/*.manifest.json")) == []


class TestStageCacheCLI:
    """Crash mid-run with the cache enabled, resume, then re-run warm."""

    @staticmethod
    def run_cli(*args, check_rc=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--preset", "small", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
            timeout=300,
        )
        if check_rc is not None:
            assert proc.returncode == check_rc, proc.stderr
        return proc

    def test_resume_fills_cache_and_warm_run_hits(self, tmp_path):
        cache = tmp_path / "cache"
        crash_dir = tmp_path / "run_crash"
        warm_dir = tmp_path / "run_warm"
        # Crash right after the attacks stage: no observation stage has
        # run yet, so the cache is still cold.
        self.run_cli(
            "simulate", "--run-dir", str(crash_dir),
            "--stage-cache", str(cache), "--crash-after", "attacks",
            check_rc=137,
        )
        assert list(cache.glob("**/*.manifest.json")) == []
        # Resume finishes the run and publishes the observation stages.
        self.run_cli("resume", str(crash_dir), check_rc=0)
        cached = {
            entry.rpartition("-")[0]
            for entry in CheckpointStore(cache).stages()
        }
        assert set(OBSERVATION_STAGES) <= cached
        # A second run dir starts cold but serves them from the cache.
        self.run_cli(
            "simulate", "--run-dir", str(warm_dir),
            "--stage-cache", str(cache), "--metrics", check_rc=0,
        )
        quality = json.loads((warm_dir / "quality.json").read_text())
        statuses = {s["name"]: s["status"] for s in quality["stages"]}
        for stage in OBSERVATION_STAGES:
            assert statuses[stage] == "cache-hit"
        metrics = json.loads(
            (warm_dir / "metrics.json").read_text()
        )["metrics"]
        hits = sum(
            series["value"]
            for series in metrics["stage_cache_hits_total"]["series"]
        )
        assert hits == len(OBSERVATION_STAGES)
        assert (warm_dir / "events.jsonl").read_bytes() == (
            crash_dir / "events.jsonl"
        ).read_bytes()
