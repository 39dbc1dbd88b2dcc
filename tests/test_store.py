"""Unit tests for the durable checkpoint store and atomic file primitives."""

import json
import os
from random import Random

import pytest

from repro.store.atomic import atomic_write_bytes, atomic_write_text
from repro.store.checkpoint import (
    STORE_SCHEMA_VERSION,
    CheckpointCorruptionError,
    CheckpointMissingError,
    CheckpointStore,
    CheckpointVersionError,
    UNSIZED,
)

ORDER = ("alpha", "beta", "gamma")
#: A linear dependency chain: alpha <- beta <- gamma.
CHAIN = {"alpha": (), "beta": ("alpha",), "gamma": ("beta",)}


@pytest.fixture
def store(tmp_path):
    return CheckpointStore(tmp_path / "run")


class TestAtomicWrite:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"\x00\x01payload")
        assert path.read_bytes() == b"\x00\x01payload"
        atomic_write_text(path, "text now")
        assert path.read_text() == "text now"

    def test_failed_replace_cleans_temp(self, tmp_path, monkeypatch):
        def boom(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "replace", boom)
        path = tmp_path / "blob.bin"
        with pytest.raises(OSError):
            atomic_write_bytes(path, b"data")
        assert list(tmp_path.iterdir()) == []

    def test_successful_replace_never_unlinks_foreign_temp(
        self, tmp_path, monkeypatch
    ):
        """A concurrent writer's fresh temp file survives our cleanup."""
        real_replace = os.replace
        path = tmp_path / "blob.bin"
        tmp = tmp_path / "blob.bin.tmp"

        def replace_then_race(src, dst):
            real_replace(src, dst)
            tmp.write_bytes(b"concurrent writer's temp")

        monkeypatch.setattr(os, "replace", replace_then_race)
        atomic_write_bytes(path, b"ours")
        assert path.read_bytes() == b"ours"
        assert tmp.read_bytes() == b"concurrent writer's temp"


class TestSaveLoad:
    def test_roundtrip_with_manifest(self, store):
        payload = {"events": list(range(100))}
        manifest = store.save("alpha", payload)
        assert manifest.schema_version == STORE_SCHEMA_VERSION
        assert manifest.payload_bytes > 0
        assert len(manifest.sha256) == 64
        assert manifest.record_count == 1  # dict of one key
        assert store.load("alpha") == payload

    def test_record_count_shapes(self, store):
        assert store.save("a", [1, 2, 3]).record_count == 3
        assert store.save("b", ([1, 2], [3])).record_count == 3
        assert store.save("c", 42).record_count == UNSIZED
        assert store.save("d", ([1], 5)).record_count == UNSIZED

    def test_missing_checkpoint(self, store):
        assert not store.has("alpha")
        with pytest.raises(CheckpointMissingError):
            store.load("alpha")

    def test_manifest_without_payload(self, store):
        store.save("alpha", [1])
        store.payload_path("alpha").unlink()
        with pytest.raises(CheckpointMissingError):
            store.load("alpha")

    def test_discard_and_stages(self, store):
        store.save("alpha", [1])
        store.save("beta", [2])
        assert store.stages() == ["alpha", "beta"]
        store.discard("alpha")
        assert store.stages() == ["beta"]
        store.discard("alpha")  # idempotent

    def test_overwrite_updates_manifest(self, store):
        first = store.save("alpha", [1])
        second = store.save("alpha", [1, 2, 3, 4])
        assert second.sha256 != first.sha256
        assert store.load("alpha") == [1, 2, 3, 4]


class TestCorruptionDetection:
    def test_any_single_byte_corruption_detected(self, store):
        """Property: save -> corrupt one byte -> load raises, never lies."""
        payload = {"records": [(i, i * 3.5) for i in range(200)]}
        store.save("alpha", payload)
        path = store.payload_path("alpha")
        pristine = path.read_bytes()
        rng = Random(1234)
        for offset in rng.sample(range(len(pristine)), 25):
            data = bytearray(pristine)
            data[offset] ^= 1 << rng.randint(0, 7)
            path.write_bytes(bytes(data))
            with pytest.raises(CheckpointCorruptionError):
                store.load("alpha")
        path.write_bytes(pristine)
        assert store.load("alpha") == payload

    def test_truncated_payload_detected(self, store):
        store.save("alpha", list(range(1000)))
        path = store.payload_path("alpha")
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointCorruptionError):
            store.load("alpha")

    def test_garbage_manifest_detected(self, store):
        store.save("alpha", [1])
        store.manifest_path("alpha").write_text("{not json")
        with pytest.raises(CheckpointCorruptionError):
            store.load("alpha")

    def test_version_skew_detected(self, store):
        store.save("alpha", [1])
        manifest_path = store.manifest_path("alpha")
        data = json.loads(manifest_path.read_text())
        data["schema_version"] = STORE_SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(CheckpointVersionError):
            store.load("alpha")


def _corrupt(store, stage):
    path = store.payload_path(stage)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestValidPrefix:
    """``load_valid_graph`` over a linear chain restores a valid prefix."""

    def test_full_prefix(self, store):
        for i, stage in enumerate(ORDER):
            store.save(stage, [i])
        payloads, issues = store.load_valid_graph(ORDER, CHAIN)
        assert list(payloads) == list(ORDER)
        assert issues == []

    def test_stops_at_first_gap_and_discards_orphans(self, store):
        store.save("alpha", [0])
        store.save("gamma", [2])  # beta missing: gamma is untrustworthy
        payloads, issues = store.load_valid_graph(ORDER, CHAIN)
        assert list(payloads) == ["alpha"]
        assert [(i.stage, i.kind) for i in issues] == [("gamma", "orphaned")]
        assert not store.has("gamma")

    def test_corrupt_checkpoint_falls_back_to_previous_stage(self, store):
        for i, stage in enumerate(ORDER):
            store.save(stage, [i])
        _corrupt(store, "beta")
        payloads, issues = store.load_valid_graph(ORDER, CHAIN)
        assert list(payloads) == ["alpha"]
        kinds = {issue.stage: issue.kind for issue in issues}
        assert kinds == {"beta": "corrupt", "gamma": "orphaned"}
        # Both rejected checkpoints are gone; alpha remains trustworthy.
        assert store.stages() == ["alpha"]

    def test_empty_store(self, store):
        payloads, issues = store.load_valid_graph(ORDER, CHAIN)
        assert payloads == {} and issues == []

    def test_corrupt_stage_spares_independent_sibling(self, store):
        order = ORDER + ("delta",)
        deps = dict(CHAIN, delta=("alpha",))  # delta never reads beta
        for i, stage in enumerate(order):
            store.save(stage, [i])
        _corrupt(store, "beta")
        payloads, issues = store.load_valid_graph(order, deps)
        assert payloads == {"alpha": [0], "delta": [3]}
        kinds = {issue.stage: issue.kind for issue in issues}
        assert kinds == {"beta": "corrupt", "gamma": "orphaned"}
        assert store.stages() == ["alpha", "delta"]


class TestRunDocuments:
    def test_json_roundtrip(self, store):
        store.write_json("meta.json", {"preset": "small", "seed": 7})
        assert store.read_json("meta.json") == {"preset": "small", "seed": 7}

    def test_missing_or_garbage_reads_none(self, store):
        assert store.read_json("absent.json") is None
        (store.run_dir / "bad.json").write_text("{oops")
        assert store.read_json("bad.json") is None
