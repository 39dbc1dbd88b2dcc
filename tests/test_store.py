"""Unit tests for the durable checkpoint store and atomic file primitives."""

import errno
import hashlib
import json
import os
import pickle
import tracemalloc
from random import Random

import numpy as np

import pytest

from repro.store.atomic import atomic_write_text, atomic_writer
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
        with atomic_writer(path) as handle:
            handle.write(b"\x00\x01payload")
        assert path.read_bytes() == b"\x00\x01payload"
        atomic_write_text(path, "text now")
        assert path.read_text() == "text now"

    def test_failed_replace_cleans_temp(self, tmp_path, monkeypatch):
        def boom(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "replace", boom)
        path = tmp_path / "blob.bin"
        with pytest.raises(OSError):
            with atomic_writer(path) as handle:
                handle.write(b"data")
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
        with atomic_writer(path) as handle:
            handle.write(b"ours")
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


class _Unpicklable:
    """Fails the pickler when it gets this far into a payload."""

    def __reduce__(self):
        raise RuntimeError("cannot pickle this (injected)")


class TestStreamedSave:
    """``save`` streams the pickle through the hash into the file."""

    def test_bytes_equal_pickle_dumps(self, store):
        # Several 64 KiB frames, a large bytes object and a large numpy
        # array (both handed to the file whole), and small values.
        payload = {
            "rows": [(i, f"target-{i}", i * 0.5) for i in range(20_000)],
            "blob": bytes(range(256)) * 1024,
            "array": np.arange(100_000, dtype=np.int64),
            "tail": [None, True, 3],
        }
        manifest = store.save("alpha", payload)
        expected = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(expected) > 4 * 65536
        assert store.payload_path("alpha").read_bytes() == expected
        assert manifest.payload_bytes == len(expected)
        assert manifest.sha256 == hashlib.sha256(expected).hexdigest()
        loaded = store.load("alpha")
        assert loaded["rows"] == payload["rows"]
        assert np.array_equal(loaded["array"], payload["array"])

    def test_save_never_holds_the_whole_pickle(self, store):
        payload = [bytes([i % 256]) * 8192 for i in range(1024)]
        size = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        assert size >= 8 * 1024 * 1024
        tracemalloc.start()
        try:
            store.save("alpha", payload)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size / 4, f"peak {peak} B for a {size} B payload"
        assert store.manifest("alpha").payload_bytes == size

    def _assert_nothing_written(self, store):
        assert not store.has("alpha")
        assert list(store.checkpoint_dir.iterdir()) == []

    def test_pickling_failure_partway_leaves_nothing(self, store):
        payload = [b"x" * 200_000, list(range(50_000)), _Unpicklable()]
        with pytest.raises(RuntimeError, match="injected"):
            store.save("alpha", payload)
        self._assert_nothing_written(store)

    def test_write_failure_partway_leaves_nothing(
        self, store, full_checkpoint_disk
    ):
        full_checkpoint_disk(3 * 65536)
        payload = [(i, str(i)) for i in range(100_000)]
        with pytest.raises(OSError) as info:
            store.save("alpha", payload)
        assert info.value.errno == errno.ENOSPC
        self._assert_nothing_written(store)


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

    def test_renamed_pair_is_discarded_as_corrupt(self, store):
        for i, stage in enumerate(ORDER):
            store.save(stage, [i])
        # gamma's pair copied over beta's: valid bytes, wrong stage.
        for path in (store.payload_path, store.manifest_path):
            path("beta").write_bytes(path("gamma").read_bytes())
        payloads, issues = store.load_valid_graph(ORDER, CHAIN)
        assert payloads == {"alpha": [0]}
        kinds = {issue.stage: issue.kind for issue in issues}
        assert kinds == {"beta": "corrupt", "gamma": "orphaned"}
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
