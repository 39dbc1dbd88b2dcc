"""Unit tests for the sketch tier: primitives, detectors, merges, dispatch.

The streaming-sketch engine trades exactness for throughput; these tests
pin the parts that must stay exact anyway — seeded determinism, merge
algebra (disjoint / overlapping / empty shards), the sharded-equals-
serial identity the pipeline relies on, zero-event edge cases, and the
``exact | sketch`` tier dispatch plumbing.
"""

from __future__ import annotations

import random

import pytest

from repro.honeypot.amppot import RequestBatch
from repro.honeypot.columnar import RequestColumns
from repro.honeypot.detection import (
    DetectionConfig,
    HoneypotDetector,
    HoneypotSketch,
    detect_sketch as detect_honeypot_sketch,
)
from repro.net.columnar import PacketColumns
from repro.net.packet import PROTO_ICMP, PROTO_TCP, PacketBatch
from repro.pipeline.simulation import (
    DETECT_TIERS,
    detect_honeypot_shard,
    detect_telescope_shard,
    honeypot_capture,
    merge_honeypot_shards,
    merge_telescope_shards,
    observe_honeypots,
    observe_telescope,
    telescope_capture,
)
from repro.sketch import (
    CountMinSketch,
    FlowSketch,
    HyperLogLog,
    SketchConfig,
    SpaceSaving,
    mix64,
)
from repro.telescope.rsdos import (
    RSDoSConfig,
    RSDoSDetector,
    TelescopeSketch,
    detect_sketch as detect_telescope_sketch,
)


# -- hashing ------------------------------------------------------------------


class TestHashing:
    def test_mix64_is_deterministic(self):
        assert mix64(12345) == mix64(12345)
        assert mix64(12345, tweak=7) == mix64(12345, tweak=7)

    def test_mix64_tweak_changes_digest(self):
        assert mix64(12345) != mix64(12345, tweak=7)

    def test_mix64_stays_in_64_bits(self):
        for key in (0, 1, 2**32, 2**63, 2**64 - 1):
            assert 0 <= mix64(key) < 2**64


# -- count-min ----------------------------------------------------------------


class TestCountMinSketch:
    def test_never_underestimates(self):
        rng = random.Random(7)
        sketch = CountMinSketch(width=512, depth=4, seed=3)
        truth = {}
        for _ in range(5_000):
            key = rng.randrange(2_000)
            truth[key] = truth.get(key, 0) + 1
            sketch.update(key)
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_error_within_bound(self):
        rng = random.Random(11)
        sketch = CountMinSketch(width=2048, depth=4, seed=1)
        truth = {}
        for _ in range(20_000):
            key = rng.randrange(500)
            truth[key] = truth.get(key, 0) + 1
            sketch.update(key)
        bound = sketch.error_bound()
        for key, count in truth.items():
            assert sketch.estimate(key) - count <= bound

    def test_conservative_update_is_tighter(self):
        rng = random.Random(13)
        keys = [rng.randrange(400) for _ in range(20_000)]
        plain = CountMinSketch(width=256, depth=4, seed=2)
        conservative = CountMinSketch(
            width=256, depth=4, seed=2, conservative=True
        )
        truth = {}
        for key in keys:
            truth[key] = truth.get(key, 0) + 1
            plain.update(key)
            conservative.update(key)
        plain_error = sum(plain.estimate(k) - c for k, c in truth.items())
        cons_error = sum(
            conservative.estimate(k) - c for k, c in truth.items()
        )
        for key, count in truth.items():
            assert conservative.estimate(key) >= count
        assert cons_error <= plain_error

    def test_update_columns_matches_loop(self):
        keys = [5, 9, 5, 11]
        counts = [2, 3, 4, 1]
        batch = CountMinSketch(width=128, depth=3, seed=5)
        loop = CountMinSketch(width=128, depth=3, seed=5)
        batch.update_columns(keys, counts)
        for key, count in zip(keys, counts):
            loop.update(key, count)
        for key in keys:
            assert batch.estimate(key) == loop.estimate(key)

    def test_update_columns_length_mismatch(self):
        sketch = CountMinSketch(width=64, depth=2)
        with pytest.raises(ValueError):
            sketch.update_columns([1, 2], [3])

    def test_merge_equals_single_stream(self):
        rng = random.Random(17)
        keys = [rng.randrange(300) for _ in range(4_000)]
        whole = CountMinSketch(width=512, depth=4, seed=9)
        left = CountMinSketch(width=512, depth=4, seed=9)
        right = CountMinSketch(width=512, depth=4, seed=9)
        for i, key in enumerate(keys):
            whole.update(key)
            (left if i % 2 else right).update(key)
        left.merge(right)
        for key in set(keys):
            assert left.estimate(key) == whole.estimate(key)

    def test_merge_rejects_geometry_mismatch(self):
        a = CountMinSketch(width=512, depth=4, seed=1)
        for other in (
            CountMinSketch(width=256, depth=4, seed=1),
            CountMinSketch(width=512, depth=2, seed=1),
            CountMinSketch(width=512, depth=4, seed=2),
        ):
            with pytest.raises(ValueError):
                a.merge(other)

    def test_fill_ratio_grows(self):
        sketch = CountMinSketch(width=64, depth=2, seed=0)
        assert sketch.fill_ratio() == 0.0
        sketch.update(1)
        assert 0.0 < sketch.fill_ratio() <= 1.0


# -- hyperloglog --------------------------------------------------------------


class TestHyperLogLog:
    def test_empty_cardinality_is_zero(self):
        assert HyperLogLog(p=12).cardinality() == 0.0

    def test_estimate_within_published_error(self):
        hll = HyperLogLog(p=12, seed=4)
        n = 50_000
        for key in range(n):
            hll.add(key)
        # 1.04/sqrt(2^12) ~ 1.6%; allow 4 sigma.
        assert abs(hll.cardinality() - n) / n < 0.065

    def test_duplicates_do_not_inflate(self):
        hll = HyperLogLog(p=10, seed=1)
        for _ in range(100):
            hll.add(42)
        assert hll.cardinality() == pytest.approx(1.0, abs=0.5)

    def test_merge_equals_union(self):
        union = HyperLogLog(p=11, seed=6)
        left = HyperLogLog(p=11, seed=6)
        right = HyperLogLog(p=11, seed=6)
        for key in range(3_000):
            union.add(key)
            (left if key % 2 else right).add(key)
        left.merge(right)
        assert left.cardinality() == union.cardinality()

    def test_merge_rejects_mismatch(self):
        with pytest.raises(ValueError):
            HyperLogLog(p=10, seed=1).merge(HyperLogLog(p=11, seed=1))
        with pytest.raises(ValueError):
            HyperLogLog(p=10, seed=1).merge(HyperLogLog(p=10, seed=2))

    def test_precision_bounds(self):
        with pytest.raises(ValueError):
            HyperLogLog(p=3)
        with pytest.raises(ValueError):
            HyperLogLog(p=19)


# -- space-saving -------------------------------------------------------------


class TestSpaceSaving:
    def test_exact_below_capacity(self):
        summary = SpaceSaving(capacity=16)
        for key, count in [(1, 10), (2, 5), (1, 3), (3, 1)]:
            summary.update(key, count)
        assert summary.top(3) == [(1, 13, 0), (2, 5, 0), (3, 1, 0)]

    def test_heavy_hitters_survive_eviction(self):
        rng = random.Random(23)
        summary = SpaceSaving(capacity=32)
        truth = {}
        # Zipf-ish: a few heavy keys among a long random tail.
        for _ in range(20_000):
            key = rng.randrange(10) if rng.random() < 0.7 else rng.randrange(
                10_000
            )
            truth[key] = truth.get(key, 0) + 1
            summary.update(key)
        top = {key for key, _, _ in summary.top(10)}
        true_top = {
            key
            for key, _ in sorted(
                truth.items(), key=lambda kv: (-kv[1], kv[0])
            )[:10]
        }
        assert true_top <= top

    def test_counts_are_upper_bounds(self):
        rng = random.Random(29)
        summary = SpaceSaving(capacity=8)
        truth = {}
        for _ in range(2_000):
            key = rng.randrange(100)
            truth[key] = truth.get(key, 0) + 1
            summary.update(key)
        for key, count, error in summary.top(8):
            assert count >= truth.get(key, 0)
            assert error <= count

    def test_merge_equals_single_stream_below_capacity(self):
        whole = SpaceSaving(capacity=64)
        left = SpaceSaving(capacity=64)
        right = SpaceSaving(capacity=64)
        for i in range(40):
            whole.update(i, i + 1)
            (left if i % 2 else right).update(i, i + 1)
        left.merge(right)
        assert left.top(40) == whole.top(40)

    def test_merge_overlapping_sums_counts(self):
        left = SpaceSaving(capacity=16)
        right = SpaceSaving(capacity=16)
        left.update(7, 10)
        right.update(7, 5)
        left.merge(right)
        assert left.top(1) == [(7, 15, 0)]

    def test_merge_empty_is_identity(self):
        summary = SpaceSaving(capacity=8)
        summary.update(1, 4)
        summary.merge(SpaceSaving(capacity=8))
        assert summary.top(1) == [(1, 4, 0)]
        empty = SpaceSaving(capacity=8)
        empty.merge(summary)
        assert empty.top(1) == [(1, 4, 0)]


# -- flow sketch (heavy table + spill + hll) ---------------------------------


def _combine_max(mine, theirs):
    for i, value in enumerate(theirs):
        mine[i] = max(mine[i], value)


class TestFlowSketch:
    def test_no_eviction_below_capacity(self):
        sketch = FlowSketch(SketchConfig(capacity=8, seed=1), count_slot=0)
        for key in range(8):
            sketch.admit(key, [key])
        assert sketch.evictions == 0
        assert len(sketch.heavy) == 8

    def test_eviction_spills_min_count(self):
        sketch = FlowSketch(SketchConfig(capacity=2, seed=1), count_slot=0)
        sketch.admit(1, [10])
        sketch.admit(2, [20])
        sketch.admit(3, [30])  # evicts key 1 (count 10) into the spill
        assert sketch.evictions == 1
        assert 1 not in sketch.heavy
        assert sketch.estimate(1) >= 10  # spill keeps an upper bound
        assert sketch.estimate(2) == 20
        assert sketch.estimate(3) == 30

    def test_cardinality_counts_admissions(self):
        sketch = FlowSketch(SketchConfig(capacity=4, seed=2), count_slot=0)
        for key in range(200):
            sketch.admit(key, [1])
        assert abs(sketch.cardinality() - 200) / 200 < 0.2


# -- synthetic captures -------------------------------------------------------


def packet(ts, src=1, proto=PROTO_TCP, count=30, distinct=10):
    # SYN+ACK for TCP, echo-reply for ICMP: both backscatter signatures.
    return PacketBatch(
        timestamp=ts, src=src, proto=proto, count=count,
        bytes=count * 40, distinct_dsts=distinct,
        tcp_flags=0x12 if proto == PROTO_TCP else 0,
        icmp_type=0 if proto == PROTO_ICMP else -1,
    )


def request(ts, victim=1, honeypot=0, protocol="NTP", count=60):
    return RequestBatch(
        timestamp=ts, victim=victim, honeypot_id=honeypot,
        protocol=protocol, count=count,
    )


def telescope_columns(batches):
    return PacketColumns.from_batches(batches)


def request_columns(batches):
    return RequestColumns.from_batches(batches)


# -- zero-event edges ---------------------------------------------------------


class TestZeroEventEdges:
    def test_telescope_exact_empty(self):
        assert list(RSDoSDetector(RSDoSConfig()).run([])) == []

    def test_honeypot_exact_empty(self):
        assert list(HoneypotDetector(DetectionConfig()).run([])) == []

    def test_telescope_sketch_empty(self):
        summary = detect_telescope_sketch(
            RSDoSConfig(), telescope_columns([]),
            sketch_config=SketchConfig(),
        )
        assert summary.events() == []
        assert summary.cardinality() == 0.0
        assert summary.sketch.rows == 0

    def test_honeypot_sketch_empty(self):
        summary = detect_honeypot_sketch(
            DetectionConfig(), request_columns([]),
            sketch_config=SketchConfig(),
        )
        assert summary.events() == []
        assert summary.sketch.rows == 0

    def test_telescope_sketch_all_below_threshold(self):
        # One lone packet batch: below min_packets, never an event.
        summary = detect_telescope_sketch(
            RSDoSConfig(), telescope_columns([packet(0.0, count=1)]),
            sketch_config=SketchConfig(),
        )
        assert summary.events() == []

    def test_honeypot_sketch_all_below_threshold(self):
        summary = detect_honeypot_sketch(
            DetectionConfig(), request_columns([request(0.0, count=1)]),
            sketch_config=SketchConfig(),
        )
        assert summary.events() == []


# -- sketch summary merges ----------------------------------------------------


def _telescope_summary(batches, config=None):
    return detect_telescope_sketch(
        RSDoSConfig(), telescope_columns(batches),
        sketch_config=config or SketchConfig(),
    )


def _honeypot_summary(batches, config=None):
    return detect_honeypot_sketch(
        DetectionConfig(), request_columns(batches),
        sketch_config=config or SketchConfig(),
    )


def _flood(victim, t0=0.0, n=30):
    """Enough batches for one telescope event (25+ pkts, 60+ s)."""
    return [packet(t0 + 10.0 * i, src=victim) for i in range(n)]


def _requests(victim, protocol="NTP", t0=0.0, n=5):
    return [
        request(t0 + 60.0 * i, victim=victim, protocol=protocol)
        for i in range(n)
    ]


class TestSketchMerge:
    def test_disjoint_telescope_shards(self):
        merged = TelescopeSketch.merge_all(
            [_telescope_summary(_flood(1)), _telescope_summary(_flood(2))]
        )
        combined = _telescope_summary(_flood(1) + _flood(2))
        assert merged.events() == combined.events()

    def test_overlapping_telescope_shards(self):
        batches = _flood(1, n=40)
        merged = TelescopeSketch.merge_all(
            [
                _telescope_summary(batches[:20]),
                _telescope_summary(batches[20:]),
            ]
        )
        assert merged.events() == _telescope_summary(batches).events()

    def test_empty_telescope_shard_is_identity(self):
        merged = TelescopeSketch.merge_all(
            [_telescope_summary(_flood(9)), _telescope_summary([])]
        )
        assert merged.events() == _telescope_summary(_flood(9)).events()

    def test_disjoint_honeypot_shards(self):
        merged = HoneypotSketch.merge_all(
            [
                _honeypot_summary(_requests(1)),
                _honeypot_summary(_requests(2)),
            ]
        )
        combined = _honeypot_summary(_requests(1) + _requests(2))
        assert merged.events() == combined.events()

    def test_overlapping_honeypot_shards(self):
        batches = _requests(1, n=10)
        merged = HoneypotSketch.merge_all(
            [_honeypot_summary(batches[:5]), _honeypot_summary(batches[5:])]
        )
        assert merged.events() == _honeypot_summary(batches).events()

    def test_empty_honeypot_shard_is_identity(self):
        merged = HoneypotSketch.merge_all(
            [_honeypot_summary([]), _honeypot_summary(_requests(3))]
        )
        assert merged.events() == _honeypot_summary(_requests(3)).events()

    def test_honeypot_protocol_mismatch_rejected(self):
        ntp = _honeypot_summary(_requests(1, protocol="NTP"))
        dns = _honeypot_summary(_requests(1, protocol="DNS"))
        with pytest.raises(ValueError):
            ntp.merge(dns)

    def test_telescope_proto_split_prefers_majority(self):
        batches = [packet(10.0 * i, src=5, proto=PROTO_ICMP) for i in range(20)]
        batches += [
            packet(200.0 + 10.0 * i, src=5, proto=PROTO_TCP)
            for i in range(10)
        ]
        events = _telescope_summary(batches).events()
        assert len(events) == 1
        assert events[0].ip_proto == PROTO_ICMP


# -- sharded == serial over real scenario captures ----------------------------


class TestShardIdentity:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_telescope_sharded_equals_serial(
        self, small_config, sim, n_shards
    ):
        capture = telescope_capture(small_config, sim.ground_truth)
        serial = merge_telescope_shards(
            [detect_telescope_shard(small_config, capture, 0, 1, "sketch")]
        )
        sharded = merge_telescope_shards(
            [
                detect_telescope_shard(
                    small_config, capture, shard, n_shards, "sketch"
                )
                for shard in range(n_shards)
            ]
        )
        assert sharded == serial

    @pytest.mark.parametrize("n_shards", [3])
    def test_honeypot_sharded_equals_serial(
        self, small_config, sim, n_shards
    ):
        request_log = honeypot_capture(small_config, sim.ground_truth)
        serial = merge_honeypot_shards(
            [detect_honeypot_shard(small_config, request_log, 0, 1, "sketch")]
        )
        sharded = merge_honeypot_shards(
            [
                detect_honeypot_shard(
                    small_config, request_log, shard, n_shards, "sketch"
                )
                for shard in range(n_shards)
            ]
        )
        assert sharded == serial

    def test_telescope_sketch_recall_vs_exact(self, small_config, sim):
        capture = telescope_capture(small_config, sim.ground_truth)
        rsdos = small_config.rsdos_config()
        exact = list(RSDoSDetector(rsdos).run(capture))
        summary = detect_telescope_sketch(
            rsdos,
            telescope_columns(capture),
            sketch_config=small_config.sketch_config(),
        )
        exact_victims = {event.victim for event in exact}
        sketch_victims = {event.victim for event in summary.events()}
        assert exact_victims <= sketch_victims

    def test_honeypot_sketch_recall_vs_exact(self, small_config, sim):
        request_log = honeypot_capture(small_config, sim.ground_truth)
        detection = small_config.honeypot_detection_config()
        exact = list(HoneypotDetector(detection).run(request_log))
        summary = detect_honeypot_sketch(
            detection,
            request_columns(request_log),
            sketch_config=small_config.sketch_config(),
        )
        exact_pairs = {(e.victim, e.protocol) for e in exact}
        sketch_pairs = {(e.victim, e.protocol) for e in summary.events()}
        assert exact_pairs <= sketch_pairs


# -- tier dispatch ------------------------------------------------------------


class TestTierDispatch:
    def test_tiers_registry(self):
        assert DETECT_TIERS == ("exact", "sketch")

    def test_shard_rejects_unknown_tier_sorted(self, small_config):
        with pytest.raises(ValueError) as excinfo:
            detect_telescope_shard(small_config, [], 0, 1, "bogus")
        message = str(excinfo.value)
        assert "bogus" in message
        assert "exact, sketch" in message

    def test_observe_telescope_tiers_agree(self, small_config, sim):
        exact = observe_telescope(
            small_config, sim.ground_truth, detect_tier="exact"
        )
        sketch = observe_telescope(
            small_config, sim.ground_truth, detect_tier="sketch"
        )
        assert {e.victim for e in exact} <= {e.victim for e in sketch}

    def test_observe_honeypots_sketch_tier(self, small_config, sim):
        exact = observe_honeypots(
            small_config, sim.ground_truth, detect_tier="exact"
        )
        sketch = observe_honeypots(
            small_config, sim.ground_truth, detect_tier="sketch"
        )
        exact_pairs = {(e.victim, e.protocol) for e in exact}
        sketch_pairs = {(e.victim, e.protocol) for e in sketch}
        assert exact_pairs <= sketch_pairs

    def test_runner_rejects_unknown_tier(self, tmp_path, small_config):
        from repro.pipeline.runner import ResilientPipeline

        with pytest.raises(ValueError) as excinfo:
            ResilientPipeline(
                small_config, tmp_path, detect_tier="bogus"
            )
        assert "exact, sketch" in str(excinfo.value)
