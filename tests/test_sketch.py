"""Shard algebra and edge cases of the column-at-a-time detectors.

These contracts were first pinned on the approximate sketch tier. That
tier is gone; the pipeline's column-at-a-time path is now the exact
segmentation engine (``detect_columns`` in :mod:`repro.telescope.rsdos`
and :mod:`repro.honeypot.detection`), and the same contracts hold for
it, exactly rather than within error bounds: zero-event edge cases,
merge algebra over disjoint / overlapping / empty shards, the dominant
protocol of a mixed flow, and the identity of victim-partitioned and
whole-capture detection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.honeypot.amppot import RequestBatch
from repro.honeypot.columnar import RequestColumns
from repro.honeypot.detection import (
    DetectionConfig,
    detect_columns as detect_honeypot_columns,
)
from repro.net.columnar import PacketColumns
from repro.net.packet import PROTO_ICMP, PROTO_TCP, PacketBatch
from repro.pipeline.simulation import (
    detect_honeypot_shard,
    detect_telescope_shard,
    honeypot_capture,
    merge_honeypot_shards,
    merge_telescope_shards,
    telescope_capture,
)
from repro.telescope.rsdos import (
    RSDoSConfig,
    detect_columns as detect_telescope_columns,
)
from tests.detection_oracle import (
    HoneypotDetector,
    RSDoSDetector,
    honeypot_partitioned,
    telescope_partitioned,
)


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
    return PacketColumns.from_batches(sorted(batches, key=lambda b: b.timestamp))


def request_columns(batches):
    return RequestColumns.from_batches(sorted(batches, key=lambda b: b.timestamp))


# -- zero-event edges ---------------------------------------------------------


class TestZeroEventEdges:
    def test_telescope_exact_empty(self):
        assert list(RSDoSDetector(RSDoSConfig()).run([])) == []

    def test_honeypot_exact_empty(self):
        assert list(HoneypotDetector(DetectionConfig()).run([])) == []

    def test_telescope_sketch_empty(self):
        assert detect_telescope_columns(RSDoSConfig(), PacketColumns.empty()) == []

    def test_honeypot_sketch_empty(self):
        assert (
            detect_honeypot_columns(DetectionConfig(), RequestColumns.empty())
            == []
        )

    def test_telescope_sketch_all_below_threshold(self):
        # One lone packet batch: below min_packets, never an event.
        events = detect_telescope_columns(
            RSDoSConfig(), telescope_columns([packet(0.0, count=1)])
        )
        assert events == []

    def test_honeypot_sketch_all_below_threshold(self):
        events = detect_honeypot_columns(
            DetectionConfig(), request_columns([request(0.0, count=1)])
        )
        assert events == []


# -- shard merges -------------------------------------------------------------


def _telescope_events(batches):
    return detect_telescope_columns(RSDoSConfig(), telescope_columns(batches))


def _honeypot_events(batches):
    return detect_honeypot_columns(DetectionConfig(), request_columns(batches))


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
        merged = merge_telescope_shards(
            [_telescope_events(_flood(1)), _telescope_events(_flood(2))]
        )
        combined = _telescope_events(_flood(1) + _flood(2))
        assert len(combined) == 2
        assert merged == combined

    def test_overlapping_telescope_shards(self):
        # One flow's rows split across two column blocks: the blocks
        # concatenate back into the capture the whole flow is seen in.
        capture = telescope_columns(_flood(1, n=40))
        first = capture.take(np.arange(len(capture)) < 20)
        second = capture.take(np.arange(len(capture)) >= 20)
        rejoined = PacketColumns.concat([first, second], capture.port_sets)
        assert rejoined == capture
        events = detect_telescope_columns(RSDoSConfig(), rejoined)
        assert len(events) == 1
        assert events == _telescope_events(_flood(1, n=40))

    def test_empty_telescope_shard_is_identity(self):
        merged = merge_telescope_shards(
            [_telescope_events(_flood(9)), _telescope_events([])]
        )
        assert merged == _telescope_events(_flood(9))

    def test_disjoint_honeypot_shards(self):
        merged = merge_honeypot_shards(
            [_honeypot_events(_requests(1)), _honeypot_events(_requests(2))]
        )
        combined = _honeypot_events(_requests(1) + _requests(2))
        assert len(combined) == 2
        assert merged == combined

    def test_overlapping_honeypot_shards(self):
        # Victim-partitioned shards interleave in time; merging restores
        # the serial order of the whole log.
        batches = [
            request(30.0 * i, victim=1 + i % 2) for i in range(10)
        ]
        log = request_columns(batches)
        shards = [
            detect_honeypot_columns(
                DetectionConfig(), log.take(log.victim % 2 == index)
            )
            for index in range(2)
        ]
        serial = _honeypot_events(batches)
        assert len(serial) == 2
        assert merge_honeypot_shards(shards) == serial

    def test_empty_honeypot_shard_is_identity(self):
        merged = merge_honeypot_shards(
            [_honeypot_events([]), _honeypot_events(_requests(3))]
        )
        assert merged == _honeypot_events(_requests(3))

    def test_honeypot_protocol_mismatch_rejected(self):
        # Flows are keyed by (victim, protocol): one victim's NTP and DNS
        # floods never merge into one event.
        events = _honeypot_events(
            _requests(1, protocol="NTP") + _requests(1, protocol="DNS")
        )
        assert sorted(event.protocol for event in events) == ["DNS", "NTP"]
        assert all(event.victim == 1 for event in events)

    def test_telescope_proto_split_prefers_majority(self):
        batches = [packet(10.0 * i, src=5, proto=PROTO_ICMP) for i in range(20)]
        batches += [
            packet(200.0 + 10.0 * i, src=5, proto=PROTO_TCP)
            for i in range(10)
        ]
        events = _telescope_events(batches)
        assert len(events) == 1
        assert events[0].ip_proto == PROTO_ICMP


# -- partitioned == whole capture, over real scenario captures ----------------


class TestShardIdentity:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_telescope_sharded_equals_serial(
        self, small_config, sim, n_shards
    ):
        capture = telescope_capture(small_config, sim.ground_truth)
        serial = merge_telescope_shards(
            [detect_telescope_shard(small_config, capture)]
        )
        sharded = telescope_partitioned(small_config, capture, n_shards)
        assert serial
        assert sharded == serial

    @pytest.mark.parametrize("n_shards", [3])
    def test_honeypot_sharded_equals_serial(
        self, small_config, sim, n_shards
    ):
        request_log = honeypot_capture(small_config, sim.ground_truth)
        serial = merge_honeypot_shards(
            [detect_honeypot_shard(small_config, request_log)]
        )
        sharded = honeypot_partitioned(small_config, request_log, n_shards)
        assert serial
        assert sharded == serial

    def test_telescope_sketch_recall_vs_exact(self, small_config, sim):
        # The column-at-a-time engine recalls every streaming event, and
        # reports nothing more.
        capture = telescope_capture(small_config, sim.ground_truth)
        rsdos = small_config.rsdos_config()
        streaming = sorted(
            RSDoSDetector(rsdos).run(capture.batches()),
            key=lambda e: (e.start_ts, e.victim),
        )
        assert streaming
        assert detect_telescope_columns(rsdos, capture) == streaming

    def test_honeypot_sketch_recall_vs_exact(self, small_config, sim):
        request_log = honeypot_capture(small_config, sim.ground_truth)
        detection = small_config.honeypot_detection_config()
        streaming = sorted(
            HoneypotDetector(detection).run(request_log.batches()),
            key=lambda e: (e.start_ts, e.victim, e.protocol),
        )
        assert streaming
        assert detect_honeypot_columns(detection, request_log) == streaming
