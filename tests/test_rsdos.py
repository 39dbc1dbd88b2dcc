"""Unit tests for the RSDoS detector (Moore et al. methodology)."""

import pytest

from repro.net.packet import (
    ICMP_DEST_UNREACH,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    PacketBatch,
    TCP_ACK,
    TCP_SYN,
)
from repro.telescope.rsdos import RSDoSConfig, TELESCOPE_SCALE_FACTOR
from tests.detection_oracle import RSDoSDetector


def backscatter(ts, src=1, count=40, ports=(80,)):
    return PacketBatch(
        timestamp=ts, src=src, proto=PROTO_TCP, count=count, bytes=count * 54,
        distinct_dsts=count, src_ports=frozenset(ports),
        tcp_flags=TCP_SYN | TCP_ACK,
    )


def scan(ts, src=2, count=100):
    return PacketBatch(
        timestamp=ts, src=src, proto=PROTO_TCP, count=count, bytes=count * 40,
        distinct_dsts=count, tcp_flags=TCP_SYN,
    )


def run(batches, config=RSDoSConfig()):
    return list(RSDoSDetector(config).run(iter(batches)))


class TestClassificationFilters:
    def test_valid_attack_detected(self):
        events = run([backscatter(0.0), backscatter(65.0)])
        assert len(events) == 1
        event = events[0]
        assert event.victim == 1
        assert event.packets == 80
        assert event.duration == 65.0

    def test_scan_traffic_ignored(self):
        events = run([scan(0.0), scan(65.0), scan(130.0)])
        assert events == []

    def test_too_few_packets_discarded(self):
        events = run([backscatter(0.0, count=10), backscatter(65.0, count=10)])
        assert events == []

    def test_too_short_discarded(self):
        events = run([backscatter(0.0), backscatter(30.0)])
        assert events == []

    def test_too_slow_discarded(self):
        # 29 packets max in one minute = 0.48 pps < 0.5 pps threshold.
        events = run(
            [backscatter(t, count=1) for t in range(0, 290, 10)]
        )
        assert events == []

    def test_exactly_at_thresholds_kept(self):
        config = RSDoSConfig()
        # 30 packets in minute 0 (0.5 pps), 60 s duration, 35 packets total.
        events = run(
            [backscatter(0.0, count=30), backscatter(60.0, count=5)], config
        )
        assert len(events) == 1

    def test_counters(self):
        detector = RSDoSDetector()
        for batch in [scan(0.0), backscatter(0.0, count=3)]:
            detector.process(batch)
        detector.flush()
        assert detector.batches_seen == 2
        assert detector.backscatter_batches == 1
        assert detector.flows_discarded == 1


class TestEventAttributes:
    def test_max_pps_and_victim_estimate(self):
        events = run([backscatter(0.0, count=120), backscatter(80.0, count=30)])
        event = events[0]
        assert event.max_ppm == 120
        assert event.max_pps == pytest.approx(2.0)
        assert event.estimated_victim_pps == pytest.approx(
            2.0 * TELESCOPE_SCALE_FACTOR
        )

    def test_single_vs_multi_port(self):
        single = run([backscatter(0.0), backscatter(65.0)])[0]
        multi = run(
            [backscatter(0.0, ports=(80,)), backscatter(65.0, ports=(443,))]
        )[0]
        assert single.single_port
        assert not multi.single_port
        assert multi.ports == (80, 443)

    def test_attack_proto_from_quoted_packet(self):
        batches = [
            PacketBatch(
                timestamp=t, src=5, proto=PROTO_ICMP, count=40, bytes=40 * 54,
                distinct_dsts=40, icmp_type=ICMP_DEST_UNREACH,
                quoted_proto=PROTO_UDP,
            )
            for t in (0.0, 70.0)
        ]
        events = run(batches)
        assert events[0].ip_proto == PROTO_UDP

    def test_two_attacks_same_victim_split_by_timeout(self):
        first = [backscatter(0.0), backscatter(65.0)]
        second = [backscatter(1000.0), backscatter(1070.0)]
        events = run(first + second)
        assert len(events) == 2

    def test_concurrent_victims_tracked_independently(self):
        batches = sorted(
            [backscatter(t, src=1) for t in (0.0, 65.0)]
            + [backscatter(t, src=2, count=100) for t in (10.0, 80.0)],
            key=lambda b: b.timestamp,
        )
        events = run(batches)
        assert {e.victim for e in events} == {1, 2}
        by_victim = {e.victim: e for e in events}
        assert by_victim[2].packets == 200


class TestConfigurability:
    def test_custom_thresholds(self):
        lenient = RSDoSConfig(min_packets=5, min_duration=10.0, min_max_pps=0.01)
        events = run(
            [backscatter(0.0, count=3), backscatter(15.0, count=3)], lenient
        )
        assert len(events) == 1

    def test_flow_timeout_controls_event_granularity(self):
        batches = [backscatter(0.0), backscatter(65.0),
                   backscatter(500.0), backscatter(565.0)]
        default = run(batches)  # 300 s timeout -> gap of 435 s splits
        merged = run(batches, RSDoSConfig(flow_timeout=600.0))
        assert len(default) == 2
        assert len(merged) == 1
