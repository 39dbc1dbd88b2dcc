"""Unit tests for honeypot event extraction."""

import pytest

from repro.honeypot.amppot import RequestBatch
from repro.honeypot.detection import AmpPotEvent, DetectionConfig
from tests.detection_oracle import HoneypotDetector


def batch(ts, victim=1, honeypot=0, protocol="NTP", count=60):
    return RequestBatch(
        timestamp=ts, victim=victim, honeypot_id=honeypot,
        protocol=protocol, count=count,
    )


def run(batches, config=DetectionConfig()):
    return list(HoneypotDetector(config).run(iter(batches)))


class TestEventExtraction:
    def test_flood_becomes_event(self):
        events = run([batch(0.0), batch(60.0), batch(120.0)])
        assert len(events) == 1
        event = events[0]
        assert event.victim == 1
        assert event.requests == 180
        assert event.protocol == "NTP"

    def test_scan_below_threshold_dropped(self):
        events = run([batch(0.0, count=50), batch(60.0, count=50)])
        assert events == []  # exactly 100 requests is not > 100

    def test_gap_splits_events(self):
        config = DetectionConfig(gap_timeout=600.0)
        events = run(
            [batch(0.0), batch(60.0), batch(2000.0), batch(2060.0)], config
        )
        assert len(events) == 2

    def test_multiple_honeypots_merged(self):
        events = run(
            [batch(0.0, honeypot=0), batch(1.0, honeypot=1),
             batch(60.0, honeypot=2)]
        )
        assert len(events) == 1
        assert events[0].honeypots == 3

    def test_protocols_kept_separate(self):
        events = run(
            [batch(0.0, protocol="NTP"), batch(1.0, protocol="DNS"),
             batch(60.0, protocol="NTP"), batch(61.0, protocol="DNS")]
        )
        assert len(events) == 2
        assert {e.protocol for e in events} == {"NTP", "DNS"}

    def test_victims_kept_separate(self):
        events = run(
            [batch(0.0, victim=1), batch(1.0, victim=2),
             batch(60.0, victim=1), batch(61.0, victim=2)]
        )
        assert {e.victim for e in events} == {1, 2}

    def test_duration_cap_at_24h(self):
        config = DetectionConfig(gap_timeout=7200.0)
        batches = [batch(t * 3600.0, count=200) for t in range(30)]
        events = run(batches, config)
        assert len(events) >= 2
        assert all(e.duration <= 86400.0 for e in events)

    def test_sweep_closes_idle_flows_midstream(self):
        detector = HoneypotDetector(DetectionConfig(gap_timeout=600.0))
        detector.process(batch(0.0, victim=1))
        detector.process(batch(30.0, victim=1, count=100))
        closed = detector.process(batch(5000.0, victim=2))
        assert len(closed) == 1
        assert closed[0].victim == 1


class TestIntensityMetric:
    def test_avg_rps_normalized_by_honeypots(self):
        events = run(
            [batch(0.0, honeypot=0, count=300), batch(0.5, honeypot=1, count=300),
             batch(100.0, honeypot=0, count=300), batch(100.5, honeypot=1, count=300)]
        )
        event = events[0]
        # 1200 requests over ~100 s across 2 honeypots ~ 6 req/s each.
        assert event.avg_rps == pytest.approx(
            1200 / event.duration / 2, rel=0.01
        )

    def test_short_event_duration_floor(self):
        event = AmpPotEvent(
            victim=1, start_ts=0.0, end_ts=0.5, protocol="NTP",
            requests=500, honeypots=1,
        )
        assert event.avg_rps == 500.0  # duration floored at 1 s


class TestCounters:
    def test_discarded_counter(self):
        detector = HoneypotDetector()
        detector.process(batch(0.0, count=10))
        detector.flush()
        assert detector.flows_discarded == 1
        assert detector.batches_seen == 1
