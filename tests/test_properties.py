"""Property-based tests (hypothesis) for core data-structure invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.events import AttackEvent, SOURCE_HONEYPOT, SOURCE_TELESCOPE
from repro.dns.records import DomainTimeline, HostingState
from repro.honeypot.amppot import RequestBatch
from repro.honeypot.detection import DetectionConfig
from repro.net.packet import PROTO_TCP, PacketBatch, TCP_ACK, TCP_SYN
from repro.pipeline.datasets import event_from_dict, event_to_dict
from repro.telescope.rsdos import RSDoSConfig
from tests.detection_oracle import FlowTable, HoneypotDetector, RSDoSDetector

# -- strategies ---------------------------------------------------------------

timestamps = st.lists(
    st.floats(min_value=0.0, max_value=50_000.0),
    min_size=1,
    max_size=60,
).map(sorted)


def backscatter_batch(ts: float, src: int, count: int) -> PacketBatch:
    return PacketBatch(
        timestamp=ts,
        src=src,
        proto=PROTO_TCP,
        count=count,
        bytes=count * 54,
        distinct_dsts=count,
        src_ports=frozenset({80}),
        tcp_flags=TCP_SYN | TCP_ACK,
    )


batch_streams = st.builds(
    lambda times, seed: [
        backscatter_batch(t, random.Random(seed + i).randint(1, 3),
                          random.Random(seed - i).randint(1, 200))
        for i, t in enumerate(times)
    ],
    timestamps,
    st.integers(0, 2**20),
)


# -- flow table ---------------------------------------------------------------

class TestFlowTableProperties:
    @settings(max_examples=60, deadline=None)
    @given(batch_streams, st.floats(min_value=10.0, max_value=2000.0))
    def test_packet_conservation(self, batches, timeout):
        """Every backscatter packet lands in exactly one expired flow."""
        table = FlowTable(timeout=timeout)
        flows = []
        for batch in batches:
            flows.extend(table.add(batch))
        flows.extend(table.flush())
        assert sum(f.packets for f in flows) == sum(b.count for b in batches)

    @settings(max_examples=60, deadline=None)
    @given(batch_streams, st.floats(min_value=10.0, max_value=2000.0))
    def test_no_internal_gap_exceeds_timeout(self, batches, timeout):
        """A flow never contains an idle gap longer than the timeout."""
        table = FlowTable(timeout=timeout)
        flows = []
        for batch in batches:
            flows.extend(table.add(batch))
        flows.extend(table.flush())
        per_victim = {}
        for batch in batches:
            per_victim.setdefault(batch.src, []).append(batch.timestamp)
        for flow in flows:
            inside = [
                t for t in per_victim[flow.victim]
                if flow.first_ts <= t <= flow.last_ts
            ]
            inside.sort()
            gaps = [b - a for a, b in zip(inside, inside[1:])]
            assert all(gap <= timeout + 1e-6 for gap in gaps)

    @settings(max_examples=60, deadline=None)
    @given(batch_streams)
    def test_flow_intervals_valid(self, batches):
        table = FlowTable(timeout=300.0)
        flows = []
        for batch in batches:
            flows.extend(table.add(batch))
        flows.extend(table.flush())
        for flow in flows:
            assert flow.first_ts <= flow.last_ts
            assert flow.max_ppm <= flow.packets


# -- RSDoS classification ------------------------------------------------------

class TestRSDoSProperties:
    @settings(max_examples=50, deadline=None)
    @given(batch_streams)
    def test_detected_events_satisfy_thresholds(self, batches):
        config = RSDoSConfig()
        detector = RSDoSDetector(config)
        for event in detector.run(iter(batches)):
            assert event.packets >= config.min_packets
            assert event.duration >= config.min_duration
            assert event.max_pps >= config.min_max_pps

    @settings(max_examples=50, deadline=None)
    @given(batch_streams)
    def test_relaxing_thresholds_never_loses_events(self, batches):
        strict = list(RSDoSDetector(RSDoSConfig()).run(iter(batches)))
        lenient_config = RSDoSConfig(
            min_packets=1, min_duration=0.0, min_max_pps=0.0
        )
        lenient = list(RSDoSDetector(lenient_config).run(iter(batches)))
        assert len(lenient) >= len(strict)


# -- honeypot detection ---------------------------------------------------------

request_streams = st.builds(
    lambda times, seed: [
        RequestBatch(
            timestamp=t,
            victim=random.Random(seed + i).randint(1, 3),
            honeypot_id=random.Random(seed * 3 + i).randint(0, 4),
            protocol="NTP",
            count=random.Random(seed - i).randint(1, 400),
        )
        for i, t in enumerate(times)
    ],
    timestamps,
    st.integers(0, 2**20),
)


class TestHoneypotProperties:
    @settings(max_examples=60, deadline=None)
    @given(request_streams)
    def test_events_exceed_request_threshold(self, batches):
        config = DetectionConfig()
        detector = HoneypotDetector(config)
        for event in detector.run(iter(batches)):
            assert event.requests > config.min_requests
            assert event.duration <= config.max_event_duration + 1e-6

    @settings(max_examples=60, deadline=None)
    @given(request_streams)
    def test_event_requests_bounded_by_input(self, batches):
        detector = HoneypotDetector()
        events = list(detector.run(iter(batches)))
        assert sum(e.requests for e in events) <= sum(b.count for b in batches)


# -- domain timelines -------------------------------------------------------------

timeline_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=100),  # change day
        st.integers(min_value=1, max_value=10_000),  # ip
    ),
    min_size=1,
    max_size=12,
)


class TestTimelineProperties:
    @settings(max_examples=80, deadline=None)
    @given(timeline_ops, st.integers(min_value=0, max_value=120))
    def test_state_on_matches_last_surviving_write(self, ops, query_day):
        """set_state truncates later changes; a naive replay must agree."""
        domain = DomainTimeline("x.com", "com", 0, True)
        surviving = []
        for day, ip in ops:
            domain.set_state(day, HostingState(ip=ip))
            surviving = [(d, v) for d, v in surviving if d < day]
            surviving.append((day, ip))
        expected = None
        for day, ip in surviving:
            if day <= query_day:
                expected = ip
        state = domain.state_on(query_day)
        assert (state.ip if state else None) == expected

    @settings(max_examples=80, deadline=None)
    @given(timeline_ops, st.integers(min_value=1, max_value=120))
    def test_intervals_partition_lifetime(self, ops, n_days):
        """Hosting intervals tile [first_change, n_days) without overlap."""
        domain = DomainTimeline("x.com", "com", 0, True)
        for day, ip in ops:
            domain.set_state(day, HostingState(ip=ip))
        intervals = domain.hosting_intervals(n_days)
        for (s1, e1, _), (s2, e2, _) in zip(intervals, intervals[1:]):
            assert e1 == s2  # contiguous
        for start, end, ip in intervals:
            assert 0 <= start < end <= n_days
            assert domain.ip_on(start) == ip
            assert domain.ip_on(end - 1) == ip


# -- serialization ---------------------------------------------------------------

events_strategy = st.builds(
    AttackEvent,
    source=st.sampled_from([SOURCE_TELESCOPE, SOURCE_HONEYPOT]),
    target=st.integers(min_value=0, max_value=2**32 - 1),
    start_ts=st.floats(min_value=0, max_value=1e6),
    end_ts=st.floats(min_value=1e6, max_value=2e6),
    intensity=st.floats(min_value=0.0, max_value=1e6),
    ip_proto=st.integers(min_value=0, max_value=255),
    ports=st.lists(
        st.integers(min_value=1, max_value=65535), max_size=4
    ).map(tuple),
    reflector_protocol=st.sampled_from([None, "NTP", "DNS"]),
    packets=st.integers(min_value=0, max_value=10**9),
    country=st.sampled_from(["US", "CN", "??"]),
    asn=st.one_of(st.none(), st.integers(min_value=1, max_value=2**31)),
)


class TestSerializationProperties:
    @settings(max_examples=120, deadline=None)
    @given(events_strategy)
    def test_roundtrip_identity(self, event):
        assert event_from_dict(event_to_dict(event)) == event
