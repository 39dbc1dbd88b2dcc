"""Unit tests for the telescope flow table."""

import pytest

from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, PacketBatch, TCP_ACK, TCP_SYN
from tests.detection_oracle import FlowState, FlowTable


def batch(ts, src=1, count=10, ports=(80,), proto=PROTO_TCP,
          flags=TCP_SYN | TCP_ACK, quoted=None):
    return PacketBatch(
        timestamp=ts, src=src, proto=proto, count=count, bytes=count * 54,
        distinct_dsts=count, src_ports=frozenset(ports), tcp_flags=flags,
        quoted_proto=quoted,
    )


class TestFlowState:
    def test_accumulates_counts(self):
        flow = FlowState(victim=1, first_ts=0.0, last_ts=0.0)
        flow.add(batch(0.0, count=10))
        flow.add(batch(30.0, count=5))
        assert flow.packets == 15
        assert flow.bytes == 15 * 54
        assert flow.duration == 30.0

    def test_max_ppm_per_minute(self):
        flow = FlowState(victim=1, first_ts=0.0, last_ts=0.0)
        flow.add(batch(0.0, count=10))
        flow.add(batch(30.0, count=5))   # same minute -> 15
        flow.add(batch(70.0, count=12))  # next minute -> 12
        assert flow.max_ppm == 15

    def test_dominant_proto_uses_quoted(self):
        flow = FlowState(victim=1, first_ts=0.0, last_ts=0.0)
        flow.add(batch(0.0, count=5, proto=PROTO_ICMP, flags=0, quoted=PROTO_UDP))
        flow.add(batch(1.0, count=2, proto=PROTO_TCP))
        assert flow.dominant_proto == PROTO_UDP

    def test_ports_unioned(self):
        flow = FlowState(victim=1, first_ts=0.0, last_ts=0.0)
        flow.add(batch(0.0, ports=(80,)))
        flow.add(batch(1.0, ports=(443,)))
        assert flow.ports == {80, 443}


class TestFlowTable:
    def test_same_victim_single_flow(self):
        table = FlowTable(timeout=300.0)
        table.add(batch(0.0))
        table.add(batch(100.0))
        assert len(table) == 1

    def test_distinct_victims_distinct_flows(self):
        table = FlowTable(timeout=300.0)
        table.add(batch(0.0, src=1))
        table.add(batch(0.5, src=2))
        assert len(table) == 2

    def test_timeout_expires_flow(self):
        table = FlowTable(timeout=300.0)
        table.add(batch(0.0, src=1))
        expired = table.add(batch(301.0, src=1))
        assert len(expired) == 1
        assert expired[0].victim == 1
        assert len(table) == 1  # the new flow for the same victim

    def test_within_timeout_no_expiry(self):
        table = FlowTable(timeout=300.0)
        table.add(batch(0.0, src=1))
        assert table.add(batch(299.0, src=1)) == []

    def test_sweep_expires_idle_other_victims(self):
        table = FlowTable(timeout=300.0, sweep_interval=60.0)
        table.add(batch(0.0, src=1))
        expired = table.add(batch(400.0, src=2))
        assert [f.victim for f in expired] == [1]

    def test_flush_returns_all(self):
        table = FlowTable(timeout=300.0)
        table.add(batch(0.0, src=1))
        table.add(batch(0.0, src=2))
        flows = sorted(f.victim for f in table.flush())
        assert flows == [1, 2]
        assert len(table) == 0

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            FlowTable(timeout=0.0)

    def test_separate_events_for_separated_attacks(self):
        """Two attacks on one victim 10 minutes apart become two flows."""
        table = FlowTable(timeout=300.0)
        table.add(batch(0.0, src=9))
        table.add(batch(60.0, src=9))
        expired = table.add(batch(660.0, src=9))
        assert len(expired) == 1
        assert expired[0].duration == 60.0
