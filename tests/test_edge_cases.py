"""Edge cases and failure injection across subsystems."""

import pytest

from repro.attacks.attacker import ATTACK_DIRECT, GroundTruthAttack
from repro.attacks.schedule import ScheduleConfig, TargetPools
from repro.core.events import AttackDataset, AttackEvent, SOURCE_TELESCOPE
from repro.core.fusion import FusedDataset
from repro.core.timeseries import daily_series
from repro.dns.records import DomainTimeline, HostingState
from repro.dns.zone import Zone
from repro.dps.detection import DPSDetector
from repro.dps.providers import build_providers
from repro.honeypot.amppot import AmpPotFleet, FleetConfig
from repro.internet.topology import InternetTopology, TopologyConfig
from repro.net.packet import PROTO_TCP, PacketBatch, TCP_ACK, TCP_SYN
from tests.detection_oracle import FlowTable, HoneypotDetector, RSDoSDetector


class TestEmptyInputs:
    def test_empty_fusion(self):
        fused = FusedDataset(
            AttackDataset([], "Network Telescope"),
            AttackDataset([], "Amplification Honeypot"),
        )
        assert fused.shared_targets() == set()
        assert fused.joint_attacks() == []
        analysis = fused.joint_analysis()
        assert analysis.n_joint_targets == 0

    def test_empty_detector_runs(self):
        assert list(RSDoSDetector().run(iter([]))) == []
        assert list(HoneypotDetector().run(iter([]))) == []

    def test_empty_daily_series(self):
        series = daily_series([], 10)
        assert series.attacks.sum() == 0
        assert series.mean_daily_attacks() == 0.0

    def test_fleet_with_no_attacks(self):
        fleet = AmpPotFleet(FleetConfig(seed=1))
        assert fleet.capture([], n_days=0) == []

    def test_dps_scan_empty_zone(self):
        topology = InternetTopology.generate(TopologyConfig(seed=1, n_ases=10))
        providers = build_providers(topology)
        dataset = DPSDetector(providers).scan([Zone("com")], n_days=10)
        assert dataset.usages == []
        assert dataset.provider_site_counts() == {}


class TestBoundaryValues:
    def test_event_of_zero_duration(self):
        event = AttackEvent(SOURCE_TELESCOPE, 1, 100.0, 100.0, 1.0)
        assert event.duration == 0.0
        assert event.overlaps(event)

    def test_attack_exactly_at_window_edge(self):
        series = daily_series(
            [AttackEvent(SOURCE_TELESCOPE, 1, 10 * 86400.0 - 1, 10 * 86400.0, 1.0)],
            10,
        )
        assert series.attacks[9] == 1

    def test_flow_at_exact_timeout_boundary(self):
        table = FlowTable(timeout=300.0)

        def batch(ts):
            return PacketBatch(
                timestamp=ts, src=1, proto=PROTO_TCP, count=5, bytes=270,
                distinct_dsts=5, tcp_flags=TCP_SYN | TCP_ACK,
            )

        table.add(batch(0.0))
        # Exactly at the timeout is NOT expired (strict > in the rule).
        assert table.add(batch(300.0)) == []
        assert len(table) == 1

    def test_timeline_change_on_registration_day(self):
        domain = DomainTimeline("x.com", "com", 5, True)
        domain.set_state(5, HostingState(ip=1))
        assert domain.state_on(4) is None
        assert domain.state_on(5).ip == 1

    def test_single_day_simulation_window(self):
        from repro.dns.openintel import OpenIntelPlatform

        zone = Zone("com")
        domain = DomainTimeline("x.com", "com", 0, True)
        domain.set_state(0, HostingState(ip=1))
        zone.domains = [domain]
        dataset = OpenIntelPlatform([zone], n_days=1).measure()
        assert dataset.hosting_intervals == [("www.x.com", 1, 0, 1)]


class TestMisuseRejection:
    def test_pools_require_shared_hosting(self):
        topology = InternetTopology.generate(TopologyConfig(seed=2, n_ases=10))
        with pytest.raises(ValueError):
            TargetPools(
                web_shared=[], web_self=[], mail=[], dps_infra=[],
                topology=topology, named_hoster_ips={},
            )

    def test_unspoofed_attack_flag_roundtrip(self):
        attack = GroundTruthAttack(
            attack_id=1, kind=ATTACK_DIRECT, target=1, start=0.0,
            duration=60.0, rate=10.0, vector="syn-flood", spoofed=False,
        )
        assert not attack.spoofed
        assert attack.shifted(5.0).spoofed is False

    def test_schedule_config_zero_unspoofed(self):
        config = ScheduleConfig(unspoofed_fraction=0.0)
        assert config.unspoofed_fraction == 0.0


class TestDisorderTolerance:
    def test_flow_table_tolerates_slight_reordering(self):
        """Batches 1 s out of order must not corrupt flow accounting."""
        table = FlowTable(timeout=300.0)

        def batch(ts, src=1):
            return PacketBatch(
                timestamp=ts, src=src, proto=PROTO_TCP, count=5, bytes=270,
                distinct_dsts=5, tcp_flags=TCP_SYN | TCP_ACK,
            )

        flows = []
        for ts in (0.0, 10.0, 9.5, 20.0):
            flows.extend(table.add(batch(ts)))
        flows.extend(table.flush())
        assert len(flows) == 1
        assert flows[0].packets == 20
        assert flows[0].first_ts == 0.0
        assert flows[0].last_ts == 20.0
