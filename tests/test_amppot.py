"""Unit tests for the AmpPot fleet."""

import pytest

from repro.attacks.attacker import ATTACK_DIRECT, ATTACK_REFLECTION, GroundTruthAttack
from repro.honeypot.amppot import (
    AmpPotFleet,
    FleetConfig,
    HoneypotInstance,
    RequestBatch,
    REPLY_RATE_LIMIT_PER_MINUTE,
)
from repro.net.packet import PROTO_TCP, PROTO_UDP


def reflection(rate=100.0, duration=300.0, protocol="NTP", target=0x0A000001):
    return GroundTruthAttack(
        attack_id=1, kind=ATTACK_REFLECTION, target=target, start=0.0,
        duration=duration, rate=rate, vector=f"reflection-{protocol.lower()}",
        ip_proto=PROTO_UDP, ports=(123,), reflector_protocol=protocol,
    )


class TestFleetDeployment:
    def test_default_fleet_size(self):
        assert len(AmpPotFleet().instances) == 24

    def test_region_plan(self):
        fleet = AmpPotFleet(FleetConfig(seed=1))
        regions = [i.region for i in fleet.instances]
        assert regions.count("america") == 11
        assert regions.count("europe") == 8
        assert regions.count("asia") == 4
        assert regions.count("australia") == 1

    def test_custom_fleet_size(self):
        fleet = AmpPotFleet(FleetConfig(seed=1, n_instances=8))
        assert len(fleet.instances) == 8

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            AmpPotFleet(FleetConfig(n_instances=0))

    def test_rate_limit_rule(self):
        instance = HoneypotInstance(0, 1, "europe", "cloud")
        assert instance.would_reply(REPLY_RATE_LIMIT_PER_MINUTE - 1)
        assert not instance.would_reply(REPLY_RATE_LIMIT_PER_MINUTE)


class TestObservation:
    def test_direct_attacks_unobserved(self):
        fleet = AmpPotFleet(FleetConfig(seed=2))
        direct = GroundTruthAttack(
            attack_id=1, kind=ATTACK_DIRECT, target=1, start=0.0,
            duration=60.0, rate=100.0, vector="syn-flood", ip_proto=PROTO_TCP,
        )
        assert list(fleet.observe(direct)) == []

    def test_reflection_attack_logged_by_several_instances(self):
        fleet = AmpPotFleet(FleetConfig(seed=3))
        batches = list(fleet.observe(reflection()))
        honeypots = {b.honeypot_id for b in batches}
        assert len(honeypots) >= 5  # p=0.45 over 24 instances

    def test_victim_recorded_from_spoofed_source(self):
        fleet = AmpPotFleet(FleetConfig(seed=4))
        batches = list(fleet.observe(reflection(target=0x0C0C0C0C)))
        assert all(b.victim == 0x0C0C0C0C for b in batches)

    def test_protocol_preserved(self):
        fleet = AmpPotFleet(FleetConfig(seed=5))
        batches = list(fleet.observe(reflection(protocol="CharGen")))
        assert all(b.protocol == "CharGen" for b in batches)

    def test_request_volume_tracks_rate(self):
        fleet = AmpPotFleet(FleetConfig(seed=6, rate_jitter_sigma=0.01))
        attack = reflection(rate=50.0, duration=600.0)
        batches = list(fleet.observe(attack))
        n_instances = len({b.honeypot_id for b in batches})
        total = sum(b.count for b in batches)
        expected = 50.0 * 600.0 * n_instances
        assert 0.8 * expected < total < 1.2 * expected


class TestScannerNoise:
    def test_scans_below_event_threshold(self):
        fleet = AmpPotFleet(FleetConfig(seed=8, scan_max_requests=30))
        assert all(b.count <= 30 for b in fleet.noise_columns(2).batches())

    def test_capture_merges_and_sorts(self):
        fleet = AmpPotFleet(FleetConfig(seed=9))
        batches = fleet.capture([reflection()], n_days=1)
        timestamps = [b.timestamp for b in batches]
        assert timestamps == sorted(timestamps)


class TestRequestBatch:
    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            RequestBatch(0.0, 1, 0, "NTP", 0)

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            RequestBatch(0.0, 1, 0, "SMURF", 5)
