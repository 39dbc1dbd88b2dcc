"""Unit tests for the darknet capture assembly and noise generation."""

import pytest

from repro.attacks.attacker import ATTACK_DIRECT, GroundTruthAttack
from repro.net.packet import PROTO_TCP
from repro.telescope.backscatter import BackscatterConfig, BackscatterModel
from repro.telescope.darknet import (
    NetworkTelescope,
    NoiseConfig,
    TelescopeNoise,
)
from tests.detection_oracle import RSDoSDetector


def attack(target=0x0A000001, rate=200_000.0, duration=600.0):
    return GroundTruthAttack(
        attack_id=1, kind=ATTACK_DIRECT, target=target, start=100.0,
        duration=duration, rate=rate, vector="syn-flood",
        ip_proto=PROTO_TCP, ports=(80,),
    )


class TestNoise:
    def test_noise_volume_scales_with_days(self):
        noise = TelescopeNoise(NoiseConfig(seed=1, scans_per_day=10,
                                           misconfig_per_day=5,
                                           subthreshold_per_day=5))
        one_day = list(noise.generate(1))
        noise2 = TelescopeNoise(NoiseConfig(seed=1, scans_per_day=10,
                                            misconfig_per_day=5,
                                            subthreshold_per_day=5))
        three_days = list(noise2.generate(3))
        assert len(three_days) > len(one_day)

    def test_noise_never_survives_detection(self):
        """The Moore et al. filters must reject all generated noise."""
        noise = TelescopeNoise(NoiseConfig(seed=2))
        batches = sorted(noise.generate(3), key=lambda b: b.timestamp)
        events = list(RSDoSDetector().run(iter(batches)))
        assert events == []


class TestCapture:
    def test_capture_is_time_sorted(self):
        telescope = NetworkTelescope(noise=TelescopeNoise(NoiseConfig(seed=3)))
        batches = telescope.capture([attack()], n_days=1)
        timestamps = [b.timestamp for b in batches]
        assert timestamps == sorted(timestamps)

    def test_attack_detected_through_noise(self):
        telescope = NetworkTelescope(noise=TelescopeNoise(NoiseConfig(seed=4)))
        batches = telescope.capture([attack()], n_days=1)
        events = list(RSDoSDetector().run(iter(batches)))
        assert len(events) == 1
        assert events[0].victim == 0x0A000001

    def test_telescope_fraction_follows_prefix_size(self):
        from repro.net.addressing import Prefix

        telescope = NetworkTelescope(prefix=Prefix.from_string("44.0.0.0/16"))
        assert telescope.backscatter.config.telescope_fraction == pytest.approx(
            1.0 / 65536.0
        )

    def test_no_noise_configured(self):
        telescope = NetworkTelescope(noise=None)
        batches = telescope.capture([attack()], n_days=5)
        assert all(b.src == 0x0A000001 for b in batches)
