"""Scenario configuration: one master knob set deriving every component.

A :class:`ScenarioConfig` pins the scale (days, domains, attack volumes,
AS count) and a master seed; per-component seeds are derived from the
master so any scenario is fully reproducible from a single integer. The
presets trade runtime for fidelity:

* ``small()``   — seconds; CI and unit-test scale.
* ``default()`` — tens of seconds; examples and development.
* ``paper()``   — the full 731-day window at reduced density; minutes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.attacks.direct import DirectAttackConfig
from repro.attacks.reflection import ReflectionAttackConfig
from repro.attacks.schedule import ScheduleConfig
from repro.dns.zone import ZoneConfig
from repro.dps.migration_sim import MigrationConfig
from repro.honeypot.amppot import FleetConfig
from repro.honeypot.detection import DetectionConfig
from repro.internet.hosting import HostingConfig
from repro.internet.topology import TopologyConfig
from repro.telescope.backscatter import BackscatterConfig
from repro.telescope.darknet import NoiseConfig
from repro.telescope.rsdos import RSDoSConfig


def _derive(seed: int, tag: str) -> int:
    """Stable per-component seed derivation from the master seed."""
    value = seed & 0xFFFFFFFF
    for char in tag:
        value = (value * 1000003) ^ ord(char)
        value &= 0xFFFFFFFF
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """Master scenario parameters."""

    seed: int = 42
    n_days: int = 120
    n_domains: int = 8000
    n_ases: int = 400
    direct_per_day: float = 40.0
    reflection_per_day: float = 27.0
    n_honeypots: int = 24
    active_fraction: float = 0.55
    telescope_noise: bool = True
    honeypot_noise: bool = True

    @classmethod
    def small(cls) -> "ScenarioConfig":
        """Unit-test scale: runs in a few seconds."""
        return cls(
            n_days=60,
            n_domains=2500,
            n_ases=150,
            direct_per_day=18.0,
            reflection_per_day=12.0,
        )

    @classmethod
    def default(cls) -> "ScenarioConfig":
        return cls()

    @classmethod
    def paper(cls) -> "ScenarioConfig":
        """The full two-year window (2015-03-01 .. 2017-02-28: 731 days).

        Sized so that the paper's headline ratio — roughly a third of the
        active /24 blocks attacked at least once — emerges from the attack
        volume against the synthetic address census.
        """
        return cls(
            n_days=731,
            n_domains=20_000,
            n_ases=280,
            direct_per_day=80.0,
            reflection_per_day=55.0,
        )

    # -- derived component configs ------------------------------------------

    def topology_config(self) -> TopologyConfig:
        return TopologyConfig(
            seed=_derive(self.seed, "topology"),
            n_ases=self.n_ases,
            active_fraction=self.active_fraction,
        )

    def hosting_config(self) -> HostingConfig:
        return HostingConfig(seed=_derive(self.seed, "hosting"))

    def zone_config(self) -> ZoneConfig:
        return ZoneConfig(
            seed=_derive(self.seed, "zone"),
            n_domains=self.n_domains,
            n_days=self.n_days,
        )

    def schedule_config(self) -> ScheduleConfig:
        return ScheduleConfig(
            seed=_derive(self.seed, "schedule"),
            n_days=self.n_days,
            direct_per_day=self.direct_per_day,
            reflection_per_day=self.reflection_per_day,
        )

    def direct_attack_config(self) -> DirectAttackConfig:
        return DirectAttackConfig()

    def reflection_attack_config(self) -> ReflectionAttackConfig:
        return ReflectionAttackConfig()

    def backscatter_config(self) -> BackscatterConfig:
        return BackscatterConfig(seed=_derive(self.seed, "backscatter"))

    def telescope_noise_config(self) -> NoiseConfig:
        return NoiseConfig(seed=_derive(self.seed, "tel-noise"))

    def rsdos_config(self) -> RSDoSConfig:
        return RSDoSConfig()

    def fleet_config(self) -> FleetConfig:
        return FleetConfig(
            seed=_derive(self.seed, "fleet"), n_instances=self.n_honeypots
        )

    def honeypot_detection_config(self) -> DetectionConfig:
        return DetectionConfig()

    def migration_config(self) -> MigrationConfig:
        return MigrationConfig(seed=_derive(self.seed, "migration"))

    def census_seed(self) -> int:
        return _derive(self.seed, "census")

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)
