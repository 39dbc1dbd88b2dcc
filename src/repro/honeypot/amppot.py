"""The honeypot fleet and what it receives.

AmpPot instances emulate amplification-prone UDP services attractively
enough that attackers' reflector scans pick them up. During a reflection
attack, each abused honeypot receives the spoofed request stream addressed
to the victim. Per the AmpPot paper, the fleet replies only to sources
sending fewer than three packets per minute (so it never contributes real
attack traffic) — the *requests* are what gets logged and analyzed.

The fleet mirrors the deployment in the paper: 24 instances, 11 in the
Americas, 8 in Europe, 4 in Asia, 1 in Australia, split between cloud
providers and volunteer-operated machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Iterable, Iterator, List, Tuple

from repro.attacks.attacker import ATTACK_REFLECTION, GroundTruthAttack
from repro.core.distributions import poisson
from repro.net.protocols import REFLECTION_PROTOCOLS

_REGION_PLAN: Tuple[Tuple[str, int], ...] = (
    ("america", 11),
    ("europe", 8),
    ("asia", 4),
    ("australia", 1),
)

#: Sources sending at or above this rate get no replies (harmlessness rule).
REPLY_RATE_LIMIT_PER_MINUTE = 3


@dataclass(frozen=True)
class HoneypotInstance:
    """One deployed honeypot."""

    instance_id: int
    address: int
    region: str
    operator: str  # "cloud" or "volunteer"

    def would_reply(self, requests_per_minute: float) -> bool:
        """Whether the rate limiter would answer this source at all."""
        return requests_per_minute < REPLY_RATE_LIMIT_PER_MINUTE


@dataclass(frozen=True)
class RequestBatch:
    """Spoofed requests logged by one honeypot in a one-second bucket."""

    timestamp: float
    victim: int
    honeypot_id: int
    protocol: str
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("request batch count must be positive")
        if self.protocol not in REFLECTION_PROTOCOLS:
            raise ValueError(f"unknown reflector protocol: {self.protocol!r}")


@dataclass(frozen=True)
class FleetConfig:
    """Fleet size and abuse dynamics."""

    seed: int = 6
    n_instances: int = 24
    # Probability that one instance appears in an attacker's reflector list.
    instance_abuse_probability: float = 0.45
    # Probability an attack abuses at least one honeypot is handled by
    # re-rolling: 1-(1-p)^24 ≈ 1 for the default p, matching "24 instances
    # catch most attacks".
    rate_jitter_sigma: float = 0.35
    # Scanner background traffic (filtered by the >100 request threshold).
    scans_per_day: int = 80
    scan_max_requests: int = 30


class AmpPotFleet:
    """Builds the fleet and converts attacks into logged request batches."""

    def __init__(self, config: FleetConfig = FleetConfig()) -> None:
        if config.n_instances <= 0:
            raise ValueError("fleet needs at least one instance")
        self.config = config
        self._rng = Random(config.seed)
        self.instances = self._deploy()

    def _deploy(self) -> List[HoneypotInstance]:
        rng = self._rng
        instances: List[HoneypotInstance] = []
        regions: List[str] = []
        for region, count in _REGION_PLAN:
            regions.extend([region] * count)
        # Scale the regional plan to the configured fleet size.
        while len(regions) < self.config.n_instances:
            regions.append(regions[len(regions) % len(_REGION_PLAN)])
        for index in range(self.config.n_instances):
            instances.append(
                HoneypotInstance(
                    instance_id=index,
                    address=0x2D000000 + rng.randrange(1 << 24),
                    region=regions[index],
                    operator="cloud" if rng.random() < 0.6 else "volunteer",
                )
            )
        return instances

    def abused_instances(self, rng: Random) -> List[HoneypotInstance]:
        """Which honeypots one attacker's reflector list includes.

        Every instance is included independently; if none lands in the list
        (rare at fleet size 24), the attack is simply unobserved — the same
        residual blind spot the real deployment has.
        """
        probability = self.config.instance_abuse_probability
        return [i for i in self.instances if rng.random() < probability]

    def observe(self, attack: GroundTruthAttack) -> Iterator[RequestBatch]:
        """Yield per-minute request batches for one reflection attack."""
        if attack.kind != ATTACK_REFLECTION:
            return
        rng = self._rng
        abused = self.abused_instances(rng)
        if not abused:
            return
        protocol = attack.reflector_protocol
        for instance in abused:
            # Per-honeypot rate varies around the per-reflector average.
            rate = attack.rate * math.exp(
                rng.gauss(0.0, self.config.rate_jitter_sigma)
            )
            minute = 0
            while minute * 60.0 < attack.duration:
                window = min(60.0, attack.duration - minute * 60.0)
                count = poisson(rng, rate * window)
                if count > 0:
                    yield RequestBatch(
                        timestamp=attack.start + minute * 60.0 + rng.uniform(0.0, 1.0),
                        victim=attack.target,
                        honeypot_id=instance.instance_id,
                        protocol=protocol,
                        count=count,
                    )
                minute += 1

    def scanner_noise(self, n_days: int) -> Iterator[RequestBatch]:
        """Reflector scans: short, low-volume probes from real sources.

        These are *not* spoofed attacks — the "victim" is the scanner
        itself — and must be dropped by the 100-request event threshold.
        """
        rng = self._rng
        protocols = list(REFLECTION_PROTOCOLS)
        for day in range(n_days):
            for _ in range(self.config.scans_per_day):
                scanner = 0x50000000 + rng.randrange(1 << 26)
                start = day * 86400.0 + rng.uniform(0.0, 86400.0)
                protocol = rng.choice(protocols)
                instance = rng.choice(self.instances)
                yield RequestBatch(
                    timestamp=start,
                    victim=scanner,
                    honeypot_id=instance.instance_id,
                    protocol=protocol,
                    count=rng.randint(1, self.config.scan_max_requests),
                )

    def capture(
        self, attacks: Iterable[GroundTruthAttack], n_days: int = 0
    ) -> List[RequestBatch]:
        """Full time-sorted request log for the window."""
        batches: List[RequestBatch] = []
        for attack in attacks:
            batches.extend(self.observe(attack))
        if n_days > 0:
            batches.extend(self.scanner_noise(n_days))
        batches.sort(key=lambda b: b.timestamp)
        return batches
