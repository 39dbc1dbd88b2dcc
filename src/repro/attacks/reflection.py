"""Generator for reflection & amplification attacks.

Distribution targets follow the honeypot data set in the paper: a reflector
protocol mix led by NTP (Table 6), log-normal durations with a ~4-minute
median and an 18-minute mean, and a log-normal per-reflector request rate
with median ~77 requests/s. Per-protocol intensity scale factors reproduce
Figure 4's spread (NTP reaching the highest request rates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Dict, Optional

from repro.attacks.attacker import ATTACK_REFLECTION, GroundTruthAttack
from repro.core.distributions import cumulative_weights, weighted_pick
from repro.net.packet import PROTO_UDP
from repro.net.protocols import REFLECTION_PROTOCOLS


@dataclass(frozen=True)
class ReflectionAttackConfig:
    """Distribution parameters for reflection attacks."""

    # Reflector protocol mix (Table 6 targets).
    protocol_weights: Dict[str, float] = field(
        default_factory=lambda: {
            "NTP": 40.08,
            "DNS": 26.17,
            "CharGen": 22.37,
            "SSDP": 8.38,
            "RIPv1": 2.27,
            "QOTD": 0.30,
            "MSSQL": 0.25,
            "TFTP": 0.18,
        }
    )
    # Duration: log-normal, median ~255 s, mean ~18 min.
    duration_mu: float = math.log(255.0)
    duration_sigma: float = 1.65
    min_duration: float = 15.0
    max_duration: float = 3 * 86400.0  # the honeypot caps at 24 h downstream
    # Per-reflector request rate: log-normal, median 77 req/s.
    rate_mu: float = math.log(77.0)
    rate_sigma: float = 1.8
    min_rate: float = 0.2
    max_rate: float = 5e5
    # Per-protocol intensity multipliers (log-space shifts); NTP attacks use
    # the largest amplifier fleets and reach the highest request rates.
    protocol_rate_shift: Dict[str, float] = field(
        default_factory=lambda: {
            "NTP": math.log(1.8),
            "DNS": 0.0,
            "CharGen": math.log(0.7),
            "SSDP": math.log(0.5),
            "RIPv1": math.log(0.4),
            "QOTD": math.log(0.3),
            "MSSQL": math.log(0.3),
            "TFTP": math.log(0.3),
        }
    )


class ReflectionAttackGenerator:
    """Draws reflection attacks from configured distributions."""

    def __init__(self, config: ReflectionAttackConfig, rng: Random) -> None:
        unknown = set(config.protocol_weights) - set(REFLECTION_PROTOCOLS)
        if unknown:
            raise ValueError(f"unknown reflector protocols: {sorted(unknown)}")
        self.config = config
        self._rng = rng
        self._protocols = list(config.protocol_weights)
        self._cum_weights = cumulative_weights(
            config.protocol_weights[p] for p in self._protocols
        )

    def generate(
        self,
        attack_id: int,
        target: int,
        start: float,
        attacker_id: int = 0,
        joint_id: Optional[int] = None,
        force_protocol: Optional[str] = None,
        min_duration: Optional[float] = None,
    ) -> GroundTruthAttack:
        """Draw one reflection attack against *target*."""
        rng, cfg = self._rng, self.config
        protocol = force_protocol or weighted_pick(
            rng, self._protocols, self._cum_weights
        )
        duration = rng.lognormvariate(cfg.duration_mu, cfg.duration_sigma)
        duration = min(max(duration, cfg.min_duration), cfg.max_duration)
        if min_duration is not None:
            duration = max(duration, min_duration)
        shift = cfg.protocol_rate_shift.get(protocol, 0.0)
        rate = rng.lognormvariate(cfg.rate_mu + shift, cfg.rate_sigma)
        rate = min(max(rate, cfg.min_rate), cfg.max_rate)
        service_port = REFLECTION_PROTOCOLS[protocol].port
        return GroundTruthAttack(
            attack_id=attack_id,
            kind=ATTACK_REFLECTION,
            target=target,
            start=start,
            duration=duration,
            rate=rate,
            vector=f"reflection-{protocol.lower()}",
            ip_proto=PROTO_UDP,
            ports=(service_port,),
            reflector_protocol=protocol,
            attacker_id=attacker_id,
            joint_id=joint_id,
        )
