"""Generator for direct, randomly spoofed flooding attacks.

Parameter distributions target the *shapes* the telescope data set exhibits
in the paper: a protocol mix dominated by TCP, a 60/40 single-/multi-port
split, HTTP(S)-heavy single-port TCP targeting, log-normal durations with a
median around 7.5 minutes, and a log-normal victim packet rate whose median
corresponds to ~1 backscatter pps at a /8 telescope. Web-port attacks are
drawn more intense but shorter, reproducing the paper's Section 4 finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Dict, Tuple

from repro.attacks.attacker import (
    ATTACK_DIRECT,
    GroundTruthAttack,
    VECTOR_ICMP_FLOOD,
    VECTOR_OTHER_FLOOD,
    VECTOR_SYN_FLOOD,
    VECTOR_UDP_FLOOD,
)
from repro.core.distributions import cumulative_weights, weighted_pick
from repro.net.packet import PROTO_ICMP, PROTO_IGMP, PROTO_TCP, PROTO_UDP


@dataclass(frozen=True)
class DirectAttackConfig:
    """Distribution parameters for direct attacks."""

    # IP protocol mix (Table 5 targets ~79.4/15.9/4.5/0.2).
    proto_weights: Dict[int, float] = field(
        default_factory=lambda: {
            PROTO_TCP: 79.4,
            PROTO_UDP: 15.9,
            PROTO_ICMP: 4.5,
            PROTO_IGMP: 0.2,
        }
    )
    single_port_fraction: float = 0.606  # Table 7
    # Single-port TCP service mix (Table 8a targets).
    tcp_port_weights: Dict[int, float] = field(
        default_factory=lambda: {
            80: 48.68,
            443: 20.68,
            3306: 1.12,
            53: 1.07,
            1723: 0.99,
        }
    )
    tcp_other_weight: float = 27.46
    # Single-port UDP service mix (Table 8b targets).
    udp_port_weights: Dict[int, float] = field(
        default_factory=lambda: {
            27015: 18.54,
            37547: 2.04,
            32124: 1.41,
            28183: 1.39,
            3306: 1.30,
        }
    )
    udp_other_weight: float = 75.32
    # Duration: log-normal, median exp(mu) seconds.
    duration_mu: float = math.log(454.0)
    duration_sigma: float = 1.9
    min_duration: float = 20.0
    max_duration: float = 5 * 86400.0
    # Victim packet rate: log-normal; median 256 pps = 1 pps at a /8.
    rate_mu: float = math.log(256.0)
    rate_sigma: float = 2.6
    min_rate: float = 16.0
    max_rate: float = 5e7
    # Web-port attacks: more intense, shorter (Section 4).
    web_rate_boost: float = math.log(2.5)
    web_duration_mu: float = math.log(240.0)
    web_duration_sigma: float = 1.1
    multi_port_max: int = 12


class DirectAttackGenerator:
    """Draws direct randomly spoofed attacks from configured distributions."""

    def __init__(self, config: DirectAttackConfig, rng: Random) -> None:
        self.config = config
        self._rng = rng
        self._protos = list(config.proto_weights)
        self._proto_cum_weights = cumulative_weights(
            config.proto_weights[p] for p in self._protos
        )

    def generate(
        self,
        attack_id: int,
        target: int,
        start: float,
        attacker_id: int = 0,
        joint_id: int = None,
        force_ports: Tuple[int, ...] = None,
        force_proto: int = None,
    ) -> GroundTruthAttack:
        """Draw one attack against *target* starting at *start* seconds."""
        rng = self._rng
        proto = force_proto if force_proto is not None else weighted_pick(
            rng, self._protos, self._proto_cum_weights
        )
        if force_ports is not None:
            ports = force_ports
        else:
            ports = self._draw_ports(proto)
        vector = _vector_for_proto(proto)
        is_web = proto == PROTO_TCP and len(ports) == 1 and ports[0] in (80, 443)
        duration = self._draw_duration(is_web)
        rate = self._draw_rate(is_web)
        return GroundTruthAttack(
            attack_id=attack_id,
            kind=ATTACK_DIRECT,
            target=target,
            start=start,
            duration=duration,
            rate=rate,
            vector=vector,
            ip_proto=proto,
            ports=ports,
            attacker_id=attacker_id,
            joint_id=joint_id,
        )

    def _draw_ports(self, proto: int) -> Tuple[int, ...]:
        rng = self._rng
        if proto in (PROTO_ICMP, PROTO_IGMP):
            return ()
        if rng.random() < self.config.single_port_fraction:
            return (self._draw_single_port(proto),)
        n_ports = rng.randint(2, self.config.multi_port_max)
        ports = {rng.randrange(1, 65536) for _ in range(n_ports)}
        while len(ports) < 2:
            ports.add(rng.randrange(1, 65536))
        return tuple(sorted(ports))

    def _draw_single_port(self, proto: int) -> int:
        rng = self._rng
        if proto == PROTO_TCP:
            table, other = self.config.tcp_port_weights, self.config.tcp_other_weight
        else:
            table, other = self.config.udp_port_weights, self.config.udp_other_weight
        ports = list(table)
        weights = [table[p] for p in ports]
        pick = rng.uniform(0.0, sum(weights) + other)
        for port, weight in zip(ports, weights):
            if pick < weight:
                return port
            pick -= weight
        # "Other": spread over the remaining port range, skewed low for TCP
        # (registered services) and uniform for UDP (the paper's long tail).
        if proto == PROTO_TCP:
            return rng.choice(
                (22, 25, 8080, 21, 3389, 6667, 110, 143, 1433, 5222)
            ) if rng.random() < 0.4 else rng.randrange(1, 65536)
        return rng.randrange(1024, 65536)

    def _draw_duration(self, is_web: bool) -> float:
        rng, cfg = self._rng, self.config
        if is_web:
            raw = rng.lognormvariate(cfg.web_duration_mu, cfg.web_duration_sigma)
        else:
            raw = rng.lognormvariate(cfg.duration_mu, cfg.duration_sigma)
        return min(max(raw, cfg.min_duration), cfg.max_duration)

    def _draw_rate(self, is_web: bool) -> float:
        rng, cfg = self._rng, self.config
        mu = cfg.rate_mu + (cfg.web_rate_boost if is_web else 0.0)
        raw = rng.lognormvariate(mu, cfg.rate_sigma)
        return min(max(raw, cfg.min_rate), cfg.max_rate)


def _vector_for_proto(proto: int) -> str:
    if proto == PROTO_TCP:
        return VECTOR_SYN_FLOOD
    if proto == PROTO_UDP:
        return VECTOR_UDP_FLOOD
    if proto == PROTO_ICMP:
        return VECTOR_ICMP_FLOOD
    return VECTOR_OTHER_FLOOD
