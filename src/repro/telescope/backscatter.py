"""Backscatter synthesis: what a victim under attack sends the darknet.

A victim of a randomly spoofed flood answers each attack packet toward the
spoofed source address. With uniform spoofing over the 32-bit space, a /8
telescope receives 1/256 of those responses. The model accounts for:

* vector-specific response signatures — SYN floods elicit SYN/ACKs (or RSTs
  on closed ports), UDP floods elicit ICMP destination-unreachable messages
  quoting the offending datagram, ICMP echo floods elicit echo replies;
* victim responsiveness — firewalls and rate-limited stacks answer only a
  fraction of the flood;
* victim capacity — an overwhelmed victim cannot answer faster than its
  provisioning allows, and may collapse partway through a successful attack
  (which is why the paper prefers honeypot durations for the migration
  analysis: telescope durations under-estimate successful attacks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Iterator

from repro.attacks.attacker import (
    ATTACK_DIRECT,
    GroundTruthAttack,
    VECTOR_ICMP_FLOOD,
    VECTOR_OTHER_FLOOD,
    VECTOR_SYN_FLOOD,
    VECTOR_UDP_FLOOD,
)
from repro.core.distributions import poisson
from repro.net.packet import (
    ICMP_DEST_UNREACH,
    ICMP_ECHO_REPLY,
    PROTO_ICMP,
    PROTO_TCP,
    PacketBatch,
    TCP_ACK,
    TCP_RST,
    TCP_SYN,
)


@dataclass(frozen=True)
class BackscatterConfig:
    """Victim response behaviour."""

    seed: int = 4
    telescope_fraction: float = 1.0 / 256.0  # a /8 sees 2^24 / 2^32
    syn_ack_probability: float = 0.8  # vs RST for TCP responses
    response_probability: float = 0.9  # fraction of flood packets answered
    udp_response_probability: float = 0.55  # ICMP unreachable often filtered
    # Victim response capacity: log-normal cap in packets/second.
    capacity_mu: float = math.log(400_000.0)
    capacity_sigma: float = 1.2
    # Victims overwhelmed beyond this load factor collapse: backscatter
    # stops after a fraction of the attack duration.
    collapse_load_factor: float = 4.0
    collapse_after_fraction: float = 0.6
    backscatter_packet_bytes: int = 54


class BackscatterModel:
    """Turns ground-truth direct attacks into telescope packet batches."""

    def __init__(self, config: BackscatterConfig = BackscatterConfig()) -> None:
        self.config = config
        self._rng = Random(config.seed)

    def observe(self, attack: GroundTruthAttack) -> Iterator[PacketBatch]:
        """Yield per-minute backscatter batches the telescope captures.

        Non-direct attacks yield nothing: reflection attacks spoof only the
        victim's address. Unspoofed direct attacks also yield nothing — the
        victim answers the real (botnet) sources, so no backscatter reaches
        unused space; this is the telescope's structural blind spot.
        """
        if attack.kind != ATTACK_DIRECT or not attack.spoofed:
            return
        rng = self._rng
        cfg = self.config

        response_prob = (
            cfg.udp_response_probability
            if attack.vector in (VECTOR_UDP_FLOOD, VECTOR_OTHER_FLOOD)
            else cfg.response_probability
        )
        capacity = rng.lognormvariate(cfg.capacity_mu, cfg.capacity_sigma)
        response_rate = min(attack.rate, capacity) * response_prob
        telescope_rate = response_rate * cfg.telescope_fraction
        if telescope_rate <= 0:
            return

        effective_duration = attack.duration
        if attack.rate > capacity * cfg.collapse_load_factor:
            effective_duration = attack.duration * cfg.collapse_after_fraction

        flags, icmp_type, quoted, proto = _response_shape(attack, rng, cfg)
        ports = frozenset(attack.ports)

        minute = 0
        while minute * 60.0 < effective_duration:
            window = min(60.0, effective_duration - minute * 60.0)
            expected = telescope_rate * window
            count = poisson(rng, expected)
            if count > 0:
                timestamp = attack.start + minute * 60.0 + rng.uniform(0.0, 1.0)
                yield PacketBatch(
                    timestamp=timestamp,
                    src=attack.target,
                    proto=proto,
                    count=count,
                    bytes=count * cfg.backscatter_packet_bytes,
                    distinct_dsts=_distinct_spoofed(count, rng),
                    src_ports=ports,
                    tcp_flags=flags,
                    icmp_type=icmp_type,
                    quoted_proto=quoted,
                )
            minute += 1


def _response_shape(attack, rng: Random, cfg: BackscatterConfig):
    """(tcp_flags, icmp_type, quoted_proto, ip_proto) of the response."""
    if attack.vector == VECTOR_SYN_FLOOD:
        if rng.random() < cfg.syn_ack_probability:
            return TCP_SYN | TCP_ACK, -1, None, PROTO_TCP
        return TCP_RST, -1, None, PROTO_TCP
    if attack.vector == VECTOR_UDP_FLOOD:
        return 0, ICMP_DEST_UNREACH, attack.ip_proto, PROTO_ICMP
    if attack.vector == VECTOR_ICMP_FLOOD:
        return 0, ICMP_ECHO_REPLY, None, PROTO_ICMP
    # Other protocols elicit ICMP protocol-unreachable quoting them.
    return 0, ICMP_DEST_UNREACH, attack.ip_proto, PROTO_ICMP


def _distinct_spoofed(count: int, rng: Random) -> int:
    """Distinct telescope addresses hit by *count* uniformly spoofed packets.

    With 2^24 telescope addresses, collisions are negligible at per-minute
    batch sizes; model a small collision loss for very large counts.
    """
    if count < 1000:
        return count
    space = float(1 << 24)
    expected = space * (1.0 - math.exp(-count / space))
    return max(1, int(expected))
