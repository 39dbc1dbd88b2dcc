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
from typing import Iterable, List, Optional

import numpy as np

from repro.attacks.attacker import (
    ATTACK_DIRECT,
    GroundTruthAttack,
    VECTOR_ICMP_FLOOD,
    VECTOR_OTHER_FLOOD,
    VECTOR_SYN_FLOOD,
    VECTOR_UDP_FLOOD,
)
from repro.attacks.streams import attack_rng, by_attack_id, minute_windows
from repro.net.columnar import PacketColumns, PortSetTable
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
    """Turns ground-truth direct attacks into telescope capture rows."""

    def __init__(self, config: BackscatterConfig = BackscatterConfig()) -> None:
        self.config = config

    def observe(self, attack: GroundTruthAttack) -> List[PacketBatch]:
        """One attack's per-minute backscatter batches, as objects.

        Non-direct attacks yield nothing: reflection attacks spoof only the
        victim's address. Unspoofed direct attacks also yield nothing — the
        victim answers the real (botnet) sources, so no backscatter reaches
        unused space; this is the telescope's structural blind spot.
        """
        return self.columns([attack]).batches()

    def columns(
        self,
        attacks: Iterable[GroundTruthAttack],
        port_sets: Optional[PortSetTable] = None,
    ) -> PacketColumns:
        """Every attack's backscatter rows, attack by attack in id order.

        Port sets are interned into *port_sets* (a fresh table if None),
        so callers assembling a larger capture can share one table.
        """
        table = port_sets if port_sets is not None else PortSetTable()
        drawn = [
            rows
            for attack in by_attack_id(attacks)
            if (rows := self._draw(attack, table)) is not None
        ]
        if not drawn:
            return PacketColumns.empty()
        ts, count, scalars = zip(*drawn)
        lengths = [len(column) for column in ts]
        src, proto, flags, icmp_type, quoted, port_set = (
            np.repeat(np.array(values), lengths) for values in zip(*scalars)
        )
        count = np.concatenate(count)
        return PacketColumns(
            ts=np.concatenate(ts),
            src=src,
            proto=proto,
            count=count,
            bytes=count * self.config.backscatter_packet_bytes,
            distinct_dsts=_distinct_spoofed(count),
            port_set=port_set,
            tcp_flags=flags,
            icmp_type=icmp_type,
            quoted_proto=quoted,
            port_sets=table.table(),
        )

    def _draw(self, attack: GroundTruthAttack, table: PortSetTable):
        """One attack's rows: (ts, count, per-attack scalars)."""
        if attack.kind != ATTACK_DIRECT or not attack.spoofed:
            return None
        rng = attack_rng(self.config.seed, attack)
        cfg = self.config

        response_prob = (
            cfg.udp_response_probability
            if attack.vector in (VECTOR_UDP_FLOOD, VECTOR_OTHER_FLOOD)
            else cfg.response_probability
        )
        capacity = rng.lognormal(cfg.capacity_mu, cfg.capacity_sigma)
        response_rate = min(attack.rate, capacity) * response_prob
        telescope_rate = response_rate * cfg.telescope_fraction
        if telescope_rate <= 0:
            return None

        effective_duration = attack.duration
        if attack.rate > capacity * cfg.collapse_load_factor:
            effective_duration = attack.duration * cfg.collapse_after_fraction

        flags, icmp_type, quoted, proto = _response_shape(attack, rng, cfg)
        minutes, windows = minute_windows(effective_duration)
        counts = rng.poisson(telescope_rate * windows)
        jitter = rng.random(len(minutes))
        sent = counts > 0
        counts = counts[sent]
        ts = attack.start + minutes[sent] * 60.0 + jitter[sent]
        scalars = (
            attack.target,
            proto,
            flags,
            icmp_type,
            -1 if quoted is None else quoted,
            table.intern(frozenset(attack.ports)),
        )
        return ts, counts, scalars


def _response_shape(attack, rng: np.random.Generator, cfg: BackscatterConfig):
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


def _distinct_spoofed(counts: np.ndarray) -> np.ndarray:
    """Distinct telescope addresses hit by *counts* uniformly spoofed packets.

    With 2^24 telescope addresses, collisions are negligible at per-minute
    batch sizes; model a small collision loss for very large counts.
    """
    space = float(1 << 24)
    expected = (space * (1.0 - np.exp(-counts / space))).astype(np.int64)
    return np.where(counts < 1000, counts, np.maximum(1, expected))
