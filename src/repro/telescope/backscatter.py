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
from repro.attacks.streams import attack_streams, by_attack_id, minute_spans
from repro.net.columnar import PacketColumns, encode_port_sets
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

    def columns(self, attacks: Iterable[GroundTruthAttack]) -> PacketColumns:
        """Every attack's backscatter rows, attack by attack in id order.

        The capture's multi-port table holds the port sets of the
        attacks that target several ports, in attack-id order.

        Per attack, in stream order: the victim's capacity (log-normal),
        the SYN-ACK-or-RST coin for SYN floods, one Poisson count per
        covered minute and one jitter second per minute. Only those
        draws, and what they depend on, run per attack; everything else
        is whole-array work.
        """
        cfg = self.config
        spoofed = [
            attack
            for attack in by_attack_id(attacks)
            if attack.kind == ATTACK_DIRECT and attack.spoofed
        ]
        duration = np.array([attack.duration for attack in spoofed])
        full = [column.tolist() for column in minute_spans(duration)]
        collapsed = [
            column.tolist()
            for column in minute_spans(duration * cfg.collapse_after_fraction)
        ]
        response_probs = [
            (
                cfg.udp_response_probability
                if attack.vector in (VECTOR_UDP_FLOOD, VECTOR_OTHER_FLOOD)
                else cfg.response_probability
            )
            for attack in spoofed
        ]
        observed, coins, widths, counts, jitters = [], [], [], [], []
        streams = attack_streams(cfg.seed, [a.attack_id for a in spoofed])
        for attack, rng, response_prob, n_full, last_full, n_short, last_short in zip(
            spoofed, streams, response_probs, *full, *collapsed
        ):
            capacity = rng.lognormal(cfg.capacity_mu, cfg.capacity_sigma)
            coin = rng.random() if attack.vector == VECTOR_SYN_FLOOD else None
            rate = min(attack.rate, capacity) * response_prob * cfg.telescope_fraction
            if rate <= 0:
                continue
            n, last = (
                (n_short, last_short)
                if attack.rate > capacity * cfg.collapse_load_factor
                else (n_full, last_full)
            )
            observed.append(attack)
            coins.append(coin)
            widths.append(n)
            if n > 0:
                # Scalar-rate calls consume the stream exactly like one
                # array-valued call over the minutes, minus its argument
                # scan: the whole minutes, then the last one.
                counts.append(rng.poisson(rate * 60.0, n - 1))
                counts.append(rng.poisson(rate * last, 1))
                jitters.append(rng.random(n))
        if not observed:
            return PacketColumns.empty()

        # Every observed attack's minute cells, back to back. Zero cells
        # are rare (~2% on the default preset), so they are dropped once
        # over the whole array rather than attack by attack.
        count = np.concatenate(counts) if counts else _NO_COUNTS
        sent = count.nonzero()[0]
        count = count[sent]
        attack_of = np.repeat(np.arange(len(observed)), widths)[sent]
        minute = sent - (np.cumsum(widths) - widths)[attack_of]
        codes, port_sets = encode_port_sets(a.ports for a in observed)
        src, proto, flags, icmp_type, quoted, port_set = (
            np.array(values)[attack_of]
            for values in zip(
                *(
                    (attack.target,)
                    + _response_shape(attack, coin, cfg)
                    + (code,)
                    for attack, coin, code in zip(observed, coins, codes)
                )
            )
        )
        start = np.array([attack.start for attack in observed])[attack_of]
        jitter = np.concatenate(jitters)[sent] if jitters else _NO_SECONDS
        return PacketColumns(
            ts=start + minute * 60.0 + jitter,
            src=src,
            proto=proto,
            count=count,
            bytes=count * cfg.backscatter_packet_bytes,
            distinct_dsts=_distinct_spoofed(count),
            port_set=port_set,
            tcp_flags=flags,
            icmp_type=icmp_type,
            quoted_proto=quoted,
            port_sets=port_sets,
        )


_NO_COUNTS = np.zeros(0, dtype=np.int64)
_NO_SECONDS = np.zeros(0, dtype=np.float64)


def _response_shape(attack, coin: Optional[float], cfg: BackscatterConfig):
    """(ip_proto, tcp_flags, icmp_type, quoted_proto) of the response.

    *coin* is the SYN flood's uniform draw (None for other vectors).
    """
    if attack.vector == VECTOR_SYN_FLOOD:
        if coin < cfg.syn_ack_probability:
            return PROTO_TCP, TCP_SYN | TCP_ACK, -1, -1
        return PROTO_TCP, TCP_RST, -1, -1
    if attack.vector == VECTOR_ICMP_FLOOD:
        return PROTO_ICMP, 0, ICMP_ECHO_REPLY, -1
    # UDP floods elicit port-unreachable, other protocols
    # protocol-unreachable; both quote the offending datagram.
    return PROTO_ICMP, 0, ICMP_DEST_UNREACH, attack.ip_proto


def _distinct_spoofed(counts: np.ndarray) -> np.ndarray:
    """Distinct telescope addresses hit by *counts* uniformly spoofed packets.

    With 2^24 telescope addresses, collisions are negligible at per-minute
    batch sizes; model a small collision loss for very large counts.
    """
    space = float(1 << 24)
    expected = (space * (1.0 - np.exp(-counts / space))).astype(np.int64)
    return np.where(counts < 1000, counts, np.maximum(1, expected))
