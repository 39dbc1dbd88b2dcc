"""The per-attack synthesis path, kept as the oracle for the batched engine.

Before :mod:`repro.attacks.streams` seeded attacks in one batch, each
attack built its own ``default_rng(SeedSequence(seed, spawn_key=(0,
attack_id)))`` and drew its rows with array-valued calls. This module
keeps that path verbatim: :func:`backscatter_columns` and
:func:`request_columns` must equal ``BackscatterModel.columns`` and
``AmpPotFleet.capture_columns`` column for column.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

import numpy as np

from repro.attacks.attacker import (
    ATTACK_DIRECT,
    ATTACK_REFLECTION,
    GroundTruthAttack,
    VECTOR_ICMP_FLOOD,
    VECTOR_OTHER_FLOOD,
    VECTOR_SYN_FLOOD,
    VECTOR_UDP_FLOOD,
)
from repro.attacks.streams import ATTACK_STREAM, by_attack_id
from repro.honeypot.amppot import AmpPotFleet
from repro.honeypot.columnar import RequestColumns, protocol_id
from repro.net.columnar import PacketColumns, encode_port_sets
from repro.net.packet import (
    ICMP_DEST_UNREACH,
    ICMP_ECHO_REPLY,
    PROTO_ICMP,
    PROTO_TCP,
    TCP_ACK,
    TCP_RST,
    TCP_SYN,
)
from repro.telescope.backscatter import BackscatterModel, _distinct_spoofed


def attack_rng(seed: int, attack: GroundTruthAttack) -> np.random.Generator:
    """The generator one attack's traffic is drawn from."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(ATTACK_STREAM, attack.attack_id))
    )


def minute_windows(duration: float) -> Tuple[np.ndarray, np.ndarray]:
    """(minute index, seconds of that minute inside *duration*) arrays.

    Minute *m* is covered when ``m * 60 < duration``; every covered
    minute but the last is whole, and the last gets
    ``min(60, duration - m * 60)`` seconds.
    """
    n = max(0, math.ceil(duration / 60.0))
    if n and (n - 1) * 60.0 >= duration:
        n -= 1
    windows = np.full(n, 60.0)
    if n:
        windows[-1] = min(60.0, duration - (n - 1) * 60.0)
    return np.arange(n, dtype=np.int64), windows


# -- telescope ----------------------------------------------------------------


def backscatter_columns(
    model: BackscatterModel, attacks: Iterable[GroundTruthAttack]
) -> PacketColumns:
    """``model.columns(attacks)``, one attack at a time."""
    drawn = [
        rows
        for attack in by_attack_id(attacks)
        if (rows := _draw_backscatter(model, attack)) is not None
    ]
    if not drawn:
        return PacketColumns.empty()
    ts, count, scalars, ports = zip(*drawn)
    codes, port_sets = encode_port_sets(ports)
    lengths = [len(column) for column in ts]
    src, proto, flags, icmp_type, quoted, port_set = (
        np.repeat(np.array(values), lengths)
        for values in (*zip(*scalars), codes)
    )
    count = np.concatenate(count)
    return PacketColumns(
        ts=np.concatenate(ts),
        src=src,
        proto=proto,
        count=count,
        bytes=count * model.config.backscatter_packet_bytes,
        distinct_dsts=_distinct_spoofed(count),
        port_set=port_set,
        tcp_flags=flags,
        icmp_type=icmp_type,
        quoted_proto=quoted,
        port_sets=port_sets,
    )


def _draw_backscatter(model, attack: GroundTruthAttack):
    """One attack's rows: (ts, count, per-attack scalars, ports)."""
    if attack.kind != ATTACK_DIRECT or not attack.spoofed:
        return None
    cfg = model.config
    rng = attack_rng(cfg.seed, attack)

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
    )
    return ts, counts, scalars, attack.ports


def _response_shape(attack, rng: np.random.Generator, cfg):
    """(tcp_flags, icmp_type, quoted_proto, ip_proto) of the response."""
    if attack.vector == VECTOR_SYN_FLOOD:
        if rng.random() < cfg.syn_ack_probability:
            return TCP_SYN | TCP_ACK, -1, None, PROTO_TCP
        return TCP_RST, -1, None, PROTO_TCP
    if attack.vector == VECTOR_UDP_FLOOD:
        return 0, ICMP_DEST_UNREACH, attack.ip_proto, PROTO_ICMP
    if attack.vector == VECTOR_ICMP_FLOOD:
        return 0, ICMP_ECHO_REPLY, None, PROTO_ICMP
    return 0, ICMP_DEST_UNREACH, attack.ip_proto, PROTO_ICMP


# -- honeypots ----------------------------------------------------------------


def request_columns(
    fleet: AmpPotFleet, attacks: Iterable[GroundTruthAttack], n_days: int = 0
) -> RequestColumns:
    """``fleet.capture_columns(attacks, n_days)``, one attack at a time."""
    drawn = [
        rows
        for attack in by_attack_id(attacks)
        if (rows := _draw_requests(fleet, attack)) is not None
    ]
    parts = []
    if drawn:
        ts, honeypot_id, count, keys = zip(*drawn)
        lengths = [len(column) for column in ts]
        victim, protocol = (
            np.repeat(np.array(values), lengths) for values in zip(*keys)
        )
        parts.append(
            (
                np.concatenate(ts),
                victim,
                np.concatenate(honeypot_id),
                protocol,
                np.concatenate(count),
            )
        )
    if n_days > 0:
        parts.append(fleet._scanner_rows(n_days))
    if not parts:
        return RequestColumns.empty()
    return RequestColumns(
        *(np.concatenate(column) for column in zip(*parts))
    ).time_sorted()


def _draw_requests(fleet: AmpPotFleet, attack: GroundTruthAttack):
    """One attack's rows, instance by instance: (ts, honeypot_id, count,
    (victim, protocol id))."""
    if attack.kind != ATTACK_REFLECTION:
        return None
    cfg = fleet.config
    rng = attack_rng(cfg.seed, attack)
    abused = np.flatnonzero(
        rng.random(len(fleet.instances)) < cfg.instance_abuse_probability
    )
    if not len(abused):
        return None
    rates = attack.rate * np.exp(rng.normal(0.0, cfg.rate_jitter_sigma, len(abused)))
    minutes, windows = minute_windows(attack.duration)
    counts = rng.poisson(np.outer(rates, windows))
    jitter = rng.random(counts.shape)
    sent = counts > 0
    return (
        (attack.start + minutes * 60.0 + jitter)[sent],
        abused[np.nonzero(sent)[0]],
        counts[sent],
        (attack.target, protocol_id(attack.reflector_protocol)),
    )
