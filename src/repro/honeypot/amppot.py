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

from dataclasses import dataclass
from random import Random
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.attacks.attacker import ATTACK_REFLECTION, GroundTruthAttack
from repro.attacks.streams import (
    attack_streams,
    by_attack_id,
    minute_spans,
    noise_rng,
)
from repro.honeypot.columnar import (
    PROTOCOLS,
    REQUEST_COLUMNS,
    RequestColumns,
    protocol_id,
)
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
    """Builds the fleet and converts attacks into its request log."""

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

    def observe(self, attack: GroundTruthAttack) -> List[RequestBatch]:
        """One attack's per-minute request batches, as objects."""
        return self.capture_columns([attack]).batches()

    def noise_columns(self, n_days: int) -> RequestColumns:
        """Reflector scans over *n_days* (unsorted; none without days)."""
        if n_days <= 0:
            return RequestColumns.empty()
        return RequestColumns(*self._scanner_rows(n_days))

    def capture_columns(
        self,
        attacks: Iterable[GroundTruthAttack],
        n_days: int = 0,
        noise: Optional[RequestColumns] = None,
    ) -> RequestColumns:
        """Time-sorted request log of *attacks* plus *noise*.

        *noise* is one victim partition's slice of :meth:`noise_columns`
        when the pipeline synthesizes partition by partition; None
        draws the whole window's scanner rows, which makes the whole
        log the one-partition case. Ties keep attack rows in attack-id
        order ahead of scanner rows, so the log is a function of the
        attack set, not its order.
        """
        if noise is None:
            noise = self.noise_columns(n_days)
        attack_rows = self._attack_rows(attacks)
        if attack_rows is None:
            return noise.time_sorted()
        return RequestColumns(
            *(
                np.concatenate((rows, getattr(noise, name)))
                for rows, name in zip(attack_rows, RequestColumns.__slots__)
            )
        ).time_sorted()

    def capture(
        self, attacks: Iterable[GroundTruthAttack], n_days: int = 0
    ) -> List[RequestBatch]:
        """:meth:`capture_columns` as :class:`RequestBatch` objects."""
        return self.capture_columns(attacks, n_days).batches()

    def _attack_rows(self, attacks: Iterable[GroundTruthAttack]):
        """Every reflection attack's rows, attack by attack in id order,
        instance by instance within an attack: (ts, victim, honeypot_id,
        protocol id, count), or None.

        Each abused honeypot sees the attack at its own rate, jittered
        log-normally around the per-reflector average, and logs a
        Poisson count of requests per minute at a random second. Per
        attack, in stream order: which instances the attacker's
        reflector list includes, their rate jitter, the counts and the
        jitter seconds. Minute windows are whole-array work. Zero cells
        are dropped per attack, and the kept cells' timestamps and
        instance ids are derived there too: on the default preset,
        capture-wide versions of those steps left ~45 MB more resident
        after the stage. The columns come out in the log's dtypes, so
        building the log copies none of them again.
        """
        cfg = self.config
        reflections = [
            attack
            for attack in by_attack_id(attacks)
            if attack.kind == ATTACK_REFLECTION
        ]
        # Every attack covers at least one minute (durations are positive).
        n_minutes, last = minute_spans([a.duration for a in reflections])
        offsets = np.cumsum(n_minutes) - n_minutes
        windows = np.full(int(n_minutes.sum()), 60.0)
        windows[offsets + n_minutes - 1] = last

        observed, ts, instances, counts = [], [], [], []
        streams = attack_streams(cfg.seed, [a.attack_id for a in reflections])
        for attack, rng, offset, n in zip(
            reflections, streams, offsets.tolist(), n_minutes.tolist()
        ):
            abused = (
                rng.random(len(self.instances)) < cfg.instance_abuse_probability
            ).nonzero()[0]
            if not len(abused):
                # No instance is on the attacker's reflector list: the
                # attack goes unobserved, the real deployment's residual
                # blind spot.
                continue
            rates = attack.rate * np.exp(
                rng.normal(0.0, cfg.rate_jitter_sigma, len(abused))
            )
            count = rng.poisson(
                np.multiply.outer(rates, windows[offset:offset + n])
            ).ravel()
            jitter = rng.random(count.shape)
            sent = count.nonzero()[0]
            if len(sent) < len(count):
                count, jitter = count[sent], jitter[sent]
            # Cell c of the (instance, minute) grid is instance
            # abused[c // n], minute c % n.
            row, minute = np.divmod(sent, n)
            observed.append(attack)
            ts.append(attack.start + minute * 60.0 + jitter)
            instances.append(abused[row])
            counts.append(count)
        if not observed:
            return None

        lengths = [len(count) for count in counts]
        dtype = dict(REQUEST_COLUMNS)
        victims = np.array([a.target for a in observed], dtype=dtype["victim"])
        protocols = np.array(
            [protocol_id(a.reflector_protocol) for a in observed],
            dtype=dtype["protocol"],
        )
        return (
            np.concatenate(ts),
            np.repeat(victims, lengths),
            np.concatenate(instances, dtype=dtype["honeypot_id"]),
            np.repeat(protocols, lengths),
            np.concatenate(counts),
        )

    def _scanner_rows(self, n_days: int) -> Tuple[np.ndarray, ...]:
        """Reflector scans: short, low-volume probes from real sources.

        These are *not* spoofed attacks — the "victim" is the scanner
        itself — and must be dropped by the 100-request event threshold.
        """
        cfg = self.config
        rng = noise_rng(cfg.seed)
        n = cfg.scans_per_day * n_days
        day = np.repeat(np.arange(n_days, dtype=np.float64), cfg.scans_per_day)
        victim = 0x50000000 + rng.integers(1 << 26, size=n)
        ts = day * 86400.0 + rng.uniform(0.0, 86400.0, n)
        protocol = rng.integers(len(PROTOCOLS), size=n)
        honeypot_id = rng.integers(len(self.instances), size=n)
        count = rng.integers(1, cfg.scan_max_requests + 1, n)
        return ts, victim, honeypot_id, protocol, count

