"""The darknet itself: capture assembly and non-attack noise.

A telescope receives far more than backscatter — scans, misconfigurations
and bugs all land in unused space. The RSDoS pipeline must filter that
pollution, so the capture layer mixes in a configurable noise load:
scan traffic (TCP SYNs, not a response signature), misconfigured UDP
senders, and sub-threshold backscatter-like dribbles that real detectors
must discard via the Moore et al. filters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.attacks.attacker import GroundTruthAttack
from repro.attacks.streams import noise_rng
from repro.net.addressing import Prefix
from repro.net.columnar import NO_PORTS, PacketColumns
from repro.net.packet import (
    ICMP_ECHO_REPLY,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    PacketBatch,
    TCP_ACK,
    TCP_SYN,
)
from repro.telescope.backscatter import BackscatterConfig, BackscatterModel

DEFAULT_TELESCOPE_PREFIX = Prefix.from_string("44.0.0.0/8")

DAY_SECONDS = 86400.0


@dataclass(frozen=True)
class NoiseConfig:
    """Volume of non-attack traffic reaching the telescope."""

    seed: int = 5
    scans_per_day: int = 120
    misconfig_per_day: int = 40
    # Backscatter-like dribbles below the RSDoS thresholds.
    subthreshold_per_day: int = 25
    noise_source_space: int = 1 << 28  # sources drawn outside victim pools


def _noise_starts(rng: np.random.Generator, per_day: int, n_days: int):
    """(n, noise sources, start times) for *per_day* events on each day."""
    n = per_day * n_days
    day = np.repeat(np.arange(n_days, dtype=np.float64), per_day)
    return n, day * DAY_SECONDS + rng.uniform(0.0, DAY_SECONDS, n)


class TelescopeNoise:
    """Generates scan / misconfiguration / sub-threshold noise rows."""

    def __init__(self, config: NoiseConfig = NoiseConfig()) -> None:
        self.config = config

    def generate(self, n_days: int) -> List[PacketBatch]:
        """Noise batches covering *n_days* of capture, as objects
        (unsorted; callers sort the merged capture)."""
        return self.columns(n_days).batches()

    def columns(self, n_days: int) -> PacketColumns:
        """Noise rows covering *n_days* of capture (not time-sorted).

        Every row carries one source port or none, so the noise has no
        multi-port table.
        """
        rng = noise_rng(self.config.seed)
        parts = [
            self._scans(rng, n_days),
            self._misconfigs(rng, n_days),
            self._subthreshold(rng, n_days),
        ]
        return PacketColumns.concat(parts, ())

    def _sources(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return 0x60000000 + rng.integers(self.config.noise_source_space, size=n)

    def _scans(self, rng, n_days: int) -> PacketColumns:
        """A scanner sweeps the telescope for 1-10 minutes: SYN packets,
        which are NOT a response signature and must be ignored by the
        classifier."""
        n, starts = _noise_starts(rng, self.config.scans_per_day, n_days)
        sources = self._sources(rng, n)
        minutes = rng.integers(1, 11, n)
        scan = np.repeat(np.arange(n), minutes)
        minute = np.arange(len(scan)) - np.repeat(np.cumsum(minutes) - minutes, minutes)
        count = rng.integers(20, 401, len(scan))
        ports = rng.integers(1024, 65536, len(scan))
        return _rows(
            ts=starts[scan] + minute * 60.0,
            src=sources[scan],
            proto=PROTO_TCP,
            count=count,
            packet_bytes=40,
            distinct_dsts=count,
            port_set=ports,
            tcp_flags=TCP_SYN,
        )

    def _misconfigs(self, rng, n_days: int) -> PacketColumns:
        """Misconfigured UDP senders: one short burst each."""
        n, starts = _noise_starts(rng, self.config.misconfig_per_day, n_days)
        sources = self._sources(rng, n)
        count = rng.integers(1, 51, n)
        ports = rng.integers(1024, 65536, n)
        return _rows(
            ts=starts,
            src=sources,
            proto=PROTO_UDP,
            count=count,
            packet_bytes=120,
            distinct_dsts=np.minimum(count, 4),
            port_set=ports,
        )

    def _subthreshold(self, rng, n_days: int) -> PacketColumns:
        """Legit-looking backscatter that fails the Moore et al. filters."""
        n, starts = _noise_starts(rng, self.config.subthreshold_per_day, n_days)
        sources = self._sources(rng, n)
        style = rng.random(n)
        few = style < 0.5  # too few packets in total (< 25)
        short = ~few & (style < 0.8)  # enough packets, but one dense burst
        slow = ~(few | short)  # long, but far too slow (max rate < 0.5 pps)
        few_count = rng.integers(1, 21, n)[few]
        short_count = rng.integers(25, 29, n)[short]
        steps = np.arange(0, 10, 3)
        slow_starts = (starts[slow][:, None] + steps * 60.0).ravel()
        return PacketColumns.concat(
            [
                _rows(
                    ts=starts[few],
                    src=sources[few],
                    proto=PROTO_TCP,
                    count=few_count,
                    packet_bytes=54,
                    distinct_dsts=few_count,
                    port_set=80,
                    tcp_flags=TCP_SYN | TCP_ACK,
                ),
                _rows(
                    ts=starts[short],
                    src=sources[short],
                    proto=PROTO_ICMP,
                    count=short_count,
                    packet_bytes=54,
                    distinct_dsts=short_count,
                    port_set=NO_PORTS,
                    icmp_type=ICMP_ECHO_REPLY,
                ),
                _rows(
                    ts=slow_starts,
                    src=np.repeat(sources[slow], len(steps)),
                    proto=PROTO_TCP,
                    count=np.full(len(slow_starts), 3),
                    packet_bytes=54,
                    distinct_dsts=np.full(len(slow_starts), 3),
                    port_set=443,
                    tcp_flags=TCP_SYN | TCP_ACK,
                ),
            ],
            (),
        )


def _rows(
    ts: np.ndarray,
    src: np.ndarray,
    proto: int,
    count: np.ndarray,
    packet_bytes: int,
    distinct_dsts: np.ndarray,
    port_set,
    tcp_flags: int = 0,
    icmp_type: int = -1,
) -> PacketColumns:
    """Noise rows sharing one shape; scalars broadcast to every row."""
    n = len(ts)

    def full(value):
        return np.broadcast_to(value, (n,))

    return PacketColumns(
        ts=ts,
        src=src,
        proto=full(proto),
        count=count,
        bytes=count * packet_bytes,
        distinct_dsts=distinct_dsts,
        port_set=full(port_set),
        tcp_flags=full(tcp_flags),
        icmp_type=full(icmp_type),
        quoted_proto=full(-1),
    )


class NetworkTelescope:
    """Assembles the full time-sorted capture the detector consumes."""

    def __init__(
        self,
        prefix: Prefix = DEFAULT_TELESCOPE_PREFIX,
        backscatter: BackscatterModel = None,
        noise: TelescopeNoise = None,
    ) -> None:
        self.prefix = prefix
        fraction = prefix.size / float(1 << 32)
        if backscatter is None:
            backscatter = BackscatterModel(
                BackscatterConfig(telescope_fraction=fraction)
            )
        self.backscatter = backscatter
        self.noise = noise

    def noise_columns(self, n_days: int) -> PacketColumns:
        """The window's noise rows (none without a noise model or days)."""
        if self.noise is None or n_days <= 0:
            return PacketColumns.empty()
        return self.noise.columns(n_days)

    def capture_columns(
        self,
        attacks: Iterable[GroundTruthAttack],
        n_days: int = 0,
        noise: Optional[PacketColumns] = None,
    ) -> PacketColumns:
        """Observe *attacks* plus *noise*, time-sorted.

        *noise* is one victim partition's slice of :meth:`noise_columns`
        when the pipeline synthesizes partition by partition. None draws
        the whole window's noise, which makes the whole capture the
        one-partition case. Ties keep backscatter rows in attack-id
        order ahead of noise, so the capture is a function of the attack
        set, not its order.
        """
        if noise is None:
            noise = self.noise_columns(n_days)
        attacked = self.backscatter.columns(attacks)
        return PacketColumns.concat(
            [attacked, noise], attacked.port_sets
        ).time_sorted()

    def capture(
        self, attacks: Iterable[GroundTruthAttack], n_days: int = 0
    ) -> List[PacketBatch]:
        """:meth:`capture_columns` as :class:`PacketBatch` objects."""
        return self.capture_columns(attacks, n_days).batches()
