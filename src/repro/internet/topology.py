"""Synthetic AS-level Internet topology.

The generator allocates IPv4 prefixes to autonomous systems with a
heavy-tailed size distribution and a country skew that mirrors published
address-space-usage estimates (Dainotti et al., "Lost in Space", JSAC 2016):
the US holds roughly 30 % of used space, China ~12 %, Japan ~6 %, and so on.
The paper's per-country attack rankings (Table 4) deviate from space usage
for a few countries (France/OVH and Russia over-attacked, Japan
under-attacked); that deviation is a property of *attacker targeting*, so it
lives in :mod:`repro.attacks.schedule`, not here.

A handful of named ASes reproduce the organisations the paper discusses by
name; everything else is an anonymous AS in a weighted country draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.distributions import cumulative_weights, weighted_pick
from repro.net.addressing import Prefix
from repro.net.geo import GeoDatabase
from repro.net.routing import RoutingTable

# Share of *used* IPv4 address space per country, first-order approximation
# of the "Lost in Space" estimates the paper cites. Values are weights, not
# exact percentages; they are normalized at draw time.
COUNTRY_SPACE_WEIGHTS: Dict[str, float] = {
    "US": 30.0,
    "CN": 12.0,
    "JP": 6.3,
    "DE": 5.0,
    "GB": 4.5,
    "KR": 4.0,
    "FR": 3.8,
    "BR": 3.3,
    "RU": 3.0,
    "CA": 2.8,
    "IT": 2.4,
    "AU": 2.2,
    "NL": 2.0,
    "IN": 1.9,
    "MX": 1.5,
    "ES": 1.4,
    "TW": 1.3,
    "SE": 1.1,
    "PL": 1.0,
    "AR": 0.9,
}

# AS kinds drive how the hosting ecosystem and the attack scheduler treat an
# AS (eyeball ISPs attract gaming attacks, hosters attract Web attacks, ...).
AS_KIND_ISP = "isp"
AS_KIND_HOSTER = "hoster"
AS_KIND_CLOUD = "cloud"
AS_KIND_DPS = "dps"
AS_KIND_ENTERPRISE = "enterprise"

# Named organisations from the paper: (name, asn, country, kind,
# number of /16 allocations). ASNs are the real-world ones where public.
NAMED_ORGANISATIONS: Sequence[Tuple[str, int, str, str, int]] = (
    ("OVH", 16276, "FR", AS_KIND_HOSTER, 4),
    ("GoDaddy", 26496, "US", AS_KIND_HOSTER, 4),
    ("Google Cloud", 15169, "US", AS_KIND_CLOUD, 4),
    ("Amazon AWS", 16509, "US", AS_KIND_CLOUD, 4),
    ("China Telecom", 4134, "CN", AS_KIND_ISP, 6),
    ("China Unicom", 4837, "CN", AS_KIND_ISP, 5),
    # Eyeball giants: without them, space-weighted victim selection would
    # let a single randomly-countried Pareto-tail AS swing the Table 4
    # rankings. Sizes follow each carrier's rough share of used space.
    ("Comcast", 7922, "US", AS_KIND_ISP, 7),
    ("AT&T", 7018, "US", AS_KIND_ISP, 6),
    ("Verizon", 701, "US", AS_KIND_ISP, 5),
    ("Charter", 20115, "US", AS_KIND_ISP, 4),
    ("Deutsche Telekom", 3320, "DE", AS_KIND_ISP, 4),
    ("Orange", 3215, "FR", AS_KIND_ISP, 3),
    ("Rostelecom", 12389, "RU", AS_KIND_ISP, 3),
    ("NTT", 2914, "JP", AS_KIND_ISP, 5),
    ("Korea Telecom", 4766, "KR", AS_KIND_ISP, 4),
    ("BT", 2856, "GB", AS_KIND_ISP, 3),
    ("Telecom Italia", 3269, "IT", AS_KIND_ISP, 2),
    ("Telmex", 8151, "MX", AS_KIND_ISP, 2),
    ("Squarespace", 53831, "US", AS_KIND_HOSTER, 1),
    ("Automattic", 2635, "US", AS_KIND_HOSTER, 1),
    ("eNom", 21740, "US", AS_KIND_HOSTER, 1),
    ("Network Solutions", 19871, "US", AS_KIND_HOSTER, 1),
    ("Endurance International", 46606, "US", AS_KIND_HOSTER, 2),
    ("Gandi", 29169, "FR", AS_KIND_HOSTER, 1),
    # DPS providers announce protection prefixes (BGP-based diversion).
    ("Akamai", 20940, "US", AS_KIND_DPS, 2),
    ("CenturyLink", 209, "US", AS_KIND_DPS, 1),
    ("CloudFlare", 13335, "US", AS_KIND_DPS, 2),
    ("DOSarrest", 19324, "CA", AS_KIND_DPS, 1),
    ("F5 Networks", 55002, "US", AS_KIND_DPS, 1),
    ("Incapsula", 19551, "US", AS_KIND_DPS, 1),
    ("Level3", 3356, "US", AS_KIND_DPS, 1),
    ("Neustar", 19905, "US", AS_KIND_DPS, 1),
    ("Verisign", 26134, "US", AS_KIND_DPS, 1),
    ("VirtualRoad", 206264, "DK", AS_KIND_DPS, 1),
)

# The darknet: a /8 with no hosts, operated as a network telescope.
TELESCOPE_SLASH8 = Prefix.from_string("44.0.0.0/8")


@dataclass
class AutonomousSystem:
    """An autonomous system with its announced prefixes."""

    asn: int
    name: str
    country: str
    kind: str
    prefixes: List[Prefix] = field(default_factory=list)

    @property
    def address_count(self) -> int:
        return sum(prefix.size for prefix in self.prefixes)

    def slash24_blocks(self) -> Iterator[int]:
        for prefix in self.prefixes:
            yield from prefix.slash24_blocks()

    def random_address(self, rng: Random) -> int:
        """Uniform address across all announced prefixes."""
        total = self.address_count
        offset = rng.randrange(total)
        for prefix in self.prefixes:
            if offset < prefix.size:
                return prefix.network + offset
            offset -= prefix.size
        raise AssertionError("offset exhausted prefix list")


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters of the synthetic topology."""

    seed: int = 1
    n_ases: int = 600
    # Pareto shape for AS sizes, in /24 units; heavier tail -> bigger ISPs.
    as_size_alpha: float = 1.3
    min_slash24s_per_as: int = 2
    max_slash24s_per_as: int = 384
    # Fraction of allocated /24s considered "active" by the census.
    active_fraction: float = 0.55
    isp_fraction: float = 0.70
    hoster_fraction: float = 0.12
    cloud_fraction: float = 0.05
    enterprise_fraction: float = 0.13


class InternetTopology:
    """The generated Internet: ASes, routing table, geo DB, census inputs."""

    def __init__(
        self,
        ases: List[AutonomousSystem],
        routing: RoutingTable,
        geo: GeoDatabase,
        telescope_prefix: Prefix = TELESCOPE_SLASH8,
    ) -> None:
        self.ases = ases
        self.routing = routing
        self.geo = geo
        self.telescope_prefix = telescope_prefix
        self._by_asn: Dict[int, AutonomousSystem] = {a.asn: a for a in ases}
        self._by_name: Dict[str, AutonomousSystem] = {a.name: a for a in ases}

    def as_by_asn(self, asn: int) -> Optional[AutonomousSystem]:
        return self._by_asn.get(asn)

    def as_by_name(self, name: str) -> Optional[AutonomousSystem]:
        return self._by_name.get(name)

    def ases_of_kind(self, kind: str) -> List[AutonomousSystem]:
        return [a for a in self.ases if a.kind == kind]

    @property
    def total_slash24s(self) -> int:
        return sum(a.address_count for a in self.ases) // 256

    def all_slash24_blocks(self) -> Iterator[int]:
        for autonomous_system in self.ases:
            yield from autonomous_system.slash24_blocks()

    @classmethod
    def generate(cls, config: TopologyConfig = TopologyConfig()) -> "InternetTopology":
        """Deterministically generate a topology from *config*."""
        rng = Random(config.seed)
        allocator = _PrefixAllocator(skip=(TELESCOPE_SLASH8,))
        ases: List[AutonomousSystem] = []

        for name, asn, country, kind, n_slash16 in NAMED_ORGANISATIONS:
            prefixes = [allocator.take(16) for _ in range(n_slash16)]
            ases.append(AutonomousSystem(asn, name, country, kind, prefixes))

        countries = list(COUNTRY_SPACE_WEIGHTS)
        cum_weights = cumulative_weights(COUNTRY_SPACE_WEIGHTS[c] for c in countries)
        kind_choices = (
            [AS_KIND_ISP] * int(config.isp_fraction * 100)
            + [AS_KIND_HOSTER] * int(config.hoster_fraction * 100)
            + [AS_KIND_CLOUD] * int(config.cloud_fraction * 100)
            + [AS_KIND_ENTERPRISE] * int(config.enterprise_fraction * 100)
        )
        next_asn = 64512  # private ASN range for anonymous ASes
        for _ in range(config.n_ases):
            country = weighted_pick(rng, countries, cum_weights)
            kind = rng.choice(kind_choices)
            size = _pareto_slash24s(rng, config)
            prefixes = allocator.take_slash24s(size)
            ases.append(
                AutonomousSystem(next_asn, f"AS{next_asn}", country, kind, prefixes)
            )
            next_asn += 1

        routing = RoutingTable()
        allocations = []
        for autonomous_system in ases:
            for prefix in autonomous_system.prefixes:
                routing.announce(prefix, autonomous_system.asn)
                allocations.append((prefix, autonomous_system.country))
        geo = GeoDatabase.from_prefixes(allocations)
        return cls(ases, routing, geo)


def _pareto_slash24s(rng: Random, config: TopologyConfig) -> int:
    """Draw an AS size (in /24 blocks) from a bounded Pareto distribution."""
    draw = rng.paretovariate(config.as_size_alpha)
    size = int(config.min_slash24s_per_as * draw)
    return max(config.min_slash24s_per_as, min(config.max_slash24s_per_as, size))


class _PrefixAllocator:
    """Sequential prefix allocator that skips reserved space.

    Allocation starts at 1.0.0.0 and walks upward; the telescope /8,
    0.0.0.0/8, 10/8, 127/8, 224/3 and anything in *skip* are never handed
    out. Allocations are aligned to their size.
    """

    _RESERVED = (
        Prefix.from_string("0.0.0.0/8"),
        Prefix.from_string("10.0.0.0/8"),
        Prefix.from_string("127.0.0.0/8"),
        Prefix.from_string("224.0.0.0/3"),
    )

    def __init__(self, skip: Sequence[Prefix] = ()) -> None:
        self._skip = tuple(self._RESERVED) + tuple(skip)
        self._cursor = Prefix.from_string("1.0.0.0/8").network

    def take(self, length: int) -> Prefix:
        """Allocate the next aligned, unreserved prefix of *length*."""
        size = 1 << (32 - length)
        while True:
            base = (self._cursor + size - 1) // size * size
            candidate = Prefix(base, length)
            conflict = next(
                (r for r in self._skip if r.overlaps(candidate)), None
            )
            if conflict is None:
                self._cursor = candidate.last + 1
                return candidate
            self._cursor = conflict.last + 1
            if self._cursor > 0xFFFFFFFF:
                raise RuntimeError("IPv4 space exhausted by allocator")

    def take_slash24s(self, count: int) -> List[Prefix]:
        """Allocate *count* /24s as the smallest covering aligned prefixes."""
        prefixes: List[Prefix] = []
        remaining = count
        while remaining > 0:
            length = 24
            while length > 8 and (1 << (24 - (length - 1))) <= remaining:
                length -= 1
            prefixes.append(self.take(length))
            remaining -= 1 << (24 - length)
        return prefixes
