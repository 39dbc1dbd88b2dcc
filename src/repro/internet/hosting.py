"""Hosting ecosystem: who serves the Web sites the DNS substrate publishes.

Co-hosting is the structural fact behind Section 5 of the paper: a single
attacked IP address can be associated with anywhere from one Web site to
millions (Figure 6 spans eight orders of magnitude). The ecosystem therefore
models hosting *tiers* — from self-hosted single-site IPs up to giant shared
platforms with millions of sites spread over a handful of addresses — and
names the parties the paper identifies (GoDaddy, Wix, Squarespace, OVH,
Automattic/WordPress, eNom, Network Solutions, EIG, Gandi, plus cloud
hosting in Google Cloud and Amazon AWS).

Some platforms host inside a cloud (Wix in AWS) and are only identifiable
through a customer-specific CNAME — the ecosystem records that so the DNS
and DPS layers can reproduce the paper's CNAME-based attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from random import Random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.distributions import cumulative_weights, weighted_pick
from repro.internet.topology import (
    AS_KIND_HOSTER,
    AS_KIND_ISP,
    AutonomousSystem,
    InternetTopology,
)

TIER_GIANT = "giant"
TIER_LARGE = "large"
TIER_MEDIUM = "medium"
TIER_SMALL = "small"
TIER_SELF = "self"

# (tier, ip-pool size, domain-popularity weight). The weight is the share of
# registered domains landing on that tier; pools being small relative to
# weight is what creates extreme co-hosting for the giant tier.
_TIER_SHAPES: Dict[str, Tuple[int, float]] = {
    TIER_GIANT: (48, 30.0),
    TIER_LARGE: (40, 18.0),
    TIER_MEDIUM: (48, 14.0),
    TIER_SMALL: (64, 8.0),
}

# Named platforms: (name, AS name in the topology, tier, cloud host AS name
# or None, popularity multiplier). Wix hosts in AWS and a domain reseller
# also lives in AWS — both identifiable only via CNAME, as in the paper.
_NAMED_PLATFORMS: Sequence[Tuple[str, str, str, Optional[str], float]] = (
    ("GoDaddy", "GoDaddy", TIER_GIANT, None, 2.5),
    ("Wix", "Wix-origin", TIER_GIANT, "Amazon AWS", 0.10),
    ("Automattic", "Automattic", TIER_GIANT, None, 1.2),
    ("Squarespace", "Squarespace", TIER_LARGE, None, 1.0),
    ("OVH", "OVH", TIER_LARGE, None, 1.0),
    ("eNom", "eNom", TIER_LARGE, None, 0.25),
    ("Network Solutions", "Network Solutions", TIER_LARGE, None, 0.7),
    ("EIG", "Endurance International", TIER_LARGE, None, 0.9),
    ("Gandi", "Gandi", TIER_MEDIUM, None, 0.5),
    ("Google Cloud", "Google Cloud", TIER_LARGE, None, 1.2),
    ("AWS reseller", "aws-reseller", TIER_GIANT, "Amazon AWS", 0.8),
)


@lru_cache(maxsize=None)
def _zipf_cum_weights(n: int) -> Tuple[float, ...]:
    """Cumulative :meth:`Hoster.ip_weights` of an *n*-address pool."""
    return tuple(cumulative_weights(1.0 / (index + 1) for index in range(n)))


@dataclass
class Hoster:
    """A Web hosting platform (or the synthetic self-hosting pseudo-hoster)."""

    name: str
    asn: int
    tier: str
    ips: List[int]
    popularity: float
    ns_names: Tuple[str, ...] = ()
    cname_suffix: Optional[str] = None
    hosted_in: Optional[str] = None
    mail_ips: List[int] = field(default_factory=list)

    def ip_weights(self) -> List[float]:
        """Zipf-skewed load across the pool: real platforms concentrate
        customers on a few front-end addresses, producing the smooth
        co-hosting continuum of the paper's Figure 6."""
        return [1.0 / (index + 1) for index in range(len(self.ips))]

    def pick_ip(self, rng: Random) -> int:
        """Choose a shared hosting IP for a new customer site."""
        return weighted_pick(rng, self.ips, _zipf_cum_weights(len(self.ips)))


@dataclass(frozen=True)
class HostingConfig:
    """Parameters of the hosting ecosystem."""

    seed: int = 2
    n_anonymous_hosters: int = 40
    self_hosting_weight: float = 30.0
    mail_ips_per_hoster: int = 2


class HostingEcosystem:
    """All hosters plus the self-hosting IP pool and placement logic."""

    def __init__(
        self,
        hosters: List[Hoster],
        topology: InternetTopology,
        config: HostingConfig,
    ) -> None:
        self.hosters = hosters
        self.config = config
        self._topology = topology
        self._rng = Random(config.seed ^ 0x5E1F)
        self._self_hosted_used: Set[int] = set()
        self._isp_ases = [
            a for a in topology.ases if a.kind in (AS_KIND_ISP, "enterprise")
        ]
        if not self._isp_ases:
            raise ValueError("topology has no ISP/enterprise space to self-host in")
        self._names = {h.name: h for h in hosters}
        self._weights = [h.popularity for h in hosters]
        self._total_hosted = sum(self._weights)
        self._cum_weights = cumulative_weights(self._weights)

    def hoster_by_name(self, name: str) -> Optional[Hoster]:
        return self._names.get(name)

    def choose_placement(self, rng: Random) -> Optional[Hoster]:
        """Pick a hoster for a new domain; ``None`` means self-hosted.

        The self-hosting branch wins with probability proportional to
        ``config.self_hosting_weight`` against the summed hoster
        popularities.
        """
        pick = rng.uniform(
            0.0, self._total_hosted + self.config.self_hosting_weight
        )
        if pick >= self._total_hosted:
            return None
        return weighted_pick(rng, self.hosters, self._cum_weights)

    def allocate_self_hosted_ip(self, rng: Random) -> int:
        """A fresh, unique IP in ISP/enterprise space for a self-hosted site."""
        for _ in range(10_000):
            autonomous_system = rng.choice(self._isp_ases)
            address = autonomous_system.random_address(rng)
            if address not in self._self_hosted_used:
                self._self_hosted_used.add(address)
                return address
        raise RuntimeError("could not find a free self-hosting address")

    def all_hosting_ips(self) -> List[int]:
        """Every shared hosting IP across hosters (mail IPs excluded)."""
        ips: List[int] = []
        for hoster in self.hosters:
            ips.extend(hoster.ips)
        return ips

    @classmethod
    def generate(
        cls, topology: InternetTopology, config: HostingConfig = HostingConfig()
    ) -> "HostingEcosystem":
        """Build the ecosystem on top of an existing topology."""
        rng = Random(config.seed)
        hosters: List[Hoster] = []

        for name, as_name, tier, cloud_name, multiplier in _NAMED_PLATFORMS:
            home = _resolve_home_as(topology, as_name, cloud_name)
            if home is None:
                continue
            pool_size, weight = _TIER_SHAPES[tier]
            ips = _draw_unique_ips(home, pool_size, rng)
            mail_ips = _draw_unique_ips(home, config.mail_ips_per_hoster, rng)
            slug = name.lower().replace(" ", "-")
            hosters.append(
                Hoster(
                    name=name,
                    asn=home.asn,
                    tier=tier,
                    ips=ips,
                    popularity=weight * multiplier,
                    ns_names=(f"ns1.{slug}.example", f"ns2.{slug}.example"),
                    cname_suffix=f".{slug}.example" if cloud_name else None,
                    hosted_in=cloud_name,
                    mail_ips=mail_ips,
                )
            )

        candidates = [
            a
            for a in topology.ases_of_kind(AS_KIND_HOSTER)
            if a.name == f"AS{a.asn}"  # anonymous ASes only
        ]
        rng.shuffle(candidates)
        tiers = [TIER_MEDIUM, TIER_SMALL, TIER_SMALL, TIER_SMALL]
        for index, home in enumerate(candidates[: config.n_anonymous_hosters]):
            tier = tiers[index % len(tiers)]
            pool_size, weight = _TIER_SHAPES[tier]
            slug = f"hoster{index}"
            hosters.append(
                Hoster(
                    name=slug,
                    asn=home.asn,
                    tier=tier,
                    ips=_draw_unique_ips(home, pool_size, rng),
                    popularity=weight / max(1, config.n_anonymous_hosters // 8),
                    ns_names=(f"ns1.{slug}.example", f"ns2.{slug}.example"),
                    mail_ips=_draw_unique_ips(
                        home, config.mail_ips_per_hoster, rng
                    ),
                )
            )

        return cls(hosters, topology, config)


def _resolve_home_as(
    topology: InternetTopology, as_name: str, cloud_name: Optional[str]
) -> Optional[AutonomousSystem]:
    """The AS whose space the platform's IPs live in.

    Cloud-hosted platforms (Wix, the AWS reseller) have no AS of their own:
    their addresses come out of the cloud provider's allocation.
    """
    if cloud_name is not None:
        return topology.as_by_name(cloud_name)
    return topology.as_by_name(as_name)


def _draw_unique_ips(
    autonomous_system: AutonomousSystem, count: int, rng: Random
) -> List[int]:
    """Draw *count* distinct addresses from one AS's space."""
    seen: Set[int] = set()
    while len(seen) < count:
        seen.add(autonomous_system.random_address(rng))
    return sorted(seen)
