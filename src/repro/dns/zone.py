"""Zone generation: the synthetic `.com` / `.net` / `.org` registries.

Each generated domain receives a hosting placement from the hosting
ecosystem — a shared platform IP (with the platform's NS, and a
customer-specific CNAME when the platform itself lives in a cloud) or a
dedicated self-hosted address. The resulting per-TLD share and co-hosting
skew are what drive the Web-impact analysis of Section 5.

DPS state (preexisting customers, migrations) is deliberately *not* decided
here: the :mod:`repro.dps.migration_sim` behavioural model edits the
timelines this module produces, keeping DNS and protection concerns layered
the way the real data sets are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.distributions import cumulative_weights, weighted_pick
from repro.dns.records import DomainTimeline, HostingState
from repro.internet.hosting import HostingEcosystem

# Paper Table 2: 173.7 M / 21.6 M / 14.7 M Web sites -> shares.
DEFAULT_TLD_SHARES: Dict[str, float] = {"com": 0.827, "net": 0.103, "org": 0.070}


@dataclass(frozen=True)
class ZoneConfig:
    """Scale and composition of the synthetic namespace."""

    seed: int = 7
    n_domains: int = 8000
    n_days: int = 120
    tld_shares: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_TLD_SHARES)
    )
    www_fraction: float = 0.88  # domains with a Web presence
    # Fraction of domains registered during (not before) the window.
    registered_during_window: float = 0.12
    mx_fraction: float = 0.65


@dataclass
class Zone:
    """One TLD's registry."""

    tld: str
    domains: List[DomainTimeline] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.domains)

    def web_domains(self) -> Iterator[DomainTimeline]:
        """Domains with a `www` label (the paper's Web-site criterion)."""
        return (d for d in self.domains if d.has_www)


class ZoneGenerator:
    """Builds all zones on top of a hosting ecosystem."""

    def __init__(
        self, ecosystem: HostingEcosystem, config: ZoneConfig = ZoneConfig()
    ) -> None:
        if config.n_domains <= 0:
            raise ValueError("need at least one domain")
        total_share = sum(config.tld_shares.values())
        if not 0.99 <= total_share <= 1.01:
            raise ValueError("tld shares must sum to ~1")
        self.ecosystem = ecosystem
        self.config = config
        self._rng = Random(config.seed)
        self._self_hosted_ips: List[int] = []

    def generate(self) -> List[Zone]:
        """Generate every TLD's zone deterministically."""
        rng, cfg = self._rng, self.config
        zones = {tld: Zone(tld) for tld in cfg.tld_shares}
        tlds = list(cfg.tld_shares)
        tld_cum_weights = cumulative_weights(cfg.tld_shares[t] for t in tlds)
        for index in range(cfg.n_domains):
            tld = weighted_pick(rng, tlds, tld_cum_weights)
            domain = self._generate_domain(index, tld)
            zones[tld].domains.append(domain)
        return [zones[t] for t in tlds]

    def self_hosted_web_ips(self) -> List[int]:
        """Dedicated Web-server addresses allocated so far (target pool)."""
        return list(self._self_hosted_ips)

    def _generate_domain(self, index: int, tld: str) -> DomainTimeline:
        rng, cfg = self._rng, self.config
        name = f"site-{index:06d}.{tld}"
        if rng.random() < cfg.registered_during_window:
            registered_day = rng.randrange(1, max(2, cfg.n_days))
        else:
            registered_day = 0
        has_www = rng.random() < cfg.www_fraction
        domain = DomainTimeline(
            name=name, tld=tld, registered_day=registered_day, has_www=has_www
        )
        domain.set_state(registered_day, self._initial_state(name, rng))
        return domain

    def _initial_state(self, name: str, rng: Random) -> HostingState:
        cfg = self.config
        hoster = self.ecosystem.choose_placement(rng)
        if hoster is None:
            ip = self.ecosystem.allocate_self_hosted_ip(rng)
            self._self_hosted_ips.append(ip)
            return HostingState(
                ip=ip,
                hoster=None,
                cname=None,
                ns=(f"ns1.registrar.example", f"ns2.registrar.example"),
                mx_ip=ip if rng.random() < cfg.mx_fraction else None,
            )
        label = name.split(".", 1)[0]
        cname = f"{label}{hoster.cname_suffix}" if hoster.cname_suffix else None
        mx_ip = None
        if hoster.mail_ips and rng.random() < cfg.mx_fraction:
            mx_ip = rng.choice(hoster.mail_ips)
        return HostingState(
            ip=hoster.pick_ip(rng),
            hoster=hoster.name,
            cname=cname,
            ns=hoster.ns_names,
            mx_ip=mx_ip,
        )


def domains_by_hoster(zones: Sequence[Zone]) -> Dict[Optional[str], List[DomainTimeline]]:
    """Group all domains by the hoster of their *initial* placement."""
    grouped: Dict[Optional[str], List[DomainTimeline]] = {}
    for zone in zones:
        for domain in zone.domains:
            state = domain.states()[0] if domain.states() else None
            key = state.hoster if state else None
            grouped.setdefault(key, []).append(domain)
    return grouped
