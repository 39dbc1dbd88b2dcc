"""The ten DPS providers and their detection signatures.

Each provider diverts customer traffic via DNS (CNAME onto the provider's
edge, or full NS delegation) or via BGP (announcing the customer's — or its
own scrubbing — prefix). Market-share weights derive from Table 3 of the
paper (millions of protected Web sites per provider) and steer which
provider a migrating customer picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.distributions import cumulative_weights, weighted_pick
from repro.internet.topology import InternetTopology
from repro.net.addressing import Prefix

METHOD_CNAME = "cname"
METHOD_NS = "ns"
METHOD_BGP = "bgp"

# (name, diversion method, Table 3 share in millions of Web sites).
PROVIDER_TABLE: Sequence[Tuple[str, str, float]] = (
    ("Akamai", METHOD_CNAME, 5.86),
    ("CenturyLink", METHOD_BGP, 0.87),
    ("CloudFlare", METHOD_NS, 4.27),
    ("DOSarrest", METHOD_CNAME, 7.04),
    ("F5 Networks", METHOD_CNAME, 3.58),
    ("Incapsula", METHOD_CNAME, 3.78),
    ("Level3", METHOD_BGP, 0.47),
    ("Neustar", METHOD_NS, 10.78),
    ("Verisign", METHOD_CNAME, 4.34),
    ("VirtualRoad", METHOD_NS, 0.0001),
)


@dataclass(frozen=True)
class DPSProvider:
    """One protection service and the signatures that identify it."""

    name: str
    method: str
    cname_suffix: str
    ns_suffix: str
    prefix: Prefix
    asn: int
    market_share: float

    #: Size of the shared reverse-proxy pool customers resolve to. Keeping
    #: it tiny concentrates protected sites on a few addresses — the paper
    #: found a single DOSarrest-routed IP fronting millions of Web sites.
    EDGE_POOL_SIZE = 2

    def edge_addresses(self) -> List[int]:
        """The provider's shared reverse-proxy addresses."""
        return [self.prefix.network + i for i in range(self.EDGE_POOL_SIZE)]

    def edge_address(self, rng) -> int:
        """A reverse-proxy address for a newly onboarded customer."""
        return self.prefix.network + rng.randrange(self.EDGE_POOL_SIZE)

    def protection_cname(self, domain_name: str) -> Optional[str]:
        """The CNAME a protected customer's `www` expands through."""
        if self.method != METHOD_CNAME:
            return None
        label = domain_name.replace(".", "-")
        return f"{label}{self.cname_suffix}"

    def protection_ns(self) -> Tuple[str, ...]:
        """Name servers a fully delegated customer uses."""
        if self.method != METHOD_NS:
            return ()
        slug = self.ns_suffix.lstrip(".")
        return (f"ns1{self.ns_suffix}", f"ns2{self.ns_suffix}")

    def matches_cname(self, cname: Optional[str]) -> bool:
        return bool(cname) and cname.endswith(self.cname_suffix)

    def matches_ns(self, ns_names: Sequence[str]) -> bool:
        return any(name.endswith(self.ns_suffix) for name in ns_names)

    def matches_address(self, address: int) -> bool:
        return self.prefix.contains(address)


def build_providers(topology: InternetTopology) -> List[DPSProvider]:
    """Instantiate the ten providers over the topology's DPS allocations."""
    providers: List[DPSProvider] = []
    for name, method, share in PROVIDER_TABLE:
        autonomous_system = topology.as_by_name(name)
        if autonomous_system is None or not autonomous_system.prefixes:
            raise ValueError(f"topology lacks an AS for DPS provider {name!r}")
        slug = name.lower().replace(" ", "-")
        providers.append(
            DPSProvider(
                name=name,
                method=method,
                cname_suffix=f".{slug}-shield.example",
                ns_suffix=f".{slug}-dns.example",
                prefix=autonomous_system.prefixes[0],
                asn=autonomous_system.asn,
                market_share=share,
            )
        )
    return providers


def provider_by_name(
    providers: Sequence[DPSProvider], name: str
) -> Optional[DPSProvider]:
    return next((p for p in providers if p.name == name), None)


def provider_cum_weights(providers: Sequence[DPSProvider]) -> List[float]:
    """The cumulative market shares :func:`choose_provider` draws from."""
    return cumulative_weights(p.market_share for p in providers)


def choose_provider(
    providers: Sequence[DPSProvider],
    rng,
    cum_weights: Optional[Sequence[float]] = None,
) -> DPSProvider:
    """Market-share-weighted provider choice for a migrating customer.

    One ``rng.random()`` draw, the value ``rng.choices(providers,
    weights=<market shares>)`` picks. *cum_weights* is
    :func:`provider_cum_weights` of *providers*: a caller that draws
    many times (the migration simulator) builds it once, and it is
    built here when omitted.
    """
    if cum_weights is None:
        cum_weights = provider_cum_weights(providers)
    return weighted_pick(rng, providers, cum_weights)
