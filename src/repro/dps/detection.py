"""DPS-use detection from DNS snapshots (Jonker et al. IMC'16 methodology).

A Web site is classified as protected by a provider on a given day when its
snapshot records show (in priority order): a CNAME expanding through the
provider's edge, NS delegation to the provider, an A record inside a
provider-announced prefix, or an A record inside a customer prefix the
provider announced on the victim's behalf (BGP diversion, tracked by the
:class:`BGPDiversionLog`).

Scanning every domain every day would repeat identical work; timelines are
piecewise-constant, so the scanner evaluates each domain only on its
hosting-change days, producing identical results to a daily crawl.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dns.records import DomainTimeline, HostingState, ResourceRecord, RRTYPE_A, RRTYPE_CNAME, RRTYPE_NS
from repro.dns.zone import Zone
from repro.dps.providers import DPSProvider
from repro.net.addressing import Prefix


@dataclass(frozen=True)
class DPSUsage:
    """First observed protection of one Web site."""

    domain: str  # www name
    provider: str
    first_day: int


@dataclass
class BGPDiversionLog:
    """Customer prefixes announced by a DPS from a given day onward."""

    _entries: List[Tuple[Prefix, str, int]] = field(default_factory=list)

    def divert(self, prefix: Prefix, provider: str, from_day: int) -> None:
        self._entries.append((prefix, provider, from_day))

    def provider_for(self, address: int, day: int) -> Optional[str]:
        """Provider diverting *address* on *day*, most-specific match."""
        best: Optional[Tuple[int, str]] = None
        for prefix, provider, from_day in self._entries:
            if day >= from_day and prefix.contains(address):
                if best is None or prefix.length > best[0]:
                    best = (prefix.length, provider)
        return best[1] if best else None

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class DPSUsageDataset:
    """All detected protection usage over the window (the 4th data set)."""

    usages: List[DPSUsage]
    n_days: int

    def first_day_by_domain(self) -> Dict[str, int]:
        result: Dict[str, int] = {}
        for usage in self.usages:
            existing = result.get(usage.domain)
            if existing is None or usage.first_day < existing:
                result[usage.domain] = usage.first_day
        return result

    def provider_site_counts(self) -> Dict[str, int]:
        """Web sites ever associated with each provider (Table 3)."""
        seen: Dict[str, set] = {}
        for usage in self.usages:
            seen.setdefault(usage.provider, set()).add(usage.domain)
        return {provider: len(domains) for provider, domains in seen.items()}


class DPSDetector:
    """Classifies protection from hosting states or raw snapshot records."""

    def __init__(
        self,
        providers: Sequence[DPSProvider],
        diversion_log: Optional[BGPDiversionLog] = None,
    ) -> None:
        if not providers:
            raise ValueError("need at least one provider signature")
        self.providers = list(providers)
        self.diversion_log = diversion_log
        # (cname, ns, ip) -> provider whose signature matches, or None.
        # Signatures do not change with the day, so each distinct state
        # is matched once; the diversion log does, and is never cached.
        self._signature_verdicts: Dict[
            Tuple[Optional[str], Tuple[str, ...], int], Optional[str]
        ] = {}

    def classify_state(
        self, state: HostingState, day: int = 0
    ) -> Optional[str]:
        """Provider protecting a hosting state, or None."""
        key = (state.cname, state.ns, state.ip)
        try:
            provider = self._signature_verdicts[key]
        except KeyError:
            provider = self._signature_verdicts[key] = self._match_signatures(
                state
            )
        if provider is None and self.diversion_log is not None:
            return self.diversion_log.provider_for(state.ip, day)
        return provider

    def _match_signatures(self, state: HostingState) -> Optional[str]:
        """The first provider whose CNAME, NS or prefix signature matches."""
        for provider in self.providers:
            if provider.matches_cname(state.cname):
                return provider.name
            if state.ns and provider.matches_ns(state.ns):
                return provider.name
            if provider.matches_address(state.ip):
                return provider.name
        return None

    def classify_records(
        self, www_name: str, records: Iterable[ResourceRecord], day: int = 0
    ) -> Optional[str]:
        """Classification from raw snapshot rows (the crawl-shaped input)."""
        cname: Optional[str] = None
        address: Optional[int] = None
        ns_names: List[str] = []
        for record in records:
            if record.rtype == RRTYPE_CNAME and record.name == www_name:
                cname = record.value
            elif record.rtype == RRTYPE_A and record.address is not None:
                if record.name == www_name or record.name == cname:
                    address = record.address
            elif record.rtype == RRTYPE_NS:
                ns_names.append(record.value)
        for provider in self.providers:
            if provider.matches_cname(cname):
                return provider.name
            if provider.matches_ns(ns_names):
                return provider.name
            if address is not None and provider.matches_address(address):
                return provider.name
        if self.diversion_log is not None and address is not None:
            return self.diversion_log.provider_for(address, day)
        return None

    def scan(self, zones: Sequence[Zone], n_days: int) -> DPSUsageDataset:
        """Detect first protection for every Web site over the window.

        Evaluates each domain at its hosting-change days only — equivalent
        to, but far cheaper than, classifying all daily snapshots. BGP
        diversions can begin between change days, so when a diversion log is
        present its entry days are also probed.
        """
        probe_days_extra: List[int] = []
        if self.diversion_log is not None:
            probe_days_extra = sorted(
                {day for _, _, day in self.diversion_log._entries}
            )
        usages: List[DPSUsage] = []
        for zone in zones:
            for domain in zone.domains:
                if not domain.has_www:
                    continue
                usage = self._first_usage(domain, n_days, probe_days_extra)
                if usage is not None:
                    usages.append(usage)
        return DPSUsageDataset(usages=usages, n_days=n_days)

    def _first_usage(
        self,
        domain: DomainTimeline,
        n_days: int,
        probe_days_extra: Sequence[int],
    ) -> Optional[DPSUsage]:
        probe_days = sorted(
            set(domain.change_days())
            | {d for d in probe_days_extra if d >= domain.registered_day}
        )
        for day in probe_days:
            if not 0 <= day < n_days:
                continue
            state = domain.state_on(day)
            if state is None:
                continue
            provider = self.classify_state(state, day)
            if provider is not None:
                first_day = max(day, domain.registered_day)
                return DPSUsage(domain.www_name, provider, first_day)
        return None
