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
from repro.net.addressing import Prefix, mask_for, slash24


@dataclass(frozen=True)
class DPSUsage:
    """First observed protection of one Web site."""

    domain: str  # www name
    provider: str
    first_day: int


#: One indexed diversion: (insertion order, prefix, provider, from_day).
_Diversion = Tuple[int, Prefix, str, int]


@dataclass
class BGPDiversionLog:
    """Customer prefixes announced by a DPS from a given day onward.

    Entries are indexed by the /24 they cover: a prefix of length 24 or
    more lies inside one /24 and is filed under it, and a shorter one
    (an aggregate, which the migration model never announces) goes on a
    short side list. Finding the entries that cover an address is then
    one dict probe plus that list, not a scan of the whole log.
    """

    _entries: List[Tuple[Prefix, str, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        entries, self._entries = self._entries, []
        self._by_slash24: Dict[int, List[_Diversion]] = {}
        self._short: List[_Diversion] = []
        for prefix, provider, from_day in entries:
            self.divert(prefix, provider, from_day)

    # Pickles (checkpoints, fork results) carry the entries alone; the
    # index is rebuilt from them.
    def __getstate__(self) -> Dict[str, object]:
        return {"_entries": self._entries}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._entries = state["_entries"]
        self.__post_init__()

    def divert(self, prefix: Prefix, provider: str, from_day: int) -> None:
        entry = (len(self._entries), prefix, provider, from_day)
        self._entries.append((prefix, provider, from_day))
        if prefix.length >= 24:
            self._by_slash24.setdefault(slash24(prefix.network), []).append(
                entry
            )
        else:
            self._short.append(entry)

    def _covering(self, address: int) -> Sequence[_Diversion]:
        """The entries whose prefix contains *address*."""
        candidates = self._by_slash24.get(slash24(address), ())
        if self._short:
            candidates = [*candidates, *self._short]
        elif not candidates:
            return ()
        return [entry for entry in candidates if entry[1].contains(address)]

    def provider_for(self, address: int, day: int) -> Optional[str]:
        """Provider diverting *address* on *day*: the most specific
        match, the first diverted on a tie."""
        best: Optional[Tuple[Tuple[int, int], str]] = None
        for order, prefix, provider, from_day in self._covering(address):
            if day >= from_day:
                rank = (prefix.length, -order)
                if best is None or rank > best[0]:
                    best = (rank, provider)
        return best[1] if best else None

    def days_covering(self, address: int) -> List[int]:
        """The from-days of the entries whose prefix contains *address*:
        the only days its diversion verdict can change."""
        return [entry[3] for entry in self._covering(address)]

    def entries(self) -> List[Tuple[Prefix, str, int]]:
        """(prefix, provider, from_day) of every diversion, in order."""
        return list(self._entries)

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
        # Signatures in provider priority order (a provider's priority is
        # its index; the first provider wins a tie): the suffixes, and
        # prefix netmask -> {network: priority}.
        self._cname_suffixes = tuple(p.cname_suffix for p in self.providers)
        self._ns_suffixes = tuple(p.ns_suffix for p in self.providers)
        self._networks: Dict[int, Dict[int, int]] = {}
        for priority, provider in enumerate(self.providers):
            prefix = provider.prefix
            self._networks.setdefault(mask_for(prefix.length), {}).setdefault(
                prefix.network, priority
            )

    def classify_state(
        self, state: HostingState, day: int = 0
    ) -> Optional[str]:
        """Provider protecting a hosting state, or None."""
        key = (state.cname, state.ns, state.ip)
        try:
            provider = self._signature_verdicts[key]
        except KeyError:
            provider = self._signature_verdicts[key] = self._match_signatures(
                state.cname, state.ns, state.ip
            )
        if provider is None and self.diversion_log is not None:
            return self.diversion_log.provider_for(state.ip, day)
        return provider

    def _match_signatures(
        self,
        cname: Optional[str],
        ns_names: Sequence[str],
        address: Optional[int],
    ) -> Optional[str]:
        """The highest-priority provider any signature matches: the
        first in :attr:`providers` whose CNAME suffix ends *cname*, whose
        NS suffix ends one of *ns_names*, or whose prefix holds
        *address*."""
        matches = []
        if cname:
            matches.append(_suffix_priority(self._cname_suffixes, cname))
        for name in ns_names:
            matches.append(_suffix_priority(self._ns_suffixes, name))
        if address is not None:
            for mask, networks in self._networks.items():
                matches.append(networks.get(address & mask))
        found = [priority for priority in matches if priority is not None]
        return self.providers[min(found)].name if found else None

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
        provider = self._match_signatures(cname, ns_names, address)
        if provider is None and self.diversion_log is not None and address is not None:
            return self.diversion_log.provider_for(address, day)
        return provider

    def scan(self, zones: Sequence[Zone], n_days: int) -> DPSUsageDataset:
        """Detect first protection for every Web site over the window.

        Evaluates each domain at its hosting-change days only — equivalent
        to, but far cheaper than, classifying all daily snapshots. BGP
        diversions can begin between change days, so the day a diversion
        covering one of the domain's addresses begins is also probed.
        """
        usages: List[DPSUsage] = []
        for zone in zones:
            for domain in zone.domains:
                if not domain.has_www:
                    continue
                usage = self._first_usage(domain, n_days)
                if usage is not None:
                    usages.append(usage)
        return DPSUsageDataset(usages=usages, n_days=n_days)

    def _first_usage(
        self, domain: DomainTimeline, n_days: int
    ) -> Optional[DPSUsage]:
        """The first probe day on which *domain* is protected.

        A state's verdict changes only on its own change day or when a
        diversion covering its address begins, so those are the only
        days probed. (A diversion of another address cannot change the
        verdict: the state in force that day was already probed on its
        change day, which is earlier, as change days fall on or after
        registration.)
        """
        probe_days: Sequence[int] = domain.change_days()
        if self.diversion_log is not None:
            registered = domain.registered_day
            diversion_days = {
                day
                for state in domain.states()
                for day in self.diversion_log.days_covering(state.ip)
                if day >= registered
            }
            if diversion_days:
                probe_days = sorted(diversion_days.union(probe_days))
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


def _suffix_priority(suffixes: Tuple[str, ...], name: str) -> Optional[int]:
    """Priority of the first provider whose suffix ends *name*: one
    ``endswith`` over all of them rules out the usual non-match."""
    if not name.endswith(suffixes):
        return None
    return next(
        priority
        for priority, suffix in enumerate(suffixes)
        if name.endswith(suffix)
    )
