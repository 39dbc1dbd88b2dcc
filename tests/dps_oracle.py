"""The linear loops of the layers that scale with domains, kept as oracles.

Migration, the DPS scan, fusion and site association each used to redo
work whose answer was already settled; the production code now skips
it. This module keeps the old loops verbatim, so the new paths can be
checked against them:

* :func:`provider_for` scans the whole diversion log for every lookup
  (:meth:`repro.dps.detection.BGPDiversionLog.provider_for` probes one
  /24 bucket and the short side list);
* :func:`scan` matches every provider's signatures one by one and probes
  every diversion entry's day for every domain
  (:meth:`repro.dps.detection.DPSDetector.scan` probes only the days of
  entries that cover one of the domain's addresses);
* :class:`VisitEveryDomain` reacts to each attack by visiting every
  domain of the target IP, settled or not
  (:class:`repro.dps.migration_sim.MigrationSimulator` prunes settled
  domains from per-IP live lists);
* :func:`annotated` copies every event through ``dataclasses.replace``
  with its own geo and routing lookups, and :func:`combined` sorts the
  concatenation of two feeds
  (:meth:`repro.core.events.AttackDataset.annotated` looks up once per
  victim, and :class:`repro.core.fusion.FusedDataset` merges);
* :func:`first_attack_days` asks the hosting index for every event's
  sites (:meth:`repro.core.webmap.WebImpactAnalysis.first_attack_days`
  bisects each target's sorted start days once per hosting segment).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.events import AttackDataset, AttackEvent
from repro.core.webmap import WebHostingIndex
from repro.dns.records import DomainTimeline, HostingState
from repro.dns.zone import Zone
from repro.dps.detection import DPSUsage, DPSUsageDataset
from repro.dps.migration_sim import DAY, MigrationRecord, MigrationSimulator
from repro.dps.providers import DPSProvider
from repro.net.addressing import Prefix
from repro.net.geo import GeoDatabase
from repro.net.routing import RoutingTable

#: (prefix, provider, from_day), in the order the diversions were made.
Entries = Sequence[Tuple[Prefix, str, int]]


# -- DPS scan ----------------------------------------------------------------------


def provider_for(entries: Entries, address: int, day: int) -> Optional[str]:
    """Provider diverting *address* on *day*, most-specific match."""
    best: Optional[Tuple[int, str]] = None
    for prefix, provider, from_day in entries:
        if day >= from_day and prefix.contains(address):
            if best is None or prefix.length > best[0]:
                best = (prefix.length, provider)
    return best[1] if best else None


def match_signatures(
    providers: Sequence[DPSProvider], state: HostingState
) -> Optional[str]:
    """The first provider whose CNAME, NS or prefix signature matches."""
    for provider in providers:
        if provider.matches_cname(state.cname):
            return provider.name
        if state.ns and provider.matches_ns(state.ns):
            return provider.name
        if provider.matches_address(state.ip):
            return provider.name
    return None


def classify_state(
    providers: Sequence[DPSProvider],
    entries: Entries,
    state: HostingState,
    day: int,
) -> Optional[str]:
    provider = match_signatures(providers, state)
    if provider is None:
        return provider_for(entries, state.ip, day)
    return provider


def first_usage(
    providers: Sequence[DPSProvider],
    entries: Entries,
    domain: DomainTimeline,
    n_days: int,
) -> Optional[DPSUsage]:
    """Probe every change day and every diversion entry's day."""
    probe_days = sorted(
        set(domain.change_days())
        | {day for _, _, day in entries if day >= domain.registered_day}
    )
    for day in probe_days:
        if not 0 <= day < n_days:
            continue
        state = domain.state_on(day)
        if state is None:
            continue
        provider = classify_state(providers, entries, state, day)
        if provider is not None:
            first_day = max(day, domain.registered_day)
            return DPSUsage(domain.www_name, provider, first_day)
    return None


def scan(
    providers: Sequence[DPSProvider],
    entries: Entries,
    zones: Sequence[Zone],
    n_days: int,
) -> DPSUsageDataset:
    usages: List[DPSUsage] = []
    for zone in zones:
        for domain in zone.domains:
            if not domain.has_www:
                continue
            usage = first_usage(providers, entries, domain, n_days)
            if usage is not None:
                usages.append(usage)
    return DPSUsageDataset(usages=usages, n_days=n_days)


# -- migration ------------------------------------------------------------------


class VisitEveryDomain(MigrationSimulator):
    """The simulator whose reaction visits every domain of the attacked
    IP on every attack, however settled."""

    def _react_to_attacks(self, attacks, index, n_days) -> None:
        rng, cfg = self._rng, self.config
        trials: Dict[str, int] = {}
        for attack in attacks:
            domains = index.get(attack.target)
            if not domains:
                continue
            day = int(attack.start // DAY)
            z = self._standardized_intensity(attack)
            prob_scale = min(
                cfg.intensity_prob_cap,
                math.exp(cfg.intensity_prob_slope * max(0.0, z)),
            )
            for domain, _ in domains:
                name = domain.www_name
                if name in self._scheduled:
                    continue
                if trials.get(name, 0) >= cfg.max_migration_trials:
                    continue
                state = domain.state_on(day)
                if state is None or state.dps_provider is not None:
                    continue
                trials[name] = trials.get(name, 0) + 1
                base = (
                    cfg.migrate_prob_self_hosted
                    if state.hoster is None
                    else cfg.migrate_prob_shared
                )
                if rng.random() >= min(0.9, base * prob_scale):
                    continue
                delay = self._draw_delay(z)
                migration_day = day + delay
                if migration_day >= n_days:
                    continue
                provider = self._choose_provider_for(state)
                record = MigrationRecord(
                    domain=domain.www_name,
                    migration_day=migration_day,
                    provider=provider.name,
                    trigger_attack_id=attack.attack_id,
                    trigger_day=day,
                    delay_days=delay,
                )
                self._scheduled[domain.www_name] = (
                    migration_day, provider, record
                )


# -- fusion -------------------------------------------------------------------


def annotated(
    dataset: AttackDataset, geo: GeoDatabase, routing: RoutingTable
) -> AttackDataset:
    """Every event copied through ``dataclasses.replace``, sorted again."""
    return AttackDataset(
        (
            dataclasses.replace(
                event,
                country=geo.country(event.target),
                asn=routing.origin_asn(event.target),
            )
            for event in dataset.events
        ),
        label=dataset.label,
    )


def combined(
    telescope: AttackDataset, honeypot: AttackDataset
) -> List[AttackEvent]:
    """The combined events: the concatenation, sorted."""
    return AttackDataset(
        list(telescope.events) + list(honeypot.events), label="Combined"
    ).events


# -- site association ---------------------------------------------------------


def first_attack_days(
    index: WebHostingIndex, events: Iterable[AttackEvent]
) -> Dict[str, int]:
    """domain -> earliest start day, asking the index for every event."""
    first: Dict[str, int] = {}
    for event in events:
        day = event.start_day
        for domain in index.sites_on(event.target, day):
            if first.get(domain, day) >= day:
                first[domain] = day
    return first
