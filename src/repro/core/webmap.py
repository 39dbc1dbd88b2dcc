"""IP-to-Web-site association (Section 5's core machinery).

The :class:`WebHostingIndex` compiles OpenINTEL hosting intervals into an
address-keyed structure answering "which `www` domains resolved to this IP
on this day?" — the question asked once per attack event. On top of it,
:class:`WebImpactAnalysis` produces the per-event association counts
(Figure 6's input), the daily affected-site series (Figure 7) and the
per-site attack histories the migration study consumes.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.events import AttackEvent


class WebHostingIndex:
    """ip -> time-sorted hosting segments of `www` domains.

    ``count_on`` — asked once per attack event — answers from a packed
    interval-stabbing structure: per IP, the segment start days and end
    days are kept as two independently sorted lists, and the number of
    segments covering *day* is ``(# starts <= day) - (# ends <= day)``,
    i.e. two :func:`bisect.bisect_right` probes instead of a linear scan.
    An IP's lists are built when it is first counted: a pipeline run
    never counts, only the Figure 6 analyses do. ``sites_on`` keeps the
    scan because it must return the domains in segment order.
    """

    def __init__(
        self, intervals: Iterable[Tuple[str, int, int, int]]
    ) -> None:
        """*intervals* are (www domain, ip, start_day, end_day_exclusive)."""
        self._by_ip: Dict[int, List[Tuple[int, int, str]]] = defaultdict(list)
        count = 0
        for domain, ip, start, end in intervals:
            if end <= start:
                continue
            self._by_ip[ip].append((start, end, domain))
            count += 1
        for segments in self._by_ip.values():
            segments.sort()
        self._stabs: Dict[int, Tuple[List[int], List[int]]] = {}
        self.n_intervals = count

    def __len__(self) -> int:
        return len(self._by_ip)

    def segments(self, ip: int) -> Sequence[Tuple[int, int, str]]:
        """(start_day, end_day_exclusive, domain) of *ip*, by start."""
        return self._by_ip.get(ip, ())

    def sites_on(self, ip: int, day: int) -> List[str]:
        """Domains whose `www` resolved to *ip* on *day*."""
        segments = self._by_ip.get(ip)
        if not segments:
            return []
        return [
            domain
            for start, end, domain in segments
            if start <= day < end
        ]

    def count_on(self, ip: int, day: int) -> int:
        stabs = self._stabs.get(ip)
        if stabs is None:
            segments = self._by_ip.get(ip)
            if not segments:
                return 0
            stabs = self._stabs[ip] = (
                [start for start, _, _ in segments],
                sorted(end for _, end, _ in segments),
            )
        starts, ends = stabs
        return bisect.bisect_right(starts, day) - bisect.bisect_right(
            ends, day
        )

    def hosts_anything(self, ip: int) -> bool:
        return ip in self._by_ip

    def all_domains(self) -> Set[str]:
        """Every domain with at least one indexed interval."""
        return {
            domain
            for segments in self._by_ip.values()
            for _, _, domain in segments
        }


@dataclass(frozen=True)
class EventAssociation:
    """One attack event joined with the sites it potentially affected."""

    event: AttackEvent
    day: int
    site_count: int


@dataclass
class SiteAttackHistory:
    """Every association of one Web site with attack events."""

    domain: str
    events: List[AttackEvent] = field(default_factory=list)

    @property
    def n_attacks(self) -> int:
        return len(self.events)

    def first_attack_day(self) -> int:
        return min(event.start_day for event in self.events)


class WebImpactAnalysis:
    """Joins an attack-event collection against the hosting index."""

    def __init__(self, index: WebHostingIndex) -> None:
        self.index = index

    def associate(
        self, events: Iterable[AttackEvent]
    ) -> List[EventAssociation]:
        """Per-event site counts at attack time (zero-site events included)."""
        return [
            EventAssociation(
                event=event,
                day=event.start_day,
                site_count=self.index.count_on(event.target, event.start_day),
            )
            for event in events
        ]

    def site_histories(
        self, events: Iterable[AttackEvent]
    ) -> Dict[str, SiteAttackHistory]:
        """domain -> all attack events it was associated with."""
        histories: Dict[str, SiteAttackHistory] = {}
        for event in events:
            for domain in self.index.sites_on(event.target, event.start_day):
                history = histories.get(domain)
                if history is None:
                    history = SiteAttackHistory(domain)
                    histories[domain] = history
                history.events.append(event)
        return histories

    def first_attack_days(self, events: Iterable[AttackEvent]) -> Dict[str, int]:
        """domain -> the earliest start day of its associated events
        (what :meth:`site_histories` gives, without the event lists).

        Each target's start days are sorted once; a hosting segment
        ``[start, end)`` of the target's IP is then associated first on
        the earliest of those days inside it, one bisect per segment.
        """
        days_by_target: Dict[int, List[int]] = defaultdict(list)
        for event in events:
            days_by_target[event.target].append(event.start_day)
        first: Dict[str, int] = {}
        for target, days in days_by_target.items():
            segments = self.index.segments(target)
            if not segments:
                continue
            days.sort()
            for start, end, domain in segments:
                position = bisect.bisect_left(days, start)
                if position < len(days) and days[position] < end:
                    day = days[position]
                    if first.get(domain, day) >= day:
                        first[domain] = day
        return first

    def unique_affected_sites(self, events: Iterable[AttackEvent]) -> Set[str]:
        affected: Set[str] = set()
        for event in events:
            affected.update(
                self.index.sites_on(event.target, event.start_day)
            )
        return affected

    def daily_affected(
        self,
        events: Iterable[AttackEvent],
        n_days: int,
        sites_alive: Optional[Sequence[int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Figure 7: affected-site count (and share) per day.

        Returns (counts, fractions); fractions are zero when *sites_alive*
        is not supplied. Multi-day attacks count toward their start day.
        """
        if n_days <= 0:
            raise ValueError("n_days must be positive")
        per_day: List[Set[str]] = [set() for _ in range(n_days)]
        for event in events:
            day = event.start_day
            if 0 <= day < n_days:
                per_day[day].update(
                    self.index.sites_on(event.target, day)
                )
        counts = np.array([len(s) for s in per_day], dtype=np.int64)
        fractions = np.zeros(n_days, dtype=float)
        if sites_alive is not None:
            alive = np.asarray(sites_alive, dtype=float)
            if alive.shape[0] != n_days:
                raise ValueError("sites_alive length must equal n_days")
            np.divide(counts, alive, out=fractions, where=alive > 0)
        return counts, fractions


def sites_alive_per_day(
    first_seen: Dict[str, int], n_days: int
) -> np.ndarray:
    """Number of Web sites present in the namespace on each day."""
    alive = np.zeros(n_days, dtype=np.int64)
    for day in first_seen.values():
        if day < n_days:
            alive[max(0, day)] += 1
    return np.cumsum(alive)
