"""Near-realtime streaming fusion (the paper's closing challenge).

The conclusions note that while the underlying infrastructures collect in
near-realtime, *fusing* the feeds in near-realtime is the open challenge.
:class:`StreamingFusion` is that component: it consumes unified attack
events in time order, maintains the Table 1 aggregates incrementally, emits
per-day summaries on day rollover, and raises alerts when a day's volume or
Web impact spikes against the trailing baseline (the situational-awareness
output the paper envisions for operators).
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional, Set

from repro.core.events import AttackEvent, SOURCE_HONEYPOT, SOURCE_TELESCOPE
from repro.net.addressing import slash16, slash24

if TYPE_CHECKING:
    from repro.core.webmap import WebHostingIndex

DAY = 86400.0

#: Version of the serialized StreamingFusion state (rolling snapshots).
FUSION_STATE_VERSION = 1


@dataclass(frozen=True)
class DaySummary:
    """Aggregates for one completed day."""

    day: int
    attacks: int
    telescope_attacks: int
    honeypot_attacks: int
    unique_targets: int
    targeted_slash16s: int
    targeted_asns: int
    affected_sites: int


@dataclass(frozen=True)
class Alert:
    """A day whose activity spiked against the trailing baseline.

    Zero-baseline days (e.g. the quiet days following a collection outage)
    are non-alertable by construction — :class:`StreamingFusion` never
    raises an alert against an empty baseline — so a positive baseline is
    an invariant here, and ``factor`` is always finite.
    """

    day: int
    metric: str  # "attacks" or "affected_sites"
    value: int
    baseline: float

    def __post_init__(self) -> None:
        if self.baseline <= 0:
            raise ValueError("alerts require a positive baseline")

    @property
    def factor(self) -> float:
        return self.value / self.baseline


@dataclass
class _DayState:
    day: int
    attacks: int = 0
    telescope: int = 0
    honeypot: int = 0
    targets: Set[int] = field(default_factory=set)
    nets: Set[int] = field(default_factory=set)
    asns: Set[int] = field(default_factory=set)
    sites: Set[str] = field(default_factory=set)


class StreamingFusion:
    """Incremental fusion over a time-ordered unified event stream.

    Events must arrive in non-decreasing start-time order (each source is
    already time-sorted; merging two sorted feeds preserves this). A
    :class:`WebHostingIndex` is optional — without it the Web-impact metric
    stays at zero but everything else works.
    """

    def __init__(
        self,
        web_index: Optional[WebHostingIndex] = None,
        baseline_days: int = 7,
        alert_factor: float = 3.0,
        outage_days: Optional[Iterable[int]] = None,
    ) -> None:
        if baseline_days < 1:
            raise ValueError("baseline needs at least one day")
        if alert_factor <= 1.0:
            raise ValueError("alert factor must exceed 1")
        self.web_index = web_index
        self.baseline_days = baseline_days
        self.alert_factor = alert_factor
        # Days with known collection gaps: excluded from the trailing
        # baseline and never alerted on themselves, so an outage day's
        # artificially low volume cannot make the next healthy day look
        # like a spike (nor itself look like a dip-then-spike).
        self.outage_days: Set[int] = set(outage_days or ())
        self.summaries: List[DaySummary] = []
        self.alerts: List[Alert] = []
        # Running whole-stream aggregates (Table 1, incrementally).
        self.total_events = 0
        self._all_targets: Set[int] = set()
        self._all_slash24s: Set[int] = set()
        self._all_slash16s: Set[int] = set()
        self._all_asns: Set[int] = set()
        self._current: Optional[_DayState] = None
        self._recent_attacks: Deque[int] = deque(maxlen=baseline_days)
        self._recent_sites: Deque[int] = deque(maxlen=baseline_days)
        self._last_ts = float("-inf")

    # -- ingestion -----------------------------------------------------------

    def ingest(self, event: AttackEvent) -> List[DaySummary]:
        """Feed one event; returns any day summaries that just closed."""
        if event.start_ts < self._last_ts - DAY:
            raise ValueError(
                "event stream out of order beyond one-day tolerance"
            )
        self._last_ts = max(self._last_ts, event.start_ts)
        closed = self._roll_to(event.start_day)
        state = self._current
        state.attacks += 1
        if event.source == SOURCE_TELESCOPE:
            state.telescope += 1
        elif event.source == SOURCE_HONEYPOT:
            state.honeypot += 1
        state.targets.add(event.target)
        state.nets.add(slash16(event.target))
        if event.asn is not None:
            state.asns.add(event.asn)
        if self.web_index is not None:
            state.sites.update(
                self.web_index.sites_on(event.target, event.start_day)
            )
        self.total_events += 1
        self._all_targets.add(event.target)
        self._all_slash24s.add(slash24(event.target))
        self._all_slash16s.add(slash16(event.target))
        if event.asn is not None:
            self._all_asns.add(event.asn)
        return closed

    def finish(self) -> List[DaySummary]:
        """Close the stream, flushing the open day."""
        if self._current is None:
            return []
        closed = [self._close_day(self._current)]
        self._current = None
        return closed

    def _roll_to(self, day: int) -> List[DaySummary]:
        if self._current is None:
            self._current = _DayState(day)
            return []
        if day == self._current.day:
            return []
        if day < self._current.day:
            # Tolerated slight disorder: count toward the open day.
            return []
        closed = [self._close_day(self._current)]
        self._current = _DayState(day)
        return closed

    def note_outage(self, day: int) -> None:
        """Mark *day* as a collection gap (may be called mid-stream)."""
        self.outage_days.add(day)

    def _close_day(self, state: _DayState) -> DaySummary:
        summary = DaySummary(
            day=state.day,
            attacks=state.attacks,
            telescope_attacks=state.telescope,
            honeypot_attacks=state.honeypot,
            unique_targets=len(state.targets),
            targeted_slash16s=len(state.nets),
            targeted_asns=len(state.asns),
            affected_sites=len(state.sites),
        )
        self.summaries.append(summary)
        if summary.day in self.outage_days:
            # A gap day: its depressed counts are a measurement artifact,
            # not a quiet Internet — keep it out of the baseline entirely.
            return summary
        self._maybe_alert(summary)
        self._recent_attacks.append(summary.attacks)
        self._recent_sites.append(summary.affected_sites)
        return summary

    def _maybe_alert(self, summary: DaySummary) -> None:
        if len(self._recent_attacks) < self.baseline_days:
            return
        attack_baseline = sum(self._recent_attacks) / len(self._recent_attacks)
        # Zero-baseline days (all-quiet trailing window, e.g. right after
        # an unplanned outage) are non-alertable: there is nothing sane to
        # compare against, and alerting would only ever produce the inf
        # factor the paper's operators could not act on.
        if attack_baseline > 0 and summary.attacks > self.alert_factor * attack_baseline:
            self.alerts.append(
                Alert(summary.day, "attacks", summary.attacks, attack_baseline)
            )
        site_baseline = sum(self._recent_sites) / len(self._recent_sites)
        if site_baseline > 0 and summary.affected_sites > self.alert_factor * site_baseline:
            self.alerts.append(
                Alert(
                    summary.day,
                    "affected_sites",
                    summary.affected_sites,
                    site_baseline,
                )
            )

    # -- running Table 1 ------------------------------------------------------

    def running_summary(self) -> Dict[str, int]:
        """The combined Table 1 row, as of everything ingested so far."""
        return {
            "events": self.total_events,
            "targets": len(self._all_targets),
            "slash24s": len(self._all_slash24s),
            "slash16s": len(self._all_slash16s),
            "asns": len(self._all_asns),
        }

    # -- durable state --------------------------------------------------------

    def state_dict(self) -> Dict:
        """The complete fused state as a canonical JSON-able document.

        Everything mutable is captured (running aggregates, the open day,
        closed summaries, alerts, baselines), with sets rendered as sorted
        lists so two fusions that ingested the same events byte-agree. The
        web index is *configuration*, not state: a restored fusion gets it
        re-attached by the caller.
        """
        current = None
        if self._current is not None:
            current = {
                "day": self._current.day,
                "attacks": self._current.attacks,
                "telescope": self._current.telescope,
                "honeypot": self._current.honeypot,
                "targets": sorted(self._current.targets),
                "nets": sorted(self._current.nets),
                "asns": sorted(self._current.asns),
                "sites": sorted(self._current.sites),
            }
        return {
            "version": FUSION_STATE_VERSION,
            "baseline_days": self.baseline_days,
            "alert_factor": self.alert_factor,
            "outage_days": sorted(self.outage_days),
            # Field by field, in declaration order (the snapshot bytes
            # follow it): asdict() deep-copies every value and takes
            # over ten times as long at a few hundred days.
            "summaries": [
                {
                    "day": s.day,
                    "attacks": s.attacks,
                    "telescope_attacks": s.telescope_attacks,
                    "honeypot_attacks": s.honeypot_attacks,
                    "unique_targets": s.unique_targets,
                    "targeted_slash16s": s.targeted_slash16s,
                    "targeted_asns": s.targeted_asns,
                    "affected_sites": s.affected_sites,
                }
                for s in self.summaries
            ],
            "alerts": [
                {
                    "day": a.day,
                    "metric": a.metric,
                    "value": a.value,
                    "baseline": a.baseline,
                }
                for a in self.alerts
            ],
            "total_events": self.total_events,
            "all_targets": sorted(self._all_targets),
            "all_slash24s": sorted(self._all_slash24s),
            "all_slash16s": sorted(self._all_slash16s),
            "all_asns": sorted(self._all_asns),
            "current": current,
            "recent_attacks": list(self._recent_attacks),
            "recent_sites": list(self._recent_sites),
            "last_ts": (
                None if self._last_ts == float("-inf") else self._last_ts
            ),
        }

    @classmethod
    def from_state_dict(
        cls, state: Dict, web_index: Optional[WebHostingIndex] = None
    ) -> "StreamingFusion":
        """Rebuild a fusion from :meth:`state_dict` output.

        Raises :class:`ValueError` on a version the build does not read —
        snapshot loaders turn that into a fall-back to an older snapshot.
        """
        version = state.get("version")
        if version != FUSION_STATE_VERSION:
            raise ValueError(
                f"fusion state v{version!r}, this build reads "
                f"v{FUSION_STATE_VERSION}"
            )
        fusion = cls(
            web_index=web_index,
            baseline_days=int(state["baseline_days"]),
            alert_factor=float(state["alert_factor"]),
            outage_days=state.get("outage_days", ()),
        )
        fusion.summaries = [DaySummary(**s) for s in state["summaries"]]
        fusion.alerts = [
            Alert(
                day=a["day"],
                metric=a["metric"],
                value=a["value"],
                baseline=a["baseline"],
            )
            for a in state["alerts"]
        ]
        fusion.total_events = int(state["total_events"])
        fusion._all_targets = set(state["all_targets"])
        fusion._all_slash24s = set(state["all_slash24s"])
        fusion._all_slash16s = set(state["all_slash16s"])
        fusion._all_asns = set(state["all_asns"])
        current = state.get("current")
        if current is not None:
            fusion._current = _DayState(
                day=current["day"],
                attacks=current["attacks"],
                telescope=current["telescope"],
                honeypot=current["honeypot"],
                targets=set(current["targets"]),
                nets=set(current["nets"]),
                asns=set(current["asns"]),
                sites=set(current["sites"]),
            )
        fusion._recent_attacks.extend(state["recent_attacks"])
        fusion._recent_sites.extend(state["recent_sites"])
        last_ts = state.get("last_ts")
        fusion._last_ts = float("-inf") if last_ts is None else last_ts
        return fusion

    def state_digest(self) -> str:
        """SHA-256 over the canonical state — two fusions that ingested
        the same stream (in any interleaving of crash/recover) agree."""
        canonical = json.dumps(
            self.state_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

