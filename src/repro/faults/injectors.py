"""Feed degraders: apply a :class:`~repro.faults.plan.FaultPlan` to data.

Each injector sits at the point where a feed's raw data enters the
pipeline and removes or corrupts exactly what the plan says the
real-world failure would have removed or corrupted:

* telescope downtime drops rows of the
  :class:`~repro.net.columnar.PacketColumns` capture before RSDoS
  detection (the attack's backscatter never reached a collector);
* honeypot churn drops rows of the
  :class:`~repro.honeypot.columnar.RequestColumns` log per instance (a
  down AmpPot logs nothing, but the rest of the fleet still sees the
  attack);
* OpenINTEL missed snapshots punch day-holes into the compiled hosting /
  mail / NS intervals and postpone first-seen dates;
* DPS record corruption drops or day-jitters usage records.

Every injector counts what it removed so the
:class:`~repro.pipeline.quality.DataQualityReport` can state losses
instead of letting them pass silently.
"""

from __future__ import annotations

import bisect
from random import Random

import numpy as np
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dns.openintel import OpenIntelDataset
from repro.dps.detection import DPSUsage, DPSUsageDataset
from repro.faults.plan import DAY, FaultPlan, OutageWindow
from repro.honeypot.columnar import RequestColumns
from repro.net.columnar import PacketColumns


def _covered(windows: Sequence[OutageWindow], ts: np.ndarray) -> np.ndarray:
    """Boolean mask: which timestamps fall inside any of *windows*."""
    day = ts // DAY
    mask = np.zeros(len(ts), dtype=bool)
    for window in windows:
        mask |= (day >= window.start_day) & (day < window.end_day)
    return mask


class TelescopeFaultInjector:
    """Drops capture rows recorded during telescope downtime windows."""

    def __init__(self, plan: FaultPlan) -> None:
        self.windows = plan.telescope_outages
        self.dropped_batches = 0
        self.dropped_packets = 0

    def filter(self, capture: PacketColumns) -> PacketColumns:
        """*capture* without its outage rows."""
        if self.windows:
            dropped = _covered(self.windows, capture.ts)
            self.dropped_batches += int(dropped.sum())
            self.dropped_packets += int(capture.count[dropped].sum())
            capture = capture.take(~dropped)
        return capture


class HoneypotFaultInjector:
    """Drops request rows logged by instances while they were down."""

    def __init__(self, plan: FaultPlan) -> None:
        self.schedule: Dict[int, Tuple[OutageWindow, ...]] = (
            plan.honeypot_schedule()
        )
        self.dropped_batches = 0
        self.dropped_requests = 0

    def filter(self, log: RequestColumns) -> RequestColumns:
        """*log* without the rows of down instances."""
        dropped = np.zeros(len(log), dtype=bool)
        for honeypot_id, windows in self.schedule.items():
            if windows:
                dropped |= (log.honeypot_id == honeypot_id) & _covered(
                    windows, log.ts
                )
        if dropped.any():
            self.dropped_batches += int(dropped.sum())
            self.dropped_requests += int(log.count[dropped].sum())
            log = log.take(~dropped)
        return log


class OpenIntelFaultInjector:
    """Punches missed snapshot days out of a compiled OpenINTEL data set."""

    def __init__(self, plan: FaultPlan) -> None:
        self.missed_days: List[int] = sorted(plan.openintel_missed_days)
        self.n_days = plan.n_days
        self.dropped_interval_days = 0
        self.shifted_first_seen = 0
        self.dropped_domains = 0

    def degrade(self, dataset: OpenIntelDataset) -> OpenIntelDataset:
        if not self.missed_days:
            return dataset
        first_seen: Dict[str, int] = {}
        for domain, day in dataset.first_seen.items():
            shifted = self._next_observed_day(day)
            if shifted is None:
                self.dropped_domains += 1
                continue
            if shifted != day:
                self.shifted_first_seen += 1
            first_seen[domain] = shifted
        return OpenIntelDataset(
            n_days=dataset.n_days,
            zone_stats=dataset.zone_stats,
            hosting_intervals=self._split_all(dataset.hosting_intervals),
            first_seen=first_seen,
            total_web_sites=dataset.total_web_sites,
            mail_intervals=self._split_all(dataset.mail_intervals),
            ns_intervals=self._split_all(dataset.ns_intervals),
        )

    def _next_observed_day(self, day: int) -> Optional[int]:
        missed = set(self.missed_days)
        while day in missed:
            day += 1
        return day if day < self.n_days else None

    def _split_all(
        self, intervals: Iterable[Tuple[str, int, int, int]]
    ) -> List[Tuple[str, int, int, int]]:
        result: List[Tuple[str, int, int, int]] = []
        for name, ip, start, end in intervals:
            for sub_start, sub_end in self._split(start, end):
                result.append((name, ip, sub_start, sub_end))
        return result

    def _split(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Subintervals of [start, end) that exclude the missed days."""
        lo = bisect.bisect_left(self.missed_days, start)
        hi = bisect.bisect_left(self.missed_days, end)
        holes = self.missed_days[lo:hi]
        if not holes:
            return [(start, end)]
        self.dropped_interval_days += len(holes)
        pieces: List[Tuple[int, int]] = []
        cursor = start
        for hole in holes:
            if hole > cursor:
                pieces.append((cursor, hole))
            cursor = hole + 1
        if cursor < end:
            pieces.append((cursor, end))
        return pieces


class DPSFaultInjector:
    """Corrupts DPS-signature usage records: drop or day-jitter them."""

    #: Corrupted records split between outright loss and date corruption.
    DROP_SHARE = 0.5
    MAX_JITTER_DAYS = 14

    def __init__(self, plan: FaultPlan, seed: Optional[int] = None) -> None:
        self.rate = plan.dps_corruption_rate
        self.n_days = plan.n_days
        self._rng = Random(plan.seed * 1000003 + 11 if seed is None else seed)
        self.dropped_records = 0
        self.jittered_records = 0

    def corrupt(self, dataset: DPSUsageDataset) -> DPSUsageDataset:
        if self.rate <= 0.0:
            return dataset
        rng = self._rng
        kept: List[DPSUsage] = []
        for usage in dataset.usages:
            if rng.random() >= self.rate:
                kept.append(usage)
                continue
            if rng.random() < self.DROP_SHARE:
                self.dropped_records += 1
                continue
            jitter = rng.randint(1, self.MAX_JITTER_DAYS)
            if rng.random() < 0.5:
                jitter = -jitter
            day = min(max(usage.first_day + jitter, 0), self.n_days - 1)
            kept.append(
                DPSUsage(
                    domain=usage.domain,
                    provider=usage.provider,
                    first_day=day,
                )
            )
            self.jittered_records += 1
        return DPSUsageDataset(usages=kept, n_days=dataset.n_days)


class FaultInjectorSet:
    """All per-feed injectors for one plan, plus their loss counters."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.telescope = TelescopeFaultInjector(plan)
        self.honeypot = HoneypotFaultInjector(plan)
        self.openintel = OpenIntelFaultInjector(plan)
        self.dps = DPSFaultInjector(plan)

    #: Loss counters that must survive a crash for a resumed run's quality
    #: report to match the uninterrupted one: (attr path, counter name).
    _COUNTERS = (
        ("telescope", "dropped_batches"),
        ("telescope", "dropped_packets"),
        ("honeypot", "dropped_batches"),
        ("honeypot", "dropped_requests"),
        ("openintel", "dropped_interval_days"),
        ("openintel", "shifted_first_seen"),
        ("openintel", "dropped_domains"),
        ("dps", "dropped_records"),
        ("dps", "jittered_records"),
    )

    def counters(self) -> Dict[str, int]:
        """Flat snapshot of every loss counter (JSON-serializable)."""
        return {
            f"{injector}.{name}": getattr(getattr(self, injector), name)
            for injector, name in self._COUNTERS
        }

    def restore_counters(self, snapshot: Dict[str, int]) -> None:
        """Restore counters from a :meth:`counters` snapshot (resume path).

        Unknown keys are ignored so old state files stay loadable.
        """
        for injector, name in self._COUNTERS:
            key = f"{injector}.{name}"
            if key in snapshot:
                setattr(getattr(self, injector), name, int(snapshot[key]))
