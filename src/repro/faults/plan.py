"""Seeded fault plans: *what* goes wrong, *when*, for each feed.

The paper's fusion framework assumes four healthy measurement feeds, but
the real infrastructures are lossy: the telescope has collection gaps,
AmpPot instances come and go over the two-year window, OpenINTEL can miss
a daily snapshot, and derived DPS-signature records can be corrupted in
transit. A :class:`FaultPlan` is a frozen, fully seeded description of one
such imperfect world — the same seed always produces the same plan, so a
degraded run is exactly as reproducible as a healthy one.

Plans are *descriptions only*; the machinery that applies them to a feed
lives in :mod:`repro.faults.injectors`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from random import Random
from typing import Dict, FrozenSet, Mapping, Tuple

DAY = 86400.0

#: Canonical feed names, in pipeline order.
FEED_TELESCOPE = "telescope"
FEED_HONEYPOT = "honeypot"
FEED_OPENINTEL = "openintel"
FEED_DPS = "dps"
ALL_FEEDS: Tuple[str, ...] = (
    FEED_TELESCOPE,
    FEED_HONEYPOT,
    FEED_OPENINTEL,
    FEED_DPS,
)

#: Sentinel end day for "down for good" windows. Attacks that *start*
#: inside the window can produce traffic past ``n_days``, so a total
#: outage must extend beyond the nominal window end.
OPEN_END = 10**9


@dataclass(frozen=True)
class OutageWindow:
    """A half-open [start_day, end_day) interval during which a sensor is down."""

    start_day: int
    end_day: int

    def __post_init__(self) -> None:
        if self.start_day < 0 or self.end_day <= self.start_day:
            raise ValueError("outage window must be non-empty and non-negative")

    @property
    def n_days(self) -> int:
        return self.end_day - self.start_day

    def covers_day(self, day: int) -> bool:
        return self.start_day <= day < self.end_day

    def covers_ts(self, ts: float) -> bool:
        return self.covers_day(int(ts // DAY))


@dataclass(frozen=True)
class FaultPlanConfig:
    """Knobs for generating a realistic mixed fault plan."""

    seed: int = 7
    n_days: int = 60
    n_honeypots: int = 24
    # Telescope: per-day probability a collection gap starts, and its length.
    telescope_outage_rate: float = 0.02
    telescope_max_outage_days: int = 3
    # Honeypot churn: per-instance per-day probability of going down, and
    # the maximum downtime once down (instances come back).
    honeypot_churn_rate: float = 0.01
    honeypot_max_downtime_days: int = 5
    # OpenINTEL: probability any given daily snapshot is missed.
    openintel_miss_rate: float = 0.03
    # DPS-signature records: fraction corrupted (dropped or day-jittered).
    dps_corruption_rate: float = 0.02
    # Injected transient stage failures: stage name -> number of attempts
    # that fail with TransientStageError before the stage succeeds.
    transient_failures: Mapping[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class FaultPlan:
    """One concrete, reproducible schedule of faults for a whole run."""

    seed: int
    n_days: int
    n_honeypots: int
    telescope_outages: Tuple[OutageWindow, ...] = ()
    # instance_id -> that instance's downtime windows.
    honeypot_outages: Tuple[Tuple[int, Tuple[OutageWindow, ...]], ...] = ()
    openintel_missed_days: FrozenSet[int] = frozenset()
    dps_corruption_rate: float = 0.0
    transient_failures: Tuple[Tuple[str, int], ...] = ()

    # -- constructors ---------------------------------------------------------

    @classmethod
    def none(cls, n_days: int, n_honeypots: int = 24) -> "FaultPlan":
        """The fault-free plan: every feed healthy all window."""
        return cls(seed=0, n_days=n_days, n_honeypots=n_honeypots)

    @classmethod
    def generate(cls, config: FaultPlanConfig) -> "FaultPlan":
        """A realistic mixed plan, fully determined by ``config.seed``."""
        rng = Random(config.seed)
        telescope = tuple(
            _walk_outages(
                rng,
                config.n_days,
                config.telescope_outage_rate,
                config.telescope_max_outage_days,
            )
        )
        honeypots = []
        for instance_id in range(config.n_honeypots):
            windows = tuple(
                _walk_outages(
                    rng,
                    config.n_days,
                    config.honeypot_churn_rate,
                    config.honeypot_max_downtime_days,
                )
            )
            if windows:
                honeypots.append((instance_id, windows))
        missed = frozenset(
            day
            for day in range(config.n_days)
            if rng.random() < config.openintel_miss_rate
        )
        return cls(
            seed=config.seed,
            n_days=config.n_days,
            n_honeypots=config.n_honeypots,
            telescope_outages=telescope,
            honeypot_outages=tuple(honeypots),
            openintel_missed_days=missed,
            dps_corruption_rate=config.dps_corruption_rate,
            transient_failures=tuple(sorted(config.transient_failures.items())),
        )

    @classmethod
    def standard(
        cls, n_days: int, seed: int = 7, n_honeypots: int = 24
    ) -> "FaultPlan":
        """The benchmark-standard mixed plan (defaults of the config)."""
        return cls.generate(
            FaultPlanConfig(seed=seed, n_days=n_days, n_honeypots=n_honeypots)
        )

    @classmethod
    def feed_down(
        cls, feed: str, n_days: int, n_honeypots: int = 24
    ) -> "FaultPlan":
        """A plan in which one feed is down for the entire window."""
        whole = (OutageWindow(0, OPEN_END),)
        base = cls(seed=0, n_days=n_days, n_honeypots=n_honeypots)
        if feed == FEED_TELESCOPE:
            return replace(base, telescope_outages=whole)
        if feed == FEED_HONEYPOT:
            return replace(
                base,
                honeypot_outages=tuple(
                    (i, whole) for i in range(n_honeypots)
                ),
            )
        if feed == FEED_OPENINTEL:
            return replace(
                base, openintel_missed_days=frozenset(range(n_days))
            )
        if feed == FEED_DPS:
            return replace(base, dps_corruption_rate=1.0)
        raise ValueError(f"unknown feed: {feed!r} (feeds: {ALL_FEEDS})")

    # -- views ----------------------------------------------------------------

    def honeypot_schedule(self) -> Dict[int, Tuple[OutageWindow, ...]]:
        return dict(self.honeypot_outages)

    def transient_failure_counts(self) -> Dict[str, int]:
        return dict(self.transient_failures)

    def is_benign(self) -> bool:
        """True when the plan injects nothing at all.

        A benign plan means every stage output (and every attempt count
        in the quality report) matches a fault-free run, so stage outputs
        are pure functions of the scenario config — the precondition for
        serving them from the cross-run stage cache.
        """
        return (
            not self.telescope_outages
            and not self.honeypot_outages
            and not self.openintel_missed_days
            and self.dps_corruption_rate == 0.0
            and not self.transient_failures
        )

    def telescope_uptime(self) -> float:
        down = sum(w.n_days for w in self.telescope_outages)
        return 1.0 - min(down, self.n_days) / self.n_days

    def honeypot_uptime(self) -> float:
        """Mean up-fraction across the fleet (healthy instances count 1.0)."""
        if self.n_honeypots <= 0:
            return 1.0
        total_down = 0
        for _, windows in self.honeypot_outages:
            total_down += min(
                sum(w.n_days for w in windows), self.n_days
            )
        return 1.0 - total_down / (self.n_honeypots * self.n_days)

    def openintel_uptime(self) -> float:
        return 1.0 - len(self.openintel_missed_days) / self.n_days

    def dps_uptime(self) -> float:
        return 1.0 - self.dps_corruption_rate

    def uptime(self, feed: str) -> float:
        return {
            FEED_TELESCOPE: self.telescope_uptime,
            FEED_HONEYPOT: self.honeypot_uptime,
            FEED_OPENINTEL: self.openintel_uptime,
            FEED_DPS: self.dps_uptime,
        }[feed]()

    def describe(self) -> str:
        """A deterministic one-plan summary (no wall-clock content)."""
        lines = [
            f"fault plan (seed={self.seed}, {self.n_days} days)",
            f"  telescope: {len(self.telescope_outages)} outage(s), "
            f"uptime {self.telescope_uptime():.1%}",
            f"  honeypot:  {len(self.honeypot_outages)}/{self.n_honeypots} "
            f"instance(s) with churn, fleet uptime {self.honeypot_uptime():.1%}",
            f"  openintel: {len(self.openintel_missed_days)} missed "
            f"snapshot day(s), uptime {self.openintel_uptime():.1%}",
            f"  dps:       corruption rate {self.dps_corruption_rate:.1%}",
        ]
        if self.transient_failures:
            parts = ", ".join(
                f"{name}×{count}" for name, count in self.transient_failures
            )
            lines.append(f"  transient stage failures: {parts}")
        return "\n".join(lines)


def _walk_outages(rng: Random, n_days: int, rate: float, max_len: int):
    """Walk the window day by day, opening geometric-ish outage windows."""
    day = 0
    while day < n_days:
        if rng.random() < rate:
            length = rng.randint(1, max(1, max_len))
            end = min(day + length, n_days)
            yield OutageWindow(day, end)
            day = end
        else:
            day += 1
