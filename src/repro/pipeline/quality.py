"""Data-quality accounting for degraded runs.

A fused result produced through imperfect sensors is only honest if it
carries how imperfect they were. :class:`DataQualityReport` states, per
feed, the planned uptime, what was observed and what was dropped, and —
when a fault-free baseline is available — how far the paper's headline
ratios drifted because of the faults. Rendering is deterministic (no
wall-clock content), so a fixed seed and fault plan reproduce identical
reports across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.taxonomy import classify_sites, taxonomy_counts
from repro.core.webmap import WebImpactAnalysis
from repro.faults.plan import ALL_FEEDS

#: Feed health states, in decreasing order of trust.
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_DOWN = "down"


@dataclass(frozen=True)
class HeadlineMetrics:
    """The paper's headline ratios for one run (the ``headline`` command)."""

    attacks: int
    unique_targets: int
    attacked_slash24_fraction: float
    attacked_site_fraction: float
    migrating_fraction: float

    @classmethod
    def from_result(cls, result) -> "HeadlineMetrics":
        fraction = result.census.attacked_fraction(
            result.fused.combined.unique_slash24s()
        )
        impact = WebImpactAnalysis(result.web_index)
        counts = taxonomy_counts(
            classify_sites(
                result.openintel.first_seen,
                impact.first_attack_days(result.fused.combined.events),
                result.dps_usage.first_day_by_domain(),
            )
        )
        return cls(
            attacks=len(result.fused.combined),
            unique_targets=len(result.fused.combined.unique_targets()),
            attacked_slash24_fraction=fraction,
            attacked_site_fraction=counts.attacked_fraction,
            migrating_fraction=counts.attacked_migrating_fraction,
        )

    def to_dict(self) -> dict:
        return {
            "attacks": self.attacks,
            "unique_targets": self.unique_targets,
            "attacked_slash24_fraction": self.attacked_slash24_fraction,
            "attacked_site_fraction": self.attacked_site_fraction,
            "migrating_fraction": self.migrating_fraction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HeadlineMetrics":
        return cls(
            attacks=data["attacks"],
            unique_targets=data["unique_targets"],
            attacked_slash24_fraction=data["attacked_slash24_fraction"],
            attacked_site_fraction=data["attacked_site_fraction"],
            migrating_fraction=data["migrating_fraction"],
        )

    def drift_from(self, baseline: "HeadlineMetrics") -> Dict[str, float]:
        """Absolute drift of each ratio vs. a fault-free baseline."""
        return {
            "attacked_slash24_fraction": abs(
                self.attacked_slash24_fraction
                - baseline.attacked_slash24_fraction
            ),
            "attacked_site_fraction": abs(
                self.attacked_site_fraction - baseline.attacked_site_fraction
            ),
            "migrating_fraction": abs(
                self.migrating_fraction - baseline.migrating_fraction
            ),
        }


@dataclass(frozen=True)
class FeedQuality:
    """Health of one measurement feed over the run."""

    feed: str
    uptime: float
    events_observed: int
    events_dropped: int
    status: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "feed": self.feed,
            "uptime": self.uptime,
            "events_observed": self.events_observed,
            "events_dropped": self.events_dropped,
            "status": self.status,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeedQuality":
        return cls(
            feed=data["feed"],
            uptime=data["uptime"],
            events_observed=data["events_observed"],
            events_dropped=data["events_dropped"],
            status=data["status"],
            detail=data.get("detail", ""),
        )


@dataclass
class StageReport:
    """Outcome of one orchestrated stage."""

    name: str
    # "cached" is a same-run checkpoint hit; "cache-hit" is the
    # cross-run stage cache (see runner.stage_fingerprint).
    status: str  # "ok" | "degraded" | "failed" | "cached" | "cache-hit"
    attempts: int = 1
    elapsed: float = 0.0
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StageReport":
        return cls(
            name=data["name"],
            status=data["status"],
            attempts=data.get("attempts", 1),
            elapsed=data.get("elapsed", 0.0),
            error=data.get("error"),
        )


@dataclass
class DataQualityReport:
    """Everything a consumer needs to trust (or distrust) a degraded run."""

    feeds: List[FeedQuality] = field(default_factory=list)
    stages: List[StageReport] = field(default_factory=list)
    headline: Optional[HeadlineMetrics] = None
    baseline: Optional[HeadlineMetrics] = None
    plan_description: str = ""

    def to_dict(self) -> dict:
        """JSON-safe form (the ``quality.json`` run artifact)."""
        return {
            "plan_description": self.plan_description,
            "feeds": [f.to_dict() for f in self.feeds],
            "stages": [s.to_dict() for s in self.stages],
            "headline": self.headline.to_dict() if self.headline else None,
            "baseline": self.baseline.to_dict() if self.baseline else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DataQualityReport":
        # Unknown keys are ignored: quality.json files from older
        # versions carry "breakers" and "records" lists that nothing
        # reads now.
        headline = data.get("headline")
        baseline = data.get("baseline")
        return cls(
            feeds=[FeedQuality.from_dict(f) for f in data.get("feeds", ())],
            stages=[StageReport.from_dict(s) for s in data.get("stages", ())],
            headline=HeadlineMetrics.from_dict(headline) if headline else None,
            baseline=HeadlineMetrics.from_dict(baseline) if baseline else None,
            plan_description=data.get("plan_description", ""),
        )

    def feed(self, name: str) -> FeedQuality:
        for quality in self.feeds:
            if quality.feed == name:
                return quality
        raise KeyError(f"no quality entry for feed {name!r}")

    @property
    def degraded(self) -> bool:
        return any(f.status != STATUS_OK for f in self.feeds)

    def headline_drift(self) -> Dict[str, float]:
        if self.headline is None or self.baseline is None:
            return {}
        return self.headline.drift_from(self.baseline)

    def render(self, timings: bool = False) -> str:
        """A deterministic text report (timings opt-in: they vary per run)."""
        lines: List[str] = ["=== Data quality report ==="]
        if self.plan_description:
            lines.append(self.plan_description)
        lines.append("")
        lines.append(
            f"{'feed':<10} {'status':<9} {'uptime':>7} "
            f"{'observed':>9} {'dropped':>8}"
        )
        for quality in self.feeds:
            lines.append(
                f"{quality.feed:<10} {quality.status:<9} "
                f"{quality.uptime:>6.1%} {quality.events_observed:>9} "
                f"{quality.events_dropped:>8}"
                + (f"  ({quality.detail})" if quality.detail else "")
            )
        if self.stages:
            lines.append("")
            lines.append("stages:")
            for stage in self.stages:
                entry = f"  {stage.name:<12} {stage.status}"
                if stage.attempts > 1:
                    entry += f" after {stage.attempts} attempts"
                if timings:
                    entry += f" in {stage.elapsed:.2f}s"
                if stage.error:
                    entry += f" [{stage.error}]"
                lines.append(entry)
        if self.headline is not None:
            lines.append("")
            lines.append(
                f"attacks observed:      {self.headline.attacks}"
            )
            lines.append(
                f"unique targets:        {self.headline.unique_targets}"
            )
            lines.append(
                "active /24s attacked:  "
                f"{self.headline.attacked_slash24_fraction:.1%}"
            )
            lines.append(
                "sites on attacked IPs: "
                f"{self.headline.attacked_site_fraction:.1%}"
            )
            lines.append(
                "attacked sites moving: "
                f"{self.headline.migrating_fraction:.2%}"
            )
        drift = self.headline_drift()
        if drift:
            lines.append("")
            lines.append("headline-ratio drift vs. fault-free baseline:")
            for name, value in drift.items():
                lines.append(f"  {name:<26} {value:+.2%}")
        return "\n".join(lines)


def feed_status(uptime: float, dropped: int) -> str:
    """Classify a feed from planned uptime and realized losses."""
    if uptime <= 0.0:
        return STATUS_DOWN
    if uptime < 1.0 or dropped > 0:
        return STATUS_DEGRADED
    return STATUS_OK


__all__ = [
    "ALL_FEEDS",
    "STATUS_OK",
    "STATUS_DEGRADED",
    "STATUS_DOWN",
    "HeadlineMetrics",
    "FeedQuality",
    "StageReport",
    "DataQualityReport",
    "feed_status",
]
