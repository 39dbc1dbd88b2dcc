"""DataQualityReport serialization: JSON round-trips and edge cases.

The report became a durable run artifact (``quality.json``) alongside
the telemetry exports, so its dict round-trip is now a contract: a
flight report rendered from disk must see exactly what the live run
saw — including degraded feeds, degraded stages with their attempts
and errors, and quarantine reasons the validator has never heard of.
"""

import json

import pytest

from repro.faults.plan import FaultPlan, FaultPlanConfig
from repro.pipeline.quality import (
    DataQualityReport,
    FeedQuality,
    HeadlineMetrics,
    RecordQuality,
    STATUS_DEGRADED,
    STATUS_OK,
    StageReport,
)
from repro.pipeline.runner import ResilientPipeline, RetryPolicy


def no_sleep(_delay):
    pass


def _roundtrip(report: DataQualityReport) -> DataQualityReport:
    """Dict -> JSON text -> dict -> report, as quality.json does it."""
    return DataQualityReport.from_dict(
        json.loads(json.dumps(report.to_dict()))
    )


class TestRoundTrip:
    def test_live_degraded_run_roundtrips(self, small_config):
        """A report with every section populated survives the round-trip."""
        plan = FaultPlan.generate(
            FaultPlanConfig(
                seed=3,
                n_days=small_config.n_days,
                n_honeypots=small_config.n_honeypots,
                transient_failures={"honeypot": 9},
            )
        )
        result = ResilientPipeline(
            small_config,
            plan=plan,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            sleep=no_sleep,
        ).run(HeadlineMetrics(1, 1, 0.5, 0.5, 0.5))
        original = result.quality
        restored = _roundtrip(original)
        assert restored.to_dict() == original.to_dict()
        # Behaviour survives, not just the raw fields.
        assert restored.degraded == original.degraded
        assert restored.headline_drift() == original.headline_drift()
        assert restored.render() == original.render()
        honeypot = next(s for s in restored.stages if s.name == "honeypot")
        assert honeypot.status == "degraded"
        assert honeypot.attempts == 2
        assert "injected transient failure" in honeypot.error
        assert restored.stages == original.stages

    def test_reads_document_with_breakers_key(self):
        """quality.json files written while the runner still kept stage
        breakers carry a "breakers" list; they still load and render."""
        data = {
            "plan_description": "fault plan (seed=1, 60 days)",
            "feeds": [{
                "feed": "honeypot", "uptime": 0.0, "events_observed": 0,
                "events_dropped": 0, "status": "down",
                "detail": "stage failed permanently; empty feed substituted",
            }],
            "stages": [{
                "name": "honeypot", "status": "degraded", "attempts": 2,
                "elapsed": 0.0005,
                "error": "injected transient failure in stage 'honeypot'",
            }],
            "records": [],
            "breakers": [{
                "name": "honeypot", "state": "open", "failures_seen": 2,
                "refusals": 0,
                "transitions": [{
                    "from_state": "closed", "to_state": "open",
                    "reason": "2 consecutive failure(s): injected transient "
                              "failure in stage 'honeypot'",
                }],
            }],
            "headline": None,
            "baseline": None,
        }
        report = DataQualityReport.from_dict(data)
        assert report.feed("honeypot").status == "down"
        (stage,) = report.stages
        assert (stage.name, stage.status, stage.attempts) == (
            "honeypot", "degraded", 2,
        )
        assert "breakers" not in report.to_dict()
        assert "honeypot     degraded after 2 attempts" in report.render()

    def test_empty_report_roundtrips(self):
        report = DataQualityReport()
        restored = _roundtrip(report)
        assert restored.to_dict() == report.to_dict()
        assert restored.feeds == []
        assert restored.headline is None
        assert restored.baseline is None
        assert not restored.degraded
        assert restored.headline_drift() == {}

    def test_unknown_reason_codes_preserved(self):
        """Reason codes are open-ended: future validators must not be
        dropped or renamed by (de)serialization."""
        record = RecordQuality(
            source="feeds/alien.jsonl",
            loaded=10,
            quarantined=3,
            reasons=(("solar-flare", 2), ("gremlins", 1)),
            quarantine_path="feeds/alien.quarantine.jsonl",
            feed="telescope",
        )
        report = DataQualityReport(records=[record])
        restored = _roundtrip(report)
        assert restored.records[0].reasons == (
            ("solar-flare", 2), ("gremlins", 1)
        )
        assert restored.degraded  # quarantined records alone flag it


class TestPerFeedQuarantineEdgeCases:
    def test_no_feeds_no_records(self):
        assert DataQualityReport().per_feed_quarantine_counts() == {}

    def test_feedless_record_falls_back_to_source(self):
        report = DataQualityReport(records=[
            RecordQuality(source="stray.jsonl", loaded=1, quarantined=4),
        ])
        assert report.per_feed_quarantine_counts() == {"stray.jsonl": 4}

    def test_same_feed_accumulates_across_loads(self):
        records = [
            RecordQuality(
                source=f"part{i}.jsonl", loaded=1, quarantined=i, feed="dps"
            )
            for i in (1, 2)
        ]
        report = DataQualityReport(records=records)
        assert report.per_feed_quarantine_counts() == {"dps": 3}

    def test_feed_lookup_raises_on_unknown(self):
        report = DataQualityReport(feeds=[
            FeedQuality(
                feed="telescope", uptime=1.0, events_observed=1,
                events_dropped=0, status=STATUS_OK,
            ),
        ])
        assert report.feed("telescope").status == STATUS_OK
        with pytest.raises(KeyError):
            report.feed("nonexistent")


class TestComponentDicts:
    def test_stage_report_defaults_filled(self):
        restored = StageReport.from_dict({"name": "fusion", "status": "ok"})
        assert restored.attempts == 1
        assert restored.elapsed == 0.0
        assert restored.error is None

    def test_feed_quality_detail_optional(self):
        data = {
            "feed": "honeypot", "uptime": 0.5, "events_observed": 2,
            "events_dropped": 1, "status": STATUS_DEGRADED,
        }
        assert FeedQuality.from_dict(data).detail == ""

    def test_headline_metrics_exact_fields(self):
        metrics = HeadlineMetrics(10, 5, 0.64, 0.03, 0.08)
        assert HeadlineMetrics.from_dict(metrics.to_dict()) == metrics
