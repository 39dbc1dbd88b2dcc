"""Unit and integration tests for streaming fusion."""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.core.events import AttackEvent, SOURCE_HONEYPOT, SOURCE_TELESCOPE
from repro.core.streaming import StreamingFusion
from repro.core.timeseries import daily_series
from repro.core.webmap import WebHostingIndex

DAY = 86400.0


def event(target, day, frac=0.5, source=SOURCE_TELESCOPE, asn=None):
    start = day * DAY + frac * DAY
    return AttackEvent(source, target, start, start + 60.0, 1.0, asn=asn)


class TestIngestion:
    def test_day_rollover_emits_summary(self):
        fusion = StreamingFusion()
        assert fusion.ingest(event(1, 0)) == []
        closed = fusion.ingest(event(2, 1))
        assert len(closed) == 1
        assert closed[0].day == 0
        assert closed[0].attacks == 1

    def test_finish_flushes_open_day(self):
        fusion = StreamingFusion()
        fusion.ingest(event(1, 0))
        closed = fusion.finish()
        assert len(closed) == 1
        assert fusion.finish() == []

    def test_source_split(self):
        fusion = StreamingFusion()
        fusion.ingest(event(1, 0, 0.1))
        fusion.ingest(
            AttackEvent(SOURCE_HONEYPOT, 2, 0.2 * DAY, 0.2 * DAY + 9, 1.0,
                        reflector_protocol="NTP")
        )
        summary = fusion.finish()[0]
        assert summary.telescope_attacks == 1
        assert summary.honeypot_attacks == 1
        assert summary.unique_targets == 2

    def test_slight_disorder_tolerated(self):
        fusion = StreamingFusion()
        fusion.ingest(event(1, 1, 0.5))
        fusion.ingest(event(2, 1, 0.4))  # earlier same day: fine
        summary = fusion.finish()[0]
        assert summary.attacks == 2

    def test_gross_disorder_rejected(self):
        fusion = StreamingFusion()
        fusion.ingest(event(1, 5))
        with pytest.raises(ValueError):
            fusion.ingest(event(2, 1))

    def test_running_summary_matches_batch(self):
        events = [event(t, d, asn=t % 3) for d in range(3) for t in range(1, 6)]
        fusion = StreamingFusion()
        for e in events:
            fusion.ingest(e)
        fusion.finish()
        running = fusion.running_summary()
        assert running["events"] == len(events)
        assert running["targets"] == 5
        series = daily_series(events, 3)
        assert sum(s.attacks for s in fusion.summaries) == series.attacks.sum()

    def test_web_impact_metric(self):
        index = WebHostingIndex([("www.a.com", 7, 0, 10)])
        fusion = StreamingFusion(web_index=index)
        fusion.ingest(event(7, 0))
        fusion.ingest(event(8, 0))
        summary = fusion.finish()[0]
        assert summary.affected_sites == 1


class TestAlerts:
    def test_spike_raises_alert(self):
        fusion = StreamingFusion(baseline_days=3, alert_factor=3.0)
        for day in range(3):
            fusion.ingest(event(1, day))
        for _ in range(10):
            fusion.ingest(event(1, 3))
        fusion.finish()
        assert any(
            a.metric == "attacks" and a.day == 3 for a in fusion.alerts
        )
        alert = fusion.alerts[0]
        assert alert.factor > 3.0

    def test_no_alert_before_baseline_established(self):
        fusion = StreamingFusion(baseline_days=5, alert_factor=2.0)
        for _ in range(50):
            fusion.ingest(event(1, 0))
        fusion.ingest(event(1, 1))
        fusion.finish()
        assert fusion.alerts == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamingFusion(baseline_days=0)
        with pytest.raises(ValueError):
            StreamingFusion(alert_factor=1.0)

    def test_zero_baseline_day_non_alertable(self):
        """An all-quiet trailing window never raises (no inf factor)."""
        fusion = StreamingFusion(baseline_days=2, alert_factor=2.0)
        # Two outage-quiet days enter the baseline with zero attacks each:
        # mark them as outages is the operator's job; here they are simply
        # days whose only event count is zero via sites metric — emulate
        # with site baseline: no web index, so affected_sites stays 0.
        for day in range(2):
            fusion.ingest(event(1, day))
        for _ in range(50):
            fusion.ingest(event(1, 2))
        fusion.finish()
        # The affected_sites baseline is zero throughout: no site alerts,
        # and every raised alert carries a finite factor.
        assert all(a.metric != "affected_sites" for a in fusion.alerts)
        assert all(a.factor != float("inf") for a in fusion.alerts)

    def test_alert_requires_positive_baseline(self):
        from repro.core.streaming import Alert

        with pytest.raises(ValueError):
            Alert(day=3, metric="attacks", value=10, baseline=0.0)


class TestGapAwareBaseline:
    def test_outage_day_excluded_from_baseline(self):
        """A near-empty outage day must not make the next day a spike."""
        quiet = StreamingFusion(baseline_days=3, alert_factor=3.0,
                                outage_days={3})
        naive = StreamingFusion(baseline_days=3, alert_factor=3.0)
        for fusion in (quiet, naive):
            for day in range(3):
                for _ in range(10):
                    fusion.ingest(event(1, day))
            fusion.ingest(event(1, 3))  # outage day: almost nothing
            for _ in range(12):  # recovery day: normal volume again
                fusion.ingest(event(1, 4))
            fusion.finish()
        # The naive stream sees day 4 as 12 vs. baseline (10+10+1)/3 = 7:
        # close to alerting; with a stronger dip it would fire. The
        # gap-aware stream compares 12 against healthy days only.
        assert not any(a.day == 4 for a in quiet.alerts)

    def test_outage_day_itself_not_alerted(self):
        fusion = StreamingFusion(baseline_days=2, alert_factor=2.0,
                                 outage_days={2})
        for day in range(2):
            fusion.ingest(event(1, day))
        for _ in range(30):
            fusion.ingest(event(1, 2))
        fusion.finish()
        assert not any(a.day == 2 for a in fusion.alerts)

    def test_spurious_post_outage_alert_suppressed(self):
        """The scenario from the issue: steady 10/day, an outage day with
        1 event, then 10 again — only the gap-aware stream stays quiet."""
        gap_aware = StreamingFusion(baseline_days=3, alert_factor=2.0,
                                    outage_days={3, 4})
        naive = StreamingFusion(baseline_days=3, alert_factor=2.0)
        for fusion in (gap_aware, naive):
            for day in range(3):
                for _ in range(10):
                    fusion.ingest(event(1, day))
            fusion.ingest(event(1, 3))
            fusion.ingest(event(1, 4))
            for _ in range(10):
                fusion.ingest(event(1, 5))
            fusion.finish()
        assert any(a.day == 5 for a in naive.alerts)
        assert not any(a.day == 5 for a in gap_aware.alerts)

    def test_note_outage_midstream(self):
        fusion = StreamingFusion(baseline_days=2, alert_factor=2.0)
        fusion.ingest(event(1, 0))
        fusion.note_outage(1)
        fusion.ingest(event(1, 1))
        fusion.ingest(event(1, 2))
        fusion.finish()
        assert 1 in fusion.outage_days
        # Day 1 closed while marked: it is summarized but not baselined.
        assert [s.day for s in fusion.summaries] == [0, 1, 2]

    def test_summaries_still_cover_outage_days(self):
        fusion = StreamingFusion(baseline_days=2, outage_days={1})
        fusion.ingest(event(1, 0))
        fusion.ingest(event(1, 1))
        fusion.ingest(event(1, 2))
        fusion.finish()
        assert [s.day for s in fusion.summaries] == [0, 1, 2]


class TestEndToEnd:
    def test_streaming_agrees_with_batch_table1(self, sim):
        fusion = StreamingFusion(web_index=sim.web_index)
        for e in sim.fused.combined.events:
            fusion.ingest(e)
        fusion.finish()
        batch = {
            r["source"]: r for r in sim.fused.summary_rows()
        }["Combined"]
        running = fusion.running_summary()
        assert running["events"] == batch["events"]
        assert running["targets"] == batch["targets"]
        assert running["slash24s"] == batch["slash24s"]
        assert running["asns"] == batch["asns"]

    def test_spike_days_alerted(self, sim):
        """The scripted hoster waves surface as situational alerts."""
        fusion = StreamingFusion(
            web_index=sim.web_index, baseline_days=7, alert_factor=2.5
        )
        for e in sim.fused.combined.events:
            fusion.ingest(e)
        fusion.finish()
        assert fusion.alerts, "expected at least one spike alert"


class TestDurableState:
    """state_dict / from_state_dict / state_digest round-trips.

    These are the primitives the live service's snapshots are built on:
    a restored fusion must be indistinguishable from one that never
    stopped, including the open (not yet rolled-over) day.
    """

    def _stream(self):
        return [
            event(t, d, frac=0.2 + 0.1 * t, asn=t % 3)
            for d in range(3)
            for t in range(1, 6)
        ]

    def test_roundtrip_mid_stream_continues_identically(self):
        events = self._stream()
        reference = StreamingFusion()
        for e in events:
            reference.ingest(e)

        live = StreamingFusion()
        for e in events[:8]:
            live.ingest(e)
        # Serialize through JSON, as the snapshot codec would.
        import json as _json

        state = _json.loads(_json.dumps(live.state_dict()))
        restored = StreamingFusion.from_state_dict(state)
        for e in events[8:]:
            restored.ingest(e)
        assert restored.state_digest() == reference.state_digest()
        assert restored.running_summary() == reference.running_summary()

    def test_open_day_survives_roundtrip(self):
        live = StreamingFusion()
        live.ingest(event(1, 0))
        live.ingest(event(2, 0))
        restored = StreamingFusion.from_state_dict(live.state_dict())
        summary = restored.finish()[0]
        assert summary.attacks == 2
        assert summary.unique_targets == 2

    def test_digest_equal_iff_state_equal(self):
        a = StreamingFusion()
        b = StreamingFusion()
        for e in self._stream():
            a.ingest(e)
            b.ingest(e)
        assert a.state_digest() == b.state_digest()
        b.ingest(event(99, 3))
        assert a.state_digest() != b.state_digest()

    def test_alerts_and_baselines_survive(self):
        live = StreamingFusion(baseline_days=2, alert_factor=1.5)
        for day in range(4):
            count = 30 if day == 3 else 2
            for t in range(count):
                live.ingest(event(100 + t, day))
        live.finish()
        assert live.alerts, "fixture must trip an alert"
        restored = StreamingFusion.from_state_dict(live.state_dict())
        assert [a.day for a in restored.alerts] == [
            a.day for a in live.alerts
        ]
        assert restored.state_digest() == live.state_digest()

    def test_summaries_capture_equals_asdict(self):
        """The hand-built summary dicts are asdict()'s, key order too,
        so snapshot bytes and the digest do not move."""
        live = StreamingFusion()
        for e in self._stream():
            live.ingest(e)
        live.finish()
        assert len(live.summaries) == 3
        state = live.state_dict()
        expected = [asdict(s) for s in live.summaries]
        assert [list(d.items()) for d in state["summaries"]] == [
            list(d.items()) for d in expected
        ]
        state["summaries"] = expected
        canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
        assert live.state_digest() == hashlib.sha256(
            canonical.encode("utf-8")
        ).hexdigest()

    def test_version_mismatch_rejected(self):
        state = StreamingFusion().state_dict()
        state["version"] = 999
        with pytest.raises(ValueError, match="v999"):
            StreamingFusion.from_state_dict(state)

    def test_web_index_is_config_not_state(self, sim):
        live = StreamingFusion(web_index=sim.web_index)
        for e in sim.fused.combined.events[:40]:
            live.ingest(e)
        restored = StreamingFusion.from_state_dict(
            live.state_dict(), web_index=sim.web_index
        )
        for e in sim.fused.combined.events[40:]:
            live.ingest(e)
            restored.ingest(e)
        assert restored.state_digest() == live.state_digest()
