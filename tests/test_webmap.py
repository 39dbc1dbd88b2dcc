"""Unit tests for the IP-to-Web-site index and impact analysis."""

import numpy as np
import pytest

from repro.core.events import AttackEvent, SOURCE_TELESCOPE
from repro.core.webmap import (
    WebHostingIndex,
    WebImpactAnalysis,
    sites_alive_per_day,
)

DAY = 86400.0


def event(target, day):
    start = day * DAY + 100.0
    return AttackEvent(SOURCE_TELESCOPE, target, start, start + 60.0, 1.0)


@pytest.fixture
def index():
    return WebHostingIndex(
        [
            ("www.a.com", 100, 0, 30),
            ("www.b.com", 100, 0, 10),   # moves away on day 10
            ("www.b.com", 200, 10, 30),
            ("www.c.com", 300, 5, 30),
        ]
    )


class TestIndex:
    def test_sites_on(self, index):
        assert set(index.sites_on(100, 0)) == {"www.a.com", "www.b.com"}
        assert set(index.sites_on(100, 15)) == {"www.a.com"}
        assert index.sites_on(200, 15) == ["www.b.com"]

    def test_count_on(self, index):
        assert index.count_on(100, 0) == 2
        assert index.count_on(100, 29) == 1
        assert index.count_on(100, 30) == 0

    def test_unknown_ip(self, index):
        assert index.sites_on(999, 0) == []
        assert index.count_on(999, 0) == 0
        assert not index.hosts_anything(999)

    def test_empty_interval_dropped(self):
        index = WebHostingIndex([("www.x.com", 1, 10, 10)])
        assert index.n_intervals == 0

    def test_before_interval_start(self, index):
        assert index.sites_on(300, 2) == []


class TestAssociation:
    def test_associate_counts(self, index):
        analysis = WebImpactAnalysis(index)
        associations = analysis.associate([event(100, 0), event(100, 15), event(999, 0)])
        assert [a.site_count for a in associations] == [2, 1, 0]

    def test_site_histories(self, index):
        analysis = WebImpactAnalysis(index)
        histories = analysis.site_histories(
            [event(100, 0), event(100, 15), event(300, 6)]
        )
        assert histories["www.a.com"].n_attacks == 2
        assert histories["www.b.com"].n_attacks == 1
        assert histories["www.c.com"].n_attacks == 1
        assert histories["www.a.com"].first_attack_day() == 0

    def test_first_attack_days_match_the_histories(self, index):
        analysis = WebImpactAnalysis(index)
        # Out of day order, repeated, after a move and on unknown IPs.
        events = [event(100, 15), event(300, 6), event(100, 0),
                  event(200, 12), event(100, 20), event(999, 1),
                  event(300, 3), event(300, 5)]
        first = analysis.first_attack_days(events)
        assert first == {"www.a.com": 0, "www.c.com": 5, "www.b.com": 0}
        assert first == {
            domain: history.first_attack_day()
            for domain, history in analysis.site_histories(events).items()
        }
        assert analysis.first_attack_days([]) == {}

    def test_first_attack_days_on_a_full_run(self, sim):
        analysis = WebImpactAnalysis(sim.web_index)
        events = sim.fused.combined.events
        first = analysis.first_attack_days(events)
        assert first
        assert first == {
            domain: history.first_attack_day()
            for domain, history in analysis.site_histories(events).items()
        }

    def test_migrated_site_not_associated_after_move(self, index):
        """Attacks on the old IP after a move no longer touch the site."""
        analysis = WebImpactAnalysis(index)
        histories = analysis.site_histories([event(100, 20)])
        assert "www.b.com" not in histories

    def test_unique_affected_sites(self, index):
        analysis = WebImpactAnalysis(index)
        affected = analysis.unique_affected_sites([event(100, 0), event(300, 6)])
        assert affected == {"www.a.com", "www.b.com", "www.c.com"}


class TestDailyAffected:
    def test_counts_and_fractions(self, index):
        analysis = WebImpactAnalysis(index)
        counts, fractions = analysis.daily_affected(
            [event(100, 0), event(300, 6)],
            n_days=10,
            sites_alive=[4] * 10,
        )
        assert counts[0] == 2
        assert counts[6] == 1
        assert fractions[0] == pytest.approx(0.5)

    def test_without_alive_series(self, index):
        analysis = WebImpactAnalysis(index)
        counts, fractions = analysis.daily_affected([event(100, 0)], n_days=3)
        assert counts[0] == 2
        assert fractions.tolist() == [0.0, 0.0, 0.0]

    def test_length_mismatch_rejected(self, index):
        analysis = WebImpactAnalysis(index)
        with pytest.raises(ValueError):
            analysis.daily_affected([], n_days=3, sites_alive=[1])

    def test_rejects_empty_window(self, index):
        with pytest.raises(ValueError):
            WebImpactAnalysis(index).daily_affected([], n_days=0)


class TestAliveSeries:
    def test_cumulative_first_seen(self):
        alive = sites_alive_per_day({"a": 0, "b": 0, "c": 2}, 4)
        assert alive.tolist() == [2, 2, 3, 3]

    def test_out_of_window_first_seen_ignored(self):
        alive = sites_alive_per_day({"a": 10}, 4)
        assert alive.tolist() == [0, 0, 0, 0]
