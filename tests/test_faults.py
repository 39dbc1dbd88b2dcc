"""Unit tests for fault plans and per-feed injectors."""

import pytest

from repro.dns.openintel import OpenIntelDataset
from repro.dps.detection import DPSUsage, DPSUsageDataset
from repro.faults.injectors import (
    DPSFaultInjector,
    HoneypotFaultInjector,
    OpenIntelFaultInjector,
    TelescopeFaultInjector,
)
from repro.faults.plan import (
    ALL_FEEDS,
    FaultPlan,
    FaultPlanConfig,
    OutageWindow,
)
from repro.honeypot.amppot import RequestBatch
from repro.honeypot.columnar import RequestColumns
from repro.net.columnar import PacketColumns
from repro.net.packet import PacketBatch

DAY = 86400.0


def packet(day, frac=0.5, count=10):
    return PacketBatch(
        timestamp=day * DAY + frac * DAY, src=1, proto=6, count=count,
        bytes=count * 40, distinct_dsts=count,
    )


def request(day, honeypot_id, count=50):
    return RequestBatch(
        timestamp=day * DAY + 0.5 * DAY, victim=9, honeypot_id=honeypot_id,
        protocol="NTP", count=count,
    )


class TestOutageWindow:
    def test_covers(self):
        window = OutageWindow(3, 5)
        assert window.covers_day(3) and window.covers_day(4)
        assert not window.covers_day(5) and not window.covers_day(2)
        assert window.covers_ts(3.5 * DAY)
        assert window.n_days == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            OutageWindow(5, 5)
        with pytest.raises(ValueError):
            OutageWindow(-1, 2)


class TestFaultPlan:
    def test_deterministic_under_fixed_seed(self):
        config = FaultPlanConfig(seed=123, n_days=200, n_honeypots=24)
        assert FaultPlan.generate(config) == FaultPlan.generate(config)

    def test_different_seeds_differ(self):
        a = FaultPlan.generate(FaultPlanConfig(seed=1, n_days=500))
        b = FaultPlan.generate(FaultPlanConfig(seed=2, n_days=500))
        assert a != b

    def test_none_plan_is_healthy(self):
        plan = FaultPlan.none(100)
        for feed in ALL_FEEDS:
            assert plan.uptime(feed) == 1.0

    def test_feed_down_zeroes_uptime(self):
        for feed in ALL_FEEDS:
            plan = FaultPlan.feed_down(feed, 60)
            assert plan.uptime(feed) == 0.0
            for other in ALL_FEEDS:
                if other != feed:
                    assert plan.uptime(other) == 1.0

    def test_feed_down_rejects_unknown(self):
        with pytest.raises(ValueError):
            FaultPlan.feed_down("carrier-pigeon", 60)

    def test_outages_stay_inside_window(self):
        plan = FaultPlan.generate(
            FaultPlanConfig(seed=9, n_days=50, telescope_outage_rate=0.3)
        )
        for window in plan.telescope_outages:
            assert 0 <= window.start_day < window.end_day <= 50

    def test_describe_is_deterministic(self):
        config = FaultPlanConfig(seed=5, n_days=120)
        assert (
            FaultPlan.generate(config).describe()
            == FaultPlan.generate(config).describe()
        )


class TestTelescopeInjector:
    def test_drops_only_outage_days(self):
        plan = FaultPlan(
            seed=0, n_days=10, n_honeypots=4,
            telescope_outages=(OutageWindow(2, 4),),
        )
        injector = TelescopeFaultInjector(plan)
        batches = [packet(d) for d in range(6)]
        kept = injector.filter(PacketColumns.from_batches(batches)).batches()
        assert [int(b.timestamp // DAY) for b in kept] == [0, 1, 4, 5]
        assert injector.dropped_batches == 2
        assert injector.dropped_packets == 20


class TestHoneypotInjector:
    def test_per_instance_schedules(self):
        plan = FaultPlan(
            seed=0, n_days=10, n_honeypots=3,
            honeypot_outages=((1, (OutageWindow(0, 10),)),),
        )
        injector = HoneypotFaultInjector(plan)
        batches = [request(3, hp) for hp in (0, 1, 2)]
        kept = injector.filter(RequestColumns.from_batches(batches)).batches()
        assert [b.honeypot_id for b in kept] == [0, 2]
        assert injector.dropped_batches == 1
        assert injector.dropped_requests == 50


class TestOpenIntelInjector:
    def _plan(self, missed, n_days=10):
        return FaultPlan(
            seed=0, n_days=n_days, n_honeypots=4,
            openintel_missed_days=frozenset(missed),
        )

    def _dataset(self, intervals, first_seen):
        return OpenIntelDataset(
            n_days=10, zone_stats=[], hosting_intervals=intervals,
            first_seen=first_seen,
        )

    def test_interval_split_around_missed_days(self):
        injector = OpenIntelFaultInjector(self._plan({3, 4, 7}))
        degraded = injector.degrade(
            self._dataset([("www.a.com", 99, 0, 10)], {"www.a.com": 0})
        )
        assert degraded.hosting_intervals == [
            ("www.a.com", 99, 0, 3),
            ("www.a.com", 99, 5, 7),
            ("www.a.com", 99, 8, 10),
        ]
        assert injector.dropped_interval_days == 3

    def test_interval_outside_missed_days_untouched(self):
        injector = OpenIntelFaultInjector(self._plan({8}))
        degraded = injector.degrade(
            self._dataset([("www.a.com", 99, 0, 5)], {})
        )
        assert degraded.hosting_intervals == [("www.a.com", 99, 0, 5)]

    def test_first_seen_shifts_past_missed_days(self):
        injector = OpenIntelFaultInjector(self._plan({0, 1}))
        degraded = injector.degrade(
            self._dataset([], {"www.a.com": 0, "www.b.com": 5})
        )
        assert degraded.first_seen == {"www.a.com": 2, "www.b.com": 5}
        assert injector.shifted_first_seen == 1

    def test_domain_never_observed_dropped(self):
        injector = OpenIntelFaultInjector(self._plan({8, 9}))
        degraded = injector.degrade(self._dataset([], {"www.a.com": 8}))
        assert degraded.first_seen == {}
        assert injector.dropped_domains == 1

    def test_all_days_missed_empties_feed(self):
        injector = OpenIntelFaultInjector(self._plan(set(range(10))))
        degraded = injector.degrade(
            self._dataset([("www.a.com", 99, 0, 10)], {"www.a.com": 0})
        )
        assert degraded.hosting_intervals == []
        assert degraded.first_seen == {}


class TestDPSInjector:
    def _dataset(self, n=200):
        usages = [
            DPSUsage(domain=f"www.d{i}.com", provider="cloudshield",
                     first_day=i % 50)
            for i in range(n)
        ]
        return DPSUsageDataset(usages=usages, n_days=60)

    def test_full_corruption_with_drop_only_is_bounded(self):
        plan = FaultPlan(seed=3, n_days=60, n_honeypots=4,
                         dps_corruption_rate=1.0)
        injector = DPSFaultInjector(plan)
        degraded = injector.corrupt(self._dataset())
        assert injector.dropped_records + injector.jittered_records == 200
        assert len(degraded.usages) == 200 - injector.dropped_records
        for usage in degraded.usages:
            assert 0 <= usage.first_day < 60

    def test_zero_rate_is_identity(self):
        plan = FaultPlan(seed=3, n_days=60, n_honeypots=4)
        dataset = self._dataset()
        assert DPSFaultInjector(plan).corrupt(dataset) is dataset

    def test_deterministic(self):
        plan = FaultPlan(seed=3, n_days=60, n_honeypots=4,
                         dps_corruption_rate=0.3)
        a = DPSFaultInjector(plan).corrupt(self._dataset())
        b = DPSFaultInjector(plan).corrupt(self._dataset())
        assert a.usages == b.usages
