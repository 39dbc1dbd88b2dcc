"""Unit tests for DPS-use detection."""

import pytest

from repro.dns.records import DomainTimeline, HostingState
from repro.dns.openintel import records_for
from repro.dns.zone import Zone
from repro.dps.detection import BGPDiversionLog, DPSDetector
from repro.dps.providers import build_providers, provider_by_name
from repro.internet.topology import InternetTopology, TopologyConfig
from repro.net.addressing import Prefix


@pytest.fixture(scope="module")
def world():
    topology = InternetTopology.generate(TopologyConfig(seed=71, n_ases=30))
    providers = build_providers(topology)
    return topology, providers


def protected_domain(provider, name="shop.com", day=0):
    domain = DomainTimeline(name, "com", 0, True)
    domain.set_state(0, HostingState(ip=12345, ns=("ns1.reg.example",)))
    if provider.method == "cname":
        state = HostingState(
            ip=provider.prefix.network + 1,
            cname=provider.protection_cname(name),
        )
    elif provider.method == "ns":
        state = HostingState(
            ip=provider.prefix.network + 1, ns=provider.protection_ns()
        )
    else:
        state = HostingState(ip=12345)
    domain.set_state(day, state)
    return domain


class TestClassifyState:
    def test_cname_detection(self, world):
        _, providers = world
        akamai = provider_by_name(providers, "Akamai")
        detector = DPSDetector(providers)
        state = HostingState(
            ip=99, cname=akamai.protection_cname("shop.com")
        )
        assert detector.classify_state(state) == "Akamai"

    def test_ns_detection(self, world):
        _, providers = world
        cloudflare = provider_by_name(providers, "CloudFlare")
        detector = DPSDetector(providers)
        state = HostingState(ip=99, ns=cloudflare.protection_ns())
        assert detector.classify_state(state) == "CloudFlare"

    def test_address_detection(self, world):
        _, providers = world
        verisign = provider_by_name(providers, "Verisign")
        detector = DPSDetector(providers)
        state = HostingState(ip=verisign.prefix.network + 3)
        assert detector.classify_state(state) == "Verisign"

    def test_unprotected_state(self, world):
        _, providers = world
        detector = DPSDetector(providers)
        assert detector.classify_state(HostingState(ip=42)) is None

    def test_bgp_diversion_detection(self, world):
        _, providers = world
        log = BGPDiversionLog()
        log.divert(Prefix(0x0A0A0A00, 24), "CenturyLink", from_day=10)
        detector = DPSDetector(providers, diversion_log=log)
        state = HostingState(ip=0x0A0A0A05)
        assert detector.classify_state(state, day=5) is None
        assert detector.classify_state(state, day=10) == "CenturyLink"

    def test_most_specific_diversion_wins(self):
        log = BGPDiversionLog()
        log.divert(Prefix(0x0A000000, 8), "Level3", from_day=0)
        log.divert(Prefix(0x0A0A0A00, 24), "CenturyLink", from_day=0)
        assert log.provider_for(0x0A0A0A05, 0) == "CenturyLink"
        assert log.provider_for(0x0A000005, 0) == "Level3"


class TestClassifyRecords:
    def test_record_based_cname_detection(self, world):
        _, providers = world
        incapsula = provider_by_name(providers, "Incapsula")
        domain = protected_domain(incapsula, day=5)
        detector = DPSDetector(providers)
        records = list(records_for(domain, domain.state_on(5)))
        assert detector.classify_records(domain.www_name, records) == "Incapsula"

    def test_record_based_unprotected(self, world):
        _, providers = world
        detector = DPSDetector(providers)
        domain = DomainTimeline("plain.com", "com", 0, True)
        domain.set_state(0, HostingState(ip=42, ns=("ns1.reg.example",)))
        records = list(records_for(domain, domain.state_on(0)))
        assert detector.classify_records(domain.www_name, records) is None


class TestScan:
    def test_scan_finds_migration_day(self, world):
        _, providers = world
        akamai = provider_by_name(providers, "Akamai")
        zone = Zone("com")
        zone.domains = [protected_domain(akamai, day=20)]
        detector = DPSDetector(providers)
        dataset = detector.scan([zone], n_days=60)
        assert len(dataset.usages) == 1
        usage = dataset.usages[0]
        assert usage.provider == "Akamai"
        assert usage.first_day == 20

    def test_scan_skips_unprotected(self, world):
        _, providers = world
        domain = DomainTimeline("plain.com", "com", 0, True)
        domain.set_state(0, HostingState(ip=42))
        zone = Zone("com")
        zone.domains = [domain]
        dataset = DPSDetector(providers).scan([zone], n_days=60)
        assert dataset.usages == []

    def test_scan_probes_bgp_diversion_days(self, world):
        """A BGP diversion between hosting-change days is still found."""
        _, providers = world
        domain = DomainTimeline("bgp.com", "com", 0, True)
        domain.set_state(0, HostingState(ip=0x0B0B0B07))
        log = BGPDiversionLog()
        log.divert(Prefix(0x0B0B0B00, 24), "Level3", from_day=25)
        zone = Zone("com")
        zone.domains = [domain]
        dataset = DPSDetector(providers, diversion_log=log).scan([zone], 60)
        assert len(dataset.usages) == 1
        assert dataset.usages[0].provider == "Level3"
        assert dataset.usages[0].first_day == 25

    def test_provider_site_counts(self, world):
        _, providers = world
        akamai = provider_by_name(providers, "Akamai")
        neustar = provider_by_name(providers, "Neustar")
        zone = Zone("com")
        zone.domains = [
            protected_domain(akamai, "a.com", day=5),
            protected_domain(akamai, "b.com", day=6),
            protected_domain(neustar, "c.com", day=7),
        ]
        dataset = DPSDetector(providers).scan([zone], n_days=60)
        counts = dataset.provider_site_counts()
        assert counts == {"Akamai": 2, "Neustar": 1}

    def test_first_day_by_domain(self, world):
        _, providers = world
        akamai = provider_by_name(providers, "Akamai")
        zone = Zone("com")
        zone.domains = [protected_domain(akamai, "a.com", day=9)]
        dataset = DPSDetector(providers).scan([zone], n_days=60)
        assert dataset.first_day_by_domain() == {"www.a.com": 9}

    def test_detector_requires_providers(self):
        with pytest.raises(ValueError):
            DPSDetector([])


def _uncached_classify(detector, state, day):
    """The provider scan classify_state memoizes, run afresh every call."""
    for provider in detector.providers:
        if provider.matches_cname(state.cname):
            return provider.name
        if state.ns and provider.matches_ns(state.ns):
            return provider.name
        if provider.matches_address(state.ip):
            return provider.name
    if detector.diversion_log is not None:
        return detector.diversion_log.provider_for(state.ip, day)
    return None


class TestMemoizedVerdicts:
    def test_diversion_is_looked_up_per_day_not_cached(self, world):
        _, providers = world
        log = BGPDiversionLog()
        log.divert(Prefix(0x0C0C0C00, 24), "CenturyLink", from_day=20)
        detector = DPSDetector(providers, diversion_log=log)
        state = HostingState(ip=0x0C0C0C09)
        # The same state, probed before, inside, and again outside the
        # diversion: each answer follows the day, not the first verdict.
        for day, expected in ((5, None), (20, "CenturyLink"), (30, "CenturyLink"),
                              (19, None), (0, None)):
            assert detector.classify_state(state, day) == expected
            assert _uncached_classify(detector, state, day) == expected

    def test_signature_verdicts_survive_repeated_probes(self, world):
        _, providers = world
        akamai = provider_by_name(providers, "Akamai")
        log = BGPDiversionLog()
        log.divert(Prefix(akamai.prefix.network, 24), "Level3", from_day=0)
        detector = DPSDetector(providers, diversion_log=log)
        state = HostingState(ip=99, cname=akamai.protection_cname("shop.com"))
        assert [detector.classify_state(state, day) for day in (0, 5, 0)] == [
            "Akamai"
        ] * 3

    def test_memoized_scan_equals_uncached_scan(self, sim):
        detector = DPSDetector(sim.providers, diversion_log=sim.diversion_log)
        days = sorted({day for _, _, day in sim.diversion_log.entries()} | {0})
        probes = 0
        for zone in sim.zones:
            for domain in zone.domains:
                for day in sorted(set(domain.change_days()) | set(days)):
                    state = domain.state_on(day)
                    if state is None:
                        continue
                    probes += 1
                    assert detector.classify_state(state, day) == (
                        _uncached_classify(detector, state, day)
                    )
        assert probes > len(detector._signature_verdicts)
        fresh = DPSDetector(sim.providers, diversion_log=sim.diversion_log)
        assert fresh.scan(sim.zones, sim.config.n_days) == sim.dps_usage
