"""The domain-scaling layers against their linear oracles (tests/dps_oracle.py).

Each new path must give exactly what the old loop gave:

* the /24-indexed diversion log's ``provider_for``, on logs with
  prefixes shorter than /24 and equal-length ties;
* the DPS scan that probes only covering diversion days, on generated
  timelines and logs, with provider signatures that overlap;
* the migration simulator that prunes settled domains, on generated
  zones and attacks (same ledger, same timelines, same diversions);
* per-victim annotation and the merged combined feed;
* the bisecting ``first_attack_days``.

Timelines are generated the way :class:`repro.dns.zone.ZoneGenerator`
makes them: the first change day is the registration day, and later
changes come after it. That excludes one case on purpose. If a timeline
had a change day before ``registered_day``, the state in force on
registration would never be probed on its own change day (the old scan
skipped days before registration), so the old scan's answer could hinge
on the day of a diversion of some unrelated address, and the new scan
does not probe those days. No code path makes such a timeline.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.attacks.attacker import (
    ATTACK_DIRECT,
    ATTACK_REFLECTION,
    GroundTruthAttack,
)
from repro.core.events import (
    AttackDataset,
    AttackEvent,
    SOURCE_HONEYPOT,
    SOURCE_TELESCOPE,
)
from repro.core.fusion import FusedDataset
from repro.core.webmap import WebHostingIndex, WebImpactAnalysis
from repro.dns.records import DomainTimeline, HostingState
from repro.dns.zone import Zone
from repro.dps.detection import BGPDiversionLog, DPSDetector
from repro.dps.migration_sim import MigrationConfig, MigrationSimulator
from repro.dps.providers import METHOD_BGP, METHOD_CNAME, METHOD_NS, DPSProvider
from repro.net.addressing import Prefix
from repro.net.packet import PROTO_TCP, PROTO_UDP
from repro.pipeline import simulation as sim_module

from tests import dps_oracle

N_DAYS = 40
DAY = 86400.0

#: Addresses live in a few /24s of two /16s, so prefixes of every
#: length from /14 to /32 overlap them.
BLOCKS = (0x0A010100, 0x0A010200, 0x0A020300, 0x0A020400)

addresses = st.builds(
    lambda block, host: block + host,
    st.sampled_from(BLOCKS),
    st.integers(0, 7),
)
provider_names = st.sampled_from(["P0", "P1", "P2", "P3"])


@st.composite
def diversions(draw):
    """(prefix, provider, from_day): /24s and longer inside the blocks,
    and shorter aggregates over them; repeats make equal-length ties."""
    address = draw(addresses)
    length = draw(st.sampled_from([14, 16, 20, 23, 24, 24, 24, 26, 30, 32]))
    return (
        Prefix(address, length),
        draw(provider_names),
        draw(st.integers(0, N_DAYS + 2)),
    )


def build_log(entries):
    log = BGPDiversionLog()
    for prefix, provider, day in entries:
        log.divert(prefix, provider, day)
    return log


class TestDiversionLog:
    @given(
        entries=st.lists(diversions(), max_size=12),
        probes=st.lists(
            st.tuples(addresses, st.integers(-1, N_DAYS + 3)), max_size=20
        ),
    )
    def test_provider_for_matches_the_linear_scan(self, entries, probes):
        log = build_log(entries)
        for address, day in probes:
            assert log.provider_for(address, day) == dps_oracle.provider_for(
                entries, address, day
            )

    def test_first_inserted_wins_an_equal_length_tie(self):
        log = build_log([
            (Prefix(0x0A010100, 24), "first", 5),
            (Prefix(0x0A000000, 8), "aggregate", 0),
            (Prefix(0x0A010100, 24), "second", 0),
        ])
        assert log.provider_for(0x0A010105, 4) == "second"
        assert log.provider_for(0x0A010105, 5) == "first"
        assert log.provider_for(0x0A020105, 9) == "aggregate"
        assert log.days_covering(0x0A010105) == [5, 0, 0]

    @given(entries=st.lists(diversions(), max_size=8))
    def test_pickles_and_rebuilds_carry_the_index(self, entries):
        import pickle

        log = build_log(entries)
        for other in (
            pickle.loads(pickle.dumps(log)),
            BGPDiversionLog(log.entries()),
        ):
            assert other == log
            assert other.entries() == entries
            for address in (BLOCKS[0] + 3, BLOCKS[2] + 7):
                assert other.provider_for(address, N_DAYS) == (
                    log.provider_for(address, N_DAYS)
                )


# -- the DPS scan -------------------------------------------------------------


def make_providers():
    """Four providers whose signatures overlap: P1's CNAME suffix ends
    P0's, P2 shares P0's NS suffix, P3's prefix covers P2's."""
    return [
        DPSProvider("P0", METHOD_CNAME, ".shield.example", ".dns.example",
                    Prefix(0x0B000000, 16), 1, 1.0),
        DPSProvider("P1", METHOD_CNAME, "x.shield.example", ".p1-dns.example",
                    Prefix(0x0B010000, 16), 2, 1.0),
        DPSProvider("P2", METHOD_NS, ".p2-shield.example", ".dns.example",
                    Prefix(0x0B020000, 24), 3, 1.0),
        DPSProvider("P3", METHOD_BGP, ".p3-shield.example", "3-dns.example",
                    Prefix(0x0B020000, 16), 4, 1.0),
    ]


cnames = st.sampled_from([
    None, "", "a.host.example", "ax.shield.example", "a.shield.example",
    ".shield.example", "b.p2-shield.example", "shield.example",
])
ns_sets = st.sampled_from([
    (), ("ns1.registrar.example",), ("ns1.dns.example", "ns2.dns.example"),
    ("ns.p1-dns.example",), ("ns.p3-dns.example", "ns1.registrar.example"),
])
state_ips = st.one_of(
    addresses,
    st.sampled_from([0x0B000005, 0x0B010005, 0x0B020005, 0x0B020105]),
)
states = st.builds(HostingState, ip=state_ips, cname=cnames, ns=ns_sets)


@st.composite
def timelines(draw):
    """A Web domain's timeline, shaped like ZoneGenerator's: the first
    change day is the registration day, later ones come after it."""
    registered = draw(st.integers(0, N_DAYS + 2))
    domain = DomainTimeline(
        f"site-{draw(st.integers(0, 10**6))}.com", "com", registered,
        draw(st.booleans()),
    )
    day = registered
    for state in draw(st.lists(states, min_size=1, max_size=4)):
        domain.set_state(day, state)
        day += draw(st.integers(1, 15))
    return domain


def unique_names(domains):
    seen, unique = set(), []
    for domain in domains:
        if domain.name not in seen:
            seen.add(domain.name)
            unique.append(domain)
    return unique


class TestScan:
    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(
        domains=st.lists(timelines(), max_size=12).map(unique_names),
        entries=st.lists(diversions(), max_size=8),
        with_log=st.booleans(),
    )
    def test_scan_matches_the_all_days_oracle(self, domains, entries, with_log):
        providers = make_providers()
        zone = Zone("com")
        zone.domains = domains
        log = build_log(entries) if with_log else None
        got = DPSDetector(providers, diversion_log=log).scan([zone], N_DAYS)
        want = dps_oracle.scan(
            providers, entries if with_log else [], [zone], N_DAYS
        )
        assert got == want

    @given(state=states, day=st.integers(0, N_DAYS))
    def test_signature_match_keeps_the_provider_priority(self, state, day):
        providers = make_providers()
        detector = DPSDetector(providers)
        assert detector.classify_state(state, day) == (
            dps_oracle.match_signatures(providers, state)
        )

    def test_small_preset_scan_matches_the_oracle(self, sim):
        got = DPSDetector(
            sim.providers, diversion_log=sim.diversion_log
        ).scan(sim.zones, sim.config.n_days)
        assert got == dps_oracle.scan(
            sim.providers, sim.diversion_log.entries(), sim.zones,
            sim.config.n_days,
        )
        assert got == sim.dps_usage


# -- migration ----------------------------------------------------------------


@pytest.fixture(scope="module")
def small_internet(small_config):
    return sim_module.build_internet(small_config)


def attack_on(target, attack_id, day, rate, direct):
    return GroundTruthAttack(
        attack_id=attack_id,
        kind=ATTACK_DIRECT if direct else ATTACK_REFLECTION,
        target=target,
        start=day * DAY + 3600.0,
        duration=7200.0,
        rate=rate,
        vector="syn-flood" if direct else "ntp",
        ip_proto=PROTO_TCP if direct else PROTO_UDP,
        ports=(80,),
        reflector_protocol=None if direct else "ntp",
    )


@st.composite
def migration_timelines(draw, name, ips, hosters):
    """A Web domain shaped like ZoneGenerator's (first change on the
    registration day), whose later segments, if any, may or may not be
    protected: a protected segment followed by an unprotected one keeps
    the domain live."""
    domain = DomainTimeline(name, "com", draw(st.integers(0, N_DAYS)), True)
    day = domain.registered_day
    for _ in range(draw(st.integers(1, 3))):
        domain.set_state(
            day,
            HostingState(
                ip=draw(st.sampled_from(ips)),
                hoster=draw(st.sampled_from(hosters)),
                dps_provider=draw(st.sampled_from([None, None, "Akamai"])),
            ),
        )
        day += draw(st.integers(1, 15))
    return domain


def migrate(simulator_class, internet, zones, attacks, config):
    log = BGPDiversionLog()
    simulator = simulator_class(
        zones, internet.providers, internet.ecosystem, config,
        diversion_log=log,
    )
    ledger = simulator.run(attacks, N_DAYS)
    timelines = [
        (d.name, d.change_days(), d.states())
        for zone in zones for d in zone.domains
    ]
    return ledger, timelines, log.entries()


class TestMigration:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_pruned_reaction_matches_visiting_every_domain(
        self, small_internet, data
    ):
        ecosystem = small_internet.ecosystem
        hosters = [None] + [h.name for h in ecosystem.hosters][:6]
        # Wix's first address lets its storyline trigger.
        ips = data.draw(
            st.lists(addresses, min_size=1, max_size=5, unique=True)
        ) + [ecosystem.hoster_by_name("Wix").ips[0]]
        domains = [
            data.draw(migration_timelines(f"site-{index}.com", ips, hosters))
            for index in range(data.draw(st.integers(1, 25)))
        ]
        attacks = sorted(
            (
                attack_on(
                    data.draw(st.sampled_from(ips)), attack_id,
                    data.draw(st.integers(0, N_DAYS - 1)),
                    data.draw(st.sampled_from([5.0, 300.0, 50_000.0])),
                    data.draw(st.booleans()),
                )
                for attack_id in range(data.draw(st.integers(0, 40)))
            ),
            key=lambda attack: attack.start,
        )
        config = MigrationConfig(
            seed=data.draw(st.integers(0, 99)),
            migrate_prob_self_hosted=data.draw(st.sampled_from([0.05, 0.5])),
            migrate_prob_shared=data.draw(st.sampled_from([0.01, 0.3])),
            max_migration_trials=data.draw(st.integers(0, 4)),
            ambient_migration_prob=data.draw(st.sampled_from([0.0, 0.2])),
        )
        zone = Zone("com")
        zone.domains = domains
        zones = [zone]
        got = migrate(
            MigrationSimulator, small_internet, copy.deepcopy(zones), attacks,
            config,
        )
        want = migrate(
            dps_oracle.VisitEveryDomain, small_internet, zones, attacks, config
        )
        assert got == want

    def test_small_preset_migration_matches_the_oracle(self, small_config):
        internet = sim_module.build_internet(small_config)
        attacks = sim_module.schedule_attacks(small_config, internet)
        config = small_config.migration_config()
        zones = copy.deepcopy(internet.zones)
        got = migrate(MigrationSimulator, internet, zones, attacks, config)
        want = migrate(
            dps_oracle.VisitEveryDomain, internet, internet.zones, attacks,
            config,
        )
        assert got == want
        assert got[0].migrations  # the reaction loop did decide something


# -- fusion and site association ---------------------------------------------


def event_for(source, target, start, length, intensity):
    return AttackEvent(
        source=source,
        target=target,
        start_ts=float(start),
        end_ts=float(start + length),
        intensity=intensity,
        ip_proto=PROTO_TCP if source == SOURCE_TELESCOPE else 0,
        reflector_protocol=None if source == SOURCE_TELESCOPE else "ntp",
    )


def events_of(source):
    return st.lists(
        st.builds(
            event_for,
            st.just(source),
            st.one_of(addresses, st.integers(0, 2**32 - 1)),
            # Few distinct start times, so the sort key ties often.
            st.sampled_from([0, 600, 86400, 3 * 86400, 3 * 86400 + 5]),
            st.integers(0, 5000),
            st.floats(0.0, 1e6),
        ),
        max_size=25,
    )


class TestFusion:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        telescope=events_of(SOURCE_TELESCOPE),
        honeypot=events_of(SOURCE_HONEYPOT),
    )
    def test_annotation_and_merge_match_the_per_event_oracle(
        self, topology, telescope, honeypot
    ):
        geo, routing = topology.geo, topology.routing
        tel = AttackDataset(telescope, label="T")
        hp = AttackDataset(honeypot, label="H")
        tel_annotated = tel.annotated(geo, routing)
        hp_annotated = hp.annotated(geo, routing)
        assert tel_annotated.label == "T"
        assert tel_annotated.events == dps_oracle.annotated(
            tel, geo, routing
        ).events
        assert hp_annotated.events == dps_oracle.annotated(
            hp, geo, routing
        ).events
        # Fusion shares one per-victim lookup table across both feeds.
        origins: dict = {}
        assert tel.annotated(geo, routing, origins).events == (
            tel_annotated.events
        )
        assert hp.annotated(geo, routing, origins).events == (
            hp_annotated.events
        )
        fused = FusedDataset(tel_annotated, hp_annotated)
        # Identity, not just equality: on a tie the telescope event
        # comes first, as in the sorted concatenation.
        want = dps_oracle.combined(tel_annotated, hp_annotated)
        assert [id(e) for e in fused.combined.events] == [id(e) for e in want]
        assert fused.combined.label == "Combined"

    def test_annotated_events_are_validated(self, topology):
        event = event_for(SOURCE_TELESCOPE, BLOCKS[0], 0, 60, 1.0)
        object.__setattr__(event, "end_ts", -1.0)
        with pytest.raises(ValueError, match="ends before it starts"):
            AttackDataset([event]).annotated(topology.geo, topology.routing)

    @given(
        intervals=st.lists(
            st.tuples(
                st.sampled_from(["www.a.com", "www.b.com", "www.c.com"]),
                addresses,
                st.integers(-2, N_DAYS),
                st.integers(-2, N_DAYS + 2),
            ),
            max_size=20,
        ),
        events=events_of(SOURCE_TELESCOPE),
    )
    def test_first_attack_days_match_the_per_event_oracle(
        self, intervals, events
    ):
        index = WebHostingIndex(intervals)
        assert WebImpactAnalysis(index).first_attack_days(events) == (
            dps_oracle.first_attack_days(index, events)
        )

    def test_small_preset_fusion_matches_the_oracle(self, sim):
        analysis = WebImpactAnalysis(sim.web_index)
        events = sim.fused.combined.events
        assert analysis.first_attack_days(events) == (
            dps_oracle.first_attack_days(sim.web_index, events)
        )
        geo, routing = sim.topology.geo, sim.topology.routing
        telescope = AttackDataset.from_telescope_events(sim.telescope_events)
        assert telescope.annotated(geo, routing).events == (
            dps_oracle.annotated(telescope, geo, routing).events
        )
        assert events == dps_oracle.combined(
            sim.fused.telescope, sim.fused.honeypot
        )
