"""Batched synthesis against the per-attack oracle, and batch seeding
against numpy.

``BackscatterModel.columns`` and ``AmpPotFleet.capture_columns`` seed
every attack's stream in one vectorized pass and keep only the draws in
their per-attack loops. :mod:`tests.synthesis_oracle` is the per-attack
path they replaced (one ``SeedSequence`` per attack, array-valued
draws); on hypothesis-generated attack sets and configs, and on the
edge cases named below, the two must agree column for column, port-set
table included.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import streams
from repro.attacks.attacker import (
    ATTACK_DIRECT,
    ATTACK_REFLECTION,
    GroundTruthAttack,
    VECTOR_ICMP_FLOOD,
    VECTOR_OTHER_FLOOD,
    VECTOR_SYN_FLOOD,
    VECTOR_UDP_FLOOD,
)
from repro.attacks.streams import ATTACK_STREAM, attack_states, attack_streams
from repro.honeypot.amppot import AmpPotFleet, FleetConfig
from repro.honeypot.columnar import PROTOCOLS
from repro.net.packet import (
    PROTO_GRE,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_RST,
    TCP_SYN,
)
from repro.telescope.backscatter import BackscatterConfig, BackscatterModel
from tests import synthesis_oracle as oracle

_VECTOR_PROTO = {
    VECTOR_SYN_FLOOD: PROTO_TCP,
    VECTOR_UDP_FLOOD: PROTO_UDP,
    VECTOR_ICMP_FLOOD: PROTO_ICMP,
    VECTOR_OTHER_FLOOD: PROTO_GRE,
}

attack_ids = st.one_of(
    st.integers(min_value=0, max_value=100_000),
    st.sampled_from([0, 2**32 - 1, 2**32, 2**40 + 3]),
)
# Under a minute, whole minutes, and anything up to ~1.5 hours.
durations = st.one_of(
    st.floats(min_value=0.5, max_value=59.99),
    st.integers(min_value=1, max_value=30).map(lambda m: m * 60.0),
    st.floats(min_value=1.0, max_value=5400.0),
)


@st.composite
def direct_attacks(draw, attack_id):
    vector = draw(st.sampled_from(sorted(_VECTOR_PROTO)))
    return GroundTruthAttack(
        attack_id=attack_id,
        kind=ATTACK_DIRECT,
        target=draw(st.integers(min_value=1, max_value=2**32 - 1)),
        start=draw(st.floats(min_value=0.0, max_value=1e7)),
        duration=draw(durations),
        # Low rates leave zero-count minutes; very high ones collapse.
        rate=draw(st.one_of(st.floats(0.5, 5000.0), st.floats(1e6, 5e7))),
        vector=vector,
        ip_proto=_VECTOR_PROTO[vector],
        ports=tuple(draw(st.sets(st.integers(1, 65535), max_size=3))),
        spoofed=draw(st.booleans()),
    )


@st.composite
def reflection_attacks(draw, attack_id):
    protocol = draw(st.sampled_from(PROTOCOLS))
    return GroundTruthAttack(
        attack_id=attack_id,
        kind=ATTACK_REFLECTION,
        target=draw(st.integers(min_value=1, max_value=2**32 - 1)),
        start=draw(st.floats(min_value=0.0, max_value=1e7)),
        duration=draw(durations),
        rate=draw(st.floats(min_value=0.005, max_value=500.0)),
        vector=f"reflection-{protocol.lower()}",
        ip_proto=PROTO_UDP,
        reflector_protocol=protocol,
    )


@st.composite
def attack_sets(draw):
    ids = draw(st.lists(attack_ids, max_size=12, unique=True))
    return [
        draw(st.one_of(direct_attacks(i), reflection_attacks(i))) for i in ids
    ]


backscatter_configs = st.builds(
    BackscatterConfig,
    seed=st.one_of(st.integers(0, 2**32), st.just(2**70 + 1)),
    syn_ack_probability=st.sampled_from([0.0, 0.8, 1.0]),
    response_probability=st.sampled_from([0.0, 0.9]),
    # A small capacity makes most attacks overwhelm their victim.
    capacity_mu=st.sampled_from([math.log(400_000.0), math.log(200.0)]),
    collapse_after_fraction=st.sampled_from([0.0, 0.6]),
)
fleet_configs = st.builds(
    FleetConfig,
    seed=st.one_of(st.integers(0, 2**32), st.just(2**70 + 1)),
    n_instances=st.sampled_from([1, 5, 24, 31]),
    instance_abuse_probability=st.sampled_from([0.0, 0.1, 0.45, 1.0]),
    rate_jitter_sigma=st.sampled_from([0.0, 0.35]),
)


def _assert_backscatter_matches(config, attacks):
    model = BackscatterModel(config)
    got = model.columns(attacks)
    expected = oracle.backscatter_columns(model, attacks)
    assert got == expected
    assert got.port_sets == expected.port_sets
    return got


def _assert_requests_match(config, attacks, n_days=0):
    fleet = AmpPotFleet(config)
    got = fleet.capture_columns(attacks, n_days)
    expected = oracle.request_columns(fleet, attacks, n_days)
    assert got == expected
    return got


class TestBatchedSynthesisMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(backscatter_configs, attack_sets())
    def test_backscatter(self, config, attacks):
        _assert_backscatter_matches(config, attacks)

    @settings(max_examples=150, deadline=None)
    @given(fleet_configs, attack_sets(), st.sampled_from([0, 2]))
    def test_requests(self, config, attacks, n_days):
        _assert_requests_match(config, attacks, n_days)

    def test_empty_input(self):
        assert len(_assert_backscatter_matches(BackscatterConfig(), [])) == 0
        assert len(_assert_requests_match(FleetConfig(), [])) == 0
        assert len(_assert_requests_match(FleetConfig(), [], n_days=1)) > 0

    def test_short_and_whole_minute_durations(self):
        attacks = [
            _direct(i, duration)
            for i, duration in enumerate([0.5, 30.0, 59.9, 60.0, 120.0, 600.0])
        ]
        capture = _assert_backscatter_matches(_FLAT, attacks)
        assert len(capture) == 1 + 1 + 1 + 1 + 2 + 10
        reflections = [
            _reflection(i, duration)
            for i, duration in enumerate([0.5, 60.0, 180.0])
        ]
        _assert_requests_match(FleetConfig(instance_abuse_probability=1.0), reflections)

    def test_collapse_branch(self):
        # Capacity ~200 pps against 5e7 pps floods: every victim collapses
        # after 60% of the attack, so a 10-minute flood shows 6 minutes.
        config = BackscatterConfig(capacity_mu=math.log(200.0), capacity_sigma=1e-6)
        capture = _assert_backscatter_matches(
            config, [_direct(i, 600.0, rate=5e7) for i in range(5)]
        )
        assert len(capture) == 5 * 6

    def test_syn_ack_and_rst_responses(self):
        capture = _assert_backscatter_matches(
            BackscatterConfig(syn_ack_probability=0.5),
            [_direct(i, 120.0) for i in range(40)],
        )
        assert set(capture.tcp_flags.tolist()) == {TCP_RST, TCP_SYN | TCP_ACK}

    def test_unspoofed_only_and_reflection_only_sets(self):
        unspoofed = [_direct(i, 600.0, spoofed=False) for i in range(5)]
        reflections = [_reflection(i, 600.0) for i in range(5)]
        assert len(_assert_backscatter_matches(BackscatterConfig(), unspoofed)) == 0
        assert len(_assert_backscatter_matches(BackscatterConfig(), reflections)) == 0
        assert len(_assert_requests_match(FleetConfig(), unspoofed)) == 0

    def test_attacks_abusing_no_honeypot(self):
        # With 3 instances at p=0.3, about a third of attacks abuse none.
        config = FleetConfig(n_instances=3, instance_abuse_probability=0.3)
        reflections = [_reflection(i, 300.0) for i in range(30)]
        log = _assert_requests_match(config, reflections)
        abused = {int(v) for v in log.victim}
        assert 0 < len(abused) < len(reflections)

    def test_fleet_sizes_other_than_24(self):
        for n_instances in (1, 7, 40):
            config = FleetConfig(n_instances=n_instances)
            log = _assert_requests_match(
                config, [_reflection(i, 900.0) for i in range(10)]
            )
            assert log.honeypot_id.max() < n_instances

    def test_ids_beyond_32_bits(self):
        ids = [2**32 - 1, 2**32, 2**33 + 5, 2**63]
        _assert_backscatter_matches(BackscatterConfig(), [_direct(i, 300.0) for i in ids])
        _assert_requests_match(FleetConfig(), [_reflection(i, 300.0) for i in ids])

    def test_small_preset_capture(self, sim):
        config = sim.config
        _assert_backscatter_matches(config.backscatter_config(), sim.ground_truth)
        _assert_requests_match(
            config.fleet_config(), sim.ground_truth, n_days=config.n_days
        )


class TestBatchSeeding:
    @pytest.mark.parametrize(
        "seed", [0, 2**32 + 9, 2**64 + 1, random.Random(14).randrange(2**63)]
    )
    def test_states_match_numpy(self, seed):
        rng = random.Random(seed)
        ids = [0, 1, 2**32 - 1] + [rng.randrange(2**32) for _ in range(20)]
        assert attack_states(seed, ids) == [_numpy_state(seed, i) for i in ids]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**160),
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=8),
    )
    def test_states_match_numpy_on_random_seeds_and_ids(self, seed, ids):
        assert attack_states(seed, ids) == [_numpy_state(seed, i) for i in ids]

    def test_ids_beyond_32_bits_use_numpy(self):
        ids = [5, 2**32, 2**40 + 1]
        assert attack_states(3, ids) == [_numpy_state(3, i) for i in ids]

    def test_negative_ids_are_refused_like_numpy(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(3, spawn_key=(ATTACK_STREAM, -1))
        with pytest.raises(ValueError):
            attack_states(3, [1, -1])

    def test_empty(self):
        assert attack_states(3, []) == []
        assert list(attack_streams(3, [])) == []

    def test_streams_draw_what_numpy_generators_draw(self):
        # 32-bit integer draws and doubles alike, attack after attack.
        def draws(rng):
            return (
                rng.integers(0, 1000, 3, dtype=np.uint32).tolist(),
                rng.random(5).tolist(),
            )

        ids = [4, 9, 2**32 + 1]
        got = [draws(rng) for rng in attack_streams(11, ids)]
        expected = [
            draws(
                np.random.default_rng(
                    np.random.SeedSequence(11, spawn_key=(ATTACK_STREAM, i))
                )
            )
            for i in ids
        ]
        assert got == expected

    def test_disagreement_with_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(streams, "_PCG_MULT", 3)
        with pytest.raises(RuntimeError, match="disagrees"):
            attack_states(3, [1, 2])
        # The check probes the first id the batch pass seeded.
        with pytest.raises(RuntimeError, match="attack 2$"):
            attack_states(3, [2**40, 2])


def _numpy_state(seed, attack_id):
    state = np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=(ATTACK_STREAM, attack_id))
    ).state["state"]
    return state["state"], state["inc"]


_FLAT = BackscatterConfig(response_probability=1.0, capacity_mu=30.0, capacity_sigma=1e-6)


def _direct(attack_id, duration, rate=256.0 * 40, spoofed=True):
    return GroundTruthAttack(
        attack_id=attack_id, kind=ATTACK_DIRECT, target=0x0A000001 + attack_id % 1000,
        start=1000.0 * (attack_id % 1000), duration=duration, rate=rate,
        vector=VECTOR_SYN_FLOOD, ip_proto=PROTO_TCP, ports=(80,), spoofed=spoofed,
    )


def _reflection(attack_id, duration, rate=50.0):
    return GroundTruthAttack(
        attack_id=attack_id, kind=ATTACK_REFLECTION, target=0x0B000001 + attack_id % 1000,
        start=1000.0 * (attack_id % 1000), duration=duration, rate=rate,
        vector="reflection-ntp", ip_proto=PROTO_UDP, ports=(123,),
        reflector_protocol="NTP",
    )
