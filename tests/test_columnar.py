"""The columnar observation engine against its references.

Captures are numpy columns (:mod:`repro.net.columnar`,
:mod:`repro.honeypot.columnar`), synthesized from per-attack random
streams and detected by vectorized segmentation. The streaming
detectors of ``tests/detection_oracle.py`` (:class:`RSDoSDetector`,
:class:`HoneypotDetector`) run on ``capture.batches()`` are the oracle:
on hypothesis-generated streams, on long random streams with many
concurrent flows, on hand-built edge cases, and on a full default-preset
capture, the columnar engines must return exactly their events.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks.attacker import (
    ATTACK_DIRECT,
    ATTACK_REFLECTION,
    GroundTruthAttack,
    VECTOR_SYN_FLOOD,
)
from repro.faults.injectors import FaultInjectorSet
from repro.faults.plan import FaultPlan, OutageWindow
from repro.honeypot.amppot import AmpPotFleet, FleetConfig, RequestBatch
from repro.honeypot.columnar import PROTOCOLS, RequestColumns
from repro.honeypot.detection import (
    DetectionConfig,
    detect_columns as detect_honeypot_columns,
)
from repro.net.columnar import PacketColumns
from repro.net.packet import (
    ICMP_DEST_UNREACH,
    ICMP_ECHO_REPLY,
    PROTO_GRE,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    PacketBatch,
    TCP_ACK,
    TCP_RST,
    TCP_SYN,
)
from repro.net.protocols import REFLECTION_PROTOCOLS
from repro.pipeline import simulation as sim_module
from repro.pipeline.config import ScenarioConfig
from repro.telescope.backscatter import BackscatterConfig, BackscatterModel
from repro.telescope.darknet import NoiseConfig, TelescopeNoise
from repro.telescope.rsdos import (
    RSDoSConfig,
    detect_columns as detect_telescope_columns,
)
from tests.detection_oracle import HoneypotDetector, RSDoSDetector


def _telescope_oracle(config, batches):
    batches = sorted(batches, key=lambda b: b.timestamp)
    expected = sorted(
        RSDoSDetector(config).run(batches), key=lambda e: (e.start_ts, e.victim)
    )
    got = detect_telescope_columns(config, PacketColumns.from_batches(batches))
    assert got == expected
    return got


def _honeypot_oracle(config, batches):
    batches = sorted(batches, key=lambda b: b.timestamp)
    expected = sorted(
        HoneypotDetector(config).run(batches),
        key=lambda e: (e.start_ts, e.victim, e.protocol),
    )
    got = detect_honeypot_columns(config, RequestColumns.from_batches(batches))
    assert got == expected
    return got


def syn_ack(ts, src=1, count=10, ports=(80,)):
    return PacketBatch(
        timestamp=float(ts), src=src, proto=PROTO_TCP, count=count,
        bytes=count * 54, distinct_dsts=count, src_ports=frozenset(ports),
        tcp_flags=TCP_SYN | TCP_ACK,
    )


def unreachable(ts, src=1, count=10, quoted=PROTO_UDP):
    return PacketBatch(
        timestamp=float(ts), src=src, proto=PROTO_ICMP, count=count,
        bytes=count * 70, distinct_dsts=count, icmp_type=ICMP_DEST_UNREACH,
        quoted_proto=quoted,
    )


def requests(ts, victim=1, honeypot=0, count=50, protocol="NTP"):
    return RequestBatch(float(ts), victim, honeypot, protocol, count)


PERMISSIVE = RSDoSConfig(min_packets=1, min_duration=0.0, min_max_pps=0.0)


# -- columns ------------------------------------------------------------------


class TestColumns:
    def test_batches_round_trip(self):
        batches = [
            syn_ack(0.5, ports=(80, 443)),
            unreachable(1.0, src=2),
            PacketBatch(2.0, 3, PROTO_UDP, 4, 480, distinct_dsts=4),
        ]
        columns = PacketColumns.from_batches(batches)
        assert len(columns) == 3
        assert columns.batches() == batches
        assert PacketColumns.from_batches(columns.batches()) == columns
        log = [requests(0.0), requests(1.5, protocol="CharGen", honeypot=3)]
        assert RequestColumns.from_batches(log).batches() == log

    def test_vectorized_properties_match_batches(self):
        batches = [
            syn_ack(0.0),
            PacketBatch(0.0, 1, PROTO_TCP, 1, 40, tcp_flags=TCP_RST),
            PacketBatch(0.0, 1, PROTO_TCP, 1, 40, tcp_flags=TCP_SYN),
            unreachable(0.0, quoted=PROTO_GRE),
            PacketBatch(0.0, 1, PROTO_ICMP, 1, 40, icmp_type=ICMP_ECHO_REPLY),
            PacketBatch(0.0, 1, PROTO_ICMP, 1, 40, icmp_type=8),
            PacketBatch(0.0, 1, PROTO_UDP, 1, 40),
        ]
        columns = PacketColumns.from_batches(batches)
        assert columns.backscatter().tolist() == [
            b.is_backscatter for b in batches
        ]
        assert columns.attack_proto().tolist() == [
            b.attack_proto for b in batches
        ]

    def test_invariants_raise_like_the_batch_objects(self):
        columns = PacketColumns.from_batches([syn_ack(0.0), syn_ack(1.0)])
        fields = {
            name: getattr(columns, name).copy()
            for name in columns.__slots__
            if name != "port_sets"
        }
        with pytest.raises(ValueError, match="batch count must be positive"):
            PacketColumns(**{**fields, "count": [5, 0]},
                          port_sets=columns.port_sets)
        with pytest.raises(ValueError, match="at least one destination"):
            PacketColumns(**{**fields, "distinct_dsts": [0, 5]},
                          port_sets=columns.port_sets)
        log = RequestColumns.from_batches([requests(0.0)])
        with pytest.raises(ValueError, match="must be positive"):
            RequestColumns(log.ts, log.victim, log.honeypot_id,
                           log.protocol, [0])
        with pytest.raises(ValueError, match="unknown reflector protocol"):
            RequestColumns(log.ts, log.victim, log.honeypot_id,
                           [len(PROTOCOLS)], log.count)
        with pytest.raises(ValueError, match="unknown reflector protocol"):
            RequestColumns.from_batches([_unchecked_request("SMURF")])

    def test_take_keeps_the_port_set_table(self):
        columns = PacketColumns.from_batches(
            [syn_ack(0.0, ports=(22, 23)), syn_ack(1.0, ports=(80, 443))]
        )
        second = columns.take(np.array([False, True]))
        assert second.batches() == [syn_ack(1.0, ports=(80, 443))]
        assert second.port_sets == columns.port_sets


_port_sets = st.one_of(
    st.sampled_from([frozenset(), frozenset({0}), frozenset({65535})]),
    st.frozensets(st.integers(0, 65535), min_size=1, max_size=4),
    st.frozensets(st.sampled_from([0, 22, 80, 65535]), min_size=2),
)


class TestPortSetCodes:
    """One port is its own code, -1 the empty set, -2 - id a multi-port
    set in the capture's table."""

    @given(st.lists(_port_sets, max_size=40))
    @example([frozenset(), frozenset({0}), frozenset({65535}),
              frozenset({80, 443}), frozenset({0, 65535}),
              frozenset({443, 80})])
    @settings(max_examples=200, deadline=None)
    def test_batches_round_trip(self, sets):
        batches = [syn_ack(float(ts), ports=ports) for ts, ports in enumerate(sets)]
        columns = PacketColumns.from_batches(batches)
        assert columns.batches() == batches
        assert PacketColumns.from_batches(columns.batches()) == columns
        for ports, code in zip(sets, columns.port_set.tolist()):
            if not ports:
                assert code == -1
            elif len(ports) == 1:
                assert code == min(ports)
            else:
                assert columns.port_sets[-2 - code] == ports
        # Only multi-port sets enter the table, each once.
        assert all(len(ports) > 1 for ports in columns.port_sets)
        assert len(set(columns.port_sets)) == len(columns.port_sets)

    def test_codes_outside_the_ports_and_the_table_raise(self):
        columns = PacketColumns.from_batches(
            [syn_ack(0.0, ports=(80, 443)), syn_ack(1.0, ports=(65535,))]
        )
        assert columns.port_set.tolist() == [-2, 65535]
        fields = {
            name: getattr(columns, name).copy()
            for name in columns.__slots__
            if name != "port_sets"
        }
        with pytest.raises(ValueError, match="above port 65535"):
            PacketColumns(**{**fields, "port_set": [-2, 65536]},
                          port_sets=columns.port_sets)
        with pytest.raises(ValueError, match="past the multi-port table"):
            PacketColumns(**{**fields, "port_set": [-3, 80]},
                          port_sets=columns.port_sets)
        with pytest.raises(ValueError, match="past the multi-port table"):
            PacketColumns(**fields)  # code -2 with no table at all
        with pytest.raises(ValueError, match="not a multi-port set"):
            PacketColumns(**fields, port_sets=[frozenset({22})])
        with pytest.raises(ValueError, match="outside 0-65535"):
            PacketColumns.from_batches([syn_ack(0.0, ports=(65536,))])

    @pytest.mark.parametrize("n_days", [1, 120])
    def test_telescope_noise_carries_an_empty_table(self, n_days):
        noise = TelescopeNoise(NoiseConfig()).columns(n_days)
        assert len(noise) > 0
        assert noise.port_sets == ()
        assert noise.port_set.min() == -1
        assert set(map(len, (b.src_ports for b in noise.batches()))) == {0, 1}


def _unchecked_request(protocol):
    """A RequestBatch that skipped validation (e.g. from a foreign log)."""
    batch = object.__new__(RequestBatch)
    for name, value in (("timestamp", 0.0), ("victim", 1), ("honeypot_id", 0),
                        ("protocol", protocol), ("count", 5)):
        object.__setattr__(batch, name, value)
    return batch


# -- telescope detection oracle ----------------------------------------------

_flags = st.sampled_from([TCP_SYN | TCP_ACK, TCP_RST, TCP_SYN, 0])
_icmp = st.sampled_from([ICMP_ECHO_REPLY, ICMP_DEST_UNREACH, 8, -1])


@st.composite
def packet_batches(draw):
    proto = draw(st.sampled_from([PROTO_TCP, PROTO_TCP, PROTO_ICMP, PROTO_UDP]))
    count = draw(st.sampled_from([1, 2, 5, 13, 30]))
    return PacketBatch(
        # Whole and half seconds: every gap is exact, so gap == timeout
        # really happens, and flows cross minute boundaries.
        timestamp=draw(st.integers(0, 1300)) + draw(st.sampled_from([0.0, 0.5])),
        src=draw(st.integers(1, 4)),
        proto=proto,
        count=count,
        bytes=count * draw(st.integers(40, 60)),
        distinct_dsts=draw(st.integers(1, count)),
        src_ports=frozenset(
            draw(st.lists(st.sampled_from([22, 80, 443]), max_size=2))
        ),
        tcp_flags=draw(_flags) if proto == PROTO_TCP else 0,
        icmp_type=draw(_icmp) if proto == PROTO_ICMP else -1,
        quoted_proto=(
            draw(st.sampled_from([None, PROTO_UDP, PROTO_GRE]))
            if proto == PROTO_ICMP
            else None
        ),
    )


rsdos_configs = st.builds(
    RSDoSConfig,
    flow_timeout=st.sampled_from([1.0, 30.0, 60.0, 300.0]),
    min_packets=st.sampled_from([1, 25]),
    min_duration=st.sampled_from([0.0, 60.0]),
    min_max_pps=st.sampled_from([0.0, 0.5]),
)


def _random_backscatter(seed: int, n: int = 4000):
    """A long time-sorted backscatter stream: 12 victims, many open flows."""
    rng = random.Random(seed)
    ts = 0.0
    batches = []
    for _ in range(n):
        ts += rng.expovariate(1 / 5.0)
        proto = rng.choice((PROTO_TCP, PROTO_ICMP, PROTO_UDP))
        batches.append(
            PacketBatch(
                timestamp=ts,
                src=rng.randrange(12),
                proto=proto,
                count=rng.randrange(1, 50),
                bytes=rng.randrange(40, 4000),
                distinct_dsts=rng.randrange(1, 8),
                src_ports=frozenset(
                    rng.sample(range(1024), rng.randrange(1, 4))
                ),
                tcp_flags=0x12 if proto == PROTO_TCP else 0,
                icmp_type=0 if proto == PROTO_ICMP else -1,
            )
        )
    return batches


def _random_requests(seed: int, n: int = 4000):
    """A long time-sorted request log: 30 victims on every protocol."""
    rng = random.Random(seed)
    protocols = sorted(REFLECTION_PROTOCOLS)
    ts = 0.0
    batches = []
    for _ in range(n):
        ts += rng.expovariate(1 / 300.0)
        batches.append(
            RequestBatch(
                timestamp=ts,
                victim=rng.randrange(30),
                honeypot_id=rng.randrange(24),
                protocol=rng.choice(protocols),
                count=rng.randrange(1, 400),
            )
        )
    return batches


# Permissive thresholds, so the long random streams emit events.
_LONG_STREAM_RSDOS = RSDoSConfig(min_packets=3, min_duration=10.0, min_max_pps=0.01)
_LONG_STREAM_DETECTION = DetectionConfig(gap_timeout=1800.0, min_requests=10)


class TestTelescopeOracle:
    @given(st.lists(packet_batches(), max_size=60), rsdos_configs)
    @example(_random_backscatter(0), _LONG_STREAM_RSDOS)
    @example(_random_backscatter(1), _LONG_STREAM_RSDOS)
    @example(_random_backscatter(2), _LONG_STREAM_RSDOS)
    @example(_random_backscatter(3), _LONG_STREAM_RSDOS)
    @settings(max_examples=300, deadline=None)
    def test_matches_streaming_detector(self, batches, config):
        _telescope_oracle(config, batches)

    def test_gap_equal_to_timeout_continues_the_flow(self):
        config = RSDoSConfig(flow_timeout=300.0, min_packets=1,
                             min_duration=0.0, min_max_pps=0.0)
        (event,) = _telescope_oracle(config, [syn_ack(0), syn_ack(300)])
        assert (event.start_ts, event.end_ts) == (0.0, 300.0)
        split = _telescope_oracle(config, [syn_ack(0), syn_ack(301)])
        assert len(split) == 2

    def test_equal_timestamps_within_and_across_victims(self):
        batches = [syn_ack(60, src=1), syn_ack(60, src=1, count=3),
                   syn_ack(60, src=2), unreachable(60, src=2)]
        events = _telescope_oracle(PERMISSIVE, batches)
        assert [(e.victim, e.packets) for e in events] == [(1, 13), (2, 20)]

    def test_single_batch_flows(self):
        events = _telescope_oracle(
            PERMISSIVE, [syn_ack(0, src=1), syn_ack(1000, src=1)]
        )
        assert [e.duration for e in events] == [0.0, 0.0]

    def test_empty_and_backscatter_free_captures(self):
        assert _telescope_oracle(RSDoSConfig(), []) == []
        scans = [PacketBatch(float(t), 9, PROTO_TCP, 500, 20_000,
                             distinct_dsts=500, tcp_flags=TCP_SYN)
                 for t in range(0, 600, 60)]
        assert _telescope_oracle(PERMISSIVE, scans) == []
        assert detect_telescope_columns(RSDoSConfig(),
                                        PacketColumns.empty()) == []

    def test_dominant_protocol_tie_goes_to_first_seen(self):
        batches = [unreachable(10, quoted=PROTO_UDP), syn_ack(20),
                   syn_ack(30, src=2), unreachable(40, src=2)]
        events = _telescope_oracle(PERMISSIVE, batches)
        assert [e.ip_proto for e in events] == [PROTO_UDP, PROTO_TCP]

    def test_max_ppm_across_minute_boundaries(self):
        batches = [syn_ack(59.5, count=10), syn_ack(60.0, count=7),
                   syn_ack(119.5, count=8), syn_ack(185, count=20)]
        (event,) = _telescope_oracle(PERMISSIVE, batches)
        assert event.max_ppm == 20
        assert event.packets == 45


# -- honeypot detection oracle ------------------------------------------------


@st.composite
def request_batches(draw):
    return RequestBatch(
        timestamp=float(draw(st.integers(0, 240))),
        victim=draw(st.integers(1, 3)),
        honeypot_id=draw(st.integers(0, 4)),
        protocol=draw(st.sampled_from(["NTP", "DNS"])),
        count=draw(st.sampled_from([1, 7, 40, 120])),
    )


honeypot_configs = st.builds(
    DetectionConfig,
    gap_timeout=st.sampled_from([3.0, 10.0, 3600.0]),
    min_requests=st.sampled_from([0, 20, 100]),
    max_event_duration=st.sampled_from([15.0, 40.0, 86400.0]),
)


class TestHoneypotOracle:
    @given(st.lists(request_batches(), max_size=80), honeypot_configs)
    @example(_random_requests(0), _LONG_STREAM_DETECTION)
    @example(_random_requests(1), _LONG_STREAM_DETECTION)
    @example(_random_requests(2), _LONG_STREAM_DETECTION)
    @example(_random_requests(3), _LONG_STREAM_DETECTION)
    @settings(max_examples=300, deadline=None)
    def test_matches_streaming_detector(self, batches, config):
        _honeypot_oracle(config, batches)

    def test_flow_crossing_the_cap_more_than_once(self):
        config = DetectionConfig(gap_timeout=10.0, min_requests=0,
                                 max_event_duration=30.0)
        batches = [requests(t, honeypot=t % 3) for t in range(0, 100, 5)]
        events = _honeypot_oracle(config, batches)
        assert [(e.start_ts, e.end_ts) for e in events] == [
            (0.0, 30.0), (35.0, 65.0), (70.0, 95.0)
        ]
        assert [e.honeypots for e in events] == [3, 3, 3]

    def test_repeated_honeypots_count_once_per_capped_flow(self):
        config = DetectionConfig(gap_timeout=10.0, min_requests=0,
                                 max_event_duration=30.0)
        ids = [0, 0, 4, 0, 4, 4, 2, 2, 2, 2, 0, 2, 7, 7, 7, 7, 7, 7, 7, 7]
        batches = [requests(t * 5, honeypot=h) for t, h in enumerate(ids)]
        events = _honeypot_oracle(config, batches)
        assert [(e.start_ts, e.honeypots) for e in events] == [
            (0.0, 3), (35.0, 3), (70.0, 1)
        ]

    def test_gap_equal_to_timeout_continues_the_flow(self):
        config = DetectionConfig(gap_timeout=3600.0, min_requests=0)
        assert len(_honeypot_oracle(config, [requests(0), requests(3600)])) == 1
        assert len(_honeypot_oracle(config, [requests(0), requests(3601)])) == 2

    def test_keys_split_by_protocol_and_threshold_is_strict(self):
        batches = [requests(0, count=100), requests(1, protocol="DNS", count=101)]
        events = _honeypot_oracle(DetectionConfig(), batches)
        assert [(e.protocol, e.requests) for e in events] == [("DNS", 101)]

    def test_empty_log(self):
        assert _honeypot_oracle(DetectionConfig(), []) == []


# -- whole captures -----------------------------------------------------------


@pytest.fixture(scope="module")
def default_ground_truth():
    config = ScenarioConfig.default().with_seed(7)
    internet = sim_module.build_internet(config)
    return config, sim_module.schedule_attacks(config, internet)


class TestFullCaptures:
    def test_default_preset_capture_matches_streaming(self, default_ground_truth):
        config, ground_truth = default_ground_truth
        capture = sim_module.telescope_capture(config, ground_truth)
        events = detect_telescope_columns(config.rsdos_config(), capture)
        assert events
        assert events == sorted(
            RSDoSDetector(config.rsdos_config()).run(capture.batches()),
            key=lambda e: (e.start_ts, e.victim),
        )
        log = sim_module.honeypot_capture(config, ground_truth)
        events = detect_honeypot_columns(config.honeypot_detection_config(), log)
        assert events
        assert events == sorted(
            HoneypotDetector(config.honeypot_detection_config()).run(
                log.batches()
            ),
            key=lambda e: (e.start_ts, e.victim, e.protocol),
        )

    def test_captures_do_not_depend_on_attack_order(self, small_config, sim):
        shuffled = list(sim.ground_truth)
        random.Random(3).shuffle(shuffled)
        assert sim_module.telescope_capture(
            small_config, shuffled
        ) == sim_module.telescope_capture(small_config, sim.ground_truth)
        assert sim_module.honeypot_capture(
            small_config, shuffled
        ) == sim_module.honeypot_capture(small_config, sim.ground_truth)

    def test_captures_are_time_sorted(self, small_config, sim):
        for capture in (
            sim_module.telescope_capture(small_config, sim.ground_truth),
            sim_module.honeypot_capture(small_config, sim.ground_truth),
        ):
            assert len(capture) > 0
            assert np.all(np.diff(capture.ts) >= 0)


# -- synthesis distributions --------------------------------------------------


def _direct(rate, duration, attack_id=1):
    return GroundTruthAttack(
        attack_id=attack_id, kind=ATTACK_DIRECT, target=0x0A000001,
        start=0.0, duration=duration, rate=rate, vector=VECTOR_SYN_FLOOD,
        ip_proto=PROTO_TCP, ports=(80,),
    )


def _reflection(rate, duration, attack_id=1):
    return GroundTruthAttack(
        attack_id=attack_id, kind=ATTACK_REFLECTION, target=0x0A000002,
        start=0.0, duration=duration, rate=rate, vector="reflection-ntp",
        ip_proto=PROTO_UDP, ports=(123,), reflector_protocol="NTP",
    )


def _assert_mean_within_4_sigma(counts, lam):
    assert len(counts) >= 100
    sigma = math.sqrt(lam / len(counts))
    assert abs(np.mean(counts) - lam) <= 4 * sigma


class TestSynthesis:
    # Huge capacity, full response: the telescope sees rate / 256.
    FLAT = BackscatterConfig(seed=3, response_probability=1.0,
                             capacity_mu=30.0, capacity_sigma=1e-6)

    @pytest.mark.parametrize("rate", [256.0 * 2.0, 256.0 * 40.0])
    def test_backscatter_minute_mean_within_4_sigma(self, rate):
        # 2 pps and 40 pps at the telescope: lambda 120 and 2400 per
        # minute, either side of the old normal-approximation cutoff.
        capture = BackscatterModel(self.FLAT).columns([_direct(rate, 600 * 60.0)])
        lam = rate / 256.0 * 60.0
        _assert_mean_within_4_sigma(capture.count, lam)

    def test_request_minute_mean_within_4_sigma(self):
        fleet = AmpPotFleet(FleetConfig(seed=5, rate_jitter_sigma=0.0))
        log = fleet.capture_columns([_reflection(3.0, 300 * 60.0)])
        instance = log.honeypot_id == log.honeypot_id[0]
        _assert_mean_within_4_sigma(log.count[instance], 3.0 * 60.0)

    def test_partial_last_minute(self):
        capture = BackscatterModel(self.FLAT).columns(
            [_direct(256.0 * 50.0, 90.0)]
        )
        assert capture.ts.tolist() == sorted(capture.ts.tolist())
        assert len(capture) == 2
        assert capture.count[1] < capture.count[0]

    def test_abused_instance_fraction(self):
        # At 50 requests/s for 10 minutes every abused instance logs
        # requests, so the instances in the log are the abused ones.
        fleet = AmpPotFleet(FleetConfig(seed=11))
        attacks = [_reflection(50.0, 600.0, attack_id=i) for i in range(400)]
        per_attack = [
            len({b.honeypot_id for b in fleet.observe(attack)})
            for attack in attacks
        ]
        fraction = sum(per_attack) / (400 * len(fleet.instances))
        sigma = math.sqrt(0.45 * 0.55 / (400 * len(fleet.instances)))
        assert abs(fraction - 0.45) <= 4 * sigma

    def test_streams_are_per_attack(self):
        model = BackscatterModel(self.FLAT)
        alone = model.columns([_direct(2560.0, 600.0, attack_id=5)])
        together = model.columns(
            [_direct(2560.0, 600.0, attack_id=5),
             _direct(2560.0, 600.0, attack_id=4)]
        )
        # Attack 4's rows come first (id order), then attack 5's, which
        # are what attack 5 draws on its own.
        assert together.count[-len(alone):].tolist() == alone.count.tolist()
        assert together.ts[-len(alone):].tolist() == alone.ts.tolist()


# -- fault filtering ----------------------------------------------------------


def _batch_filter(batches, dropped_fn):
    """The batch-at-a-time filter the columnar injectors replaced."""
    kept, dropped, volume = [], 0, 0
    for batch in batches:
        if dropped_fn(batch):
            dropped += 1
            volume += batch.count
        else:
            kept.append(batch)
    return kept, dropped, volume


class TestFaultFilter:
    def test_columns_drop_what_the_batch_filter_dropped(self, small_config, sim):
        plan = FaultPlan(
            seed=0,
            n_days=small_config.n_days,
            n_honeypots=small_config.n_honeypots,
            telescope_outages=(OutageWindow(10, 14), OutageWindow(30, 31)),
            honeypot_outages=(
                (0, (OutageWindow(5, 20),)),
                (7, (OutageWindow(0, 3), OutageWindow(40, 60))),
            ),
        )
        injectors = FaultInjectorSet(plan)
        capture = sim_module.telescope_capture(small_config, sim.ground_truth)
        kept, dropped, packets = _batch_filter(
            capture.batches(),
            lambda b: any(
                w.covers_ts(b.timestamp) for w in plan.telescope_outages
            ),
        )
        assert dropped > 0
        assert injectors.telescope.filter(capture).batches() == kept
        assert injectors.telescope.dropped_batches == dropped
        assert injectors.telescope.dropped_packets == packets

        schedule = plan.honeypot_schedule()
        log = sim_module.honeypot_capture(small_config, sim.ground_truth)
        kept, dropped, volume = _batch_filter(
            log.batches(),
            lambda b: any(
                w.covers_ts(b.timestamp)
                for w in schedule.get(b.honeypot_id, ())
            ),
        )
        assert dropped > 0
        assert injectors.honeypot.filter(log).batches() == kept
        assert injectors.honeypot.dropped_batches == dropped
        assert injectors.honeypot.dropped_requests == volume
