"""Partition before synthesis is exact.

The telescope and honeypot stages synthesize, fault-filter and detect
one victim partition of the attacks at a time and merge once. These
tests pin the runner's partitioned events, and the fault injectors'
loss counters, to a whole-capture oracle: the one-partition capture,
filtered and detected once. They also check that a failure midway
through the partitions rolls back every partition's counters.
"""

from __future__ import annotations

from functools import lru_cache
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults.injectors import FaultInjectorSet
from repro.faults.plan import FaultPlan, FaultPlanConfig
from repro.honeypot.amppot import AmpPotFleet
from repro.pipeline import simulation as sim_module
from repro.pipeline.config import ScenarioConfig
from repro.pipeline.runner import ResilientPipeline, TransientStageError
from tests.detection_oracle import honeypot_partitioned, telescope_partitioned

SEEDS = (42, 7, 2017)


@lru_cache(maxsize=None)
def _ground_truth(seed: int):
    config = ScenarioConfig.small().with_seed(seed)
    internet = sim_module.build_internet(config)
    return config, sim_module.schedule_attacks(config, internet)


def _outage_plan(config: ScenarioConfig, fault_seed: int) -> FaultPlan:
    """Telescope outages and honeypot churn, dense enough to bite."""
    return FaultPlan.generate(
        FaultPlanConfig(
            seed=fault_seed,
            n_days=config.n_days,
            n_honeypots=config.n_honeypots,
            telescope_outage_rate=0.08,
            honeypot_churn_rate=0.05,
        )
    )


def _whole_capture(config, ground_truth, plan):
    """The oracle: each feed's one-partition capture, filtered and
    detected once, with the injectors that filtered it."""
    injectors = FaultInjectorSet(plan)
    capture = sim_module.telescope_capture(
        config, ground_truth, fault=injectors.telescope
    )
    request_log = sim_module.honeypot_capture(
        config, ground_truth, fault=injectors.honeypot
    )
    telescope = sim_module.merge_telescope_shards(
        [sim_module.detect_telescope_shard(config, capture)]
    )
    honeypot = sim_module.merge_honeypot_shards(
        [sim_module.detect_honeypot_shard(config, request_log)]
    )
    return telescope, honeypot, injectors


def _partitioned(config, ground_truth, plan, n_partitions):
    """The runner's two observation stages over *n_partitions*."""
    pipeline = ResilientPipeline(config, plan=plan)
    partitions = sim_module.partition_attacks(ground_truth, n_partitions)
    telescope = pipeline._observe_telescope(partitions)
    honeypot = pipeline._observe_honeypot(partitions)
    return telescope, honeypot, pipeline.injectors


def _loss_counts(injectors: FaultInjectorSet):
    return (
        injectors.telescope.dropped_batches,
        injectors.telescope.dropped_packets,
        injectors.honeypot.dropped_batches,
        injectors.honeypot.dropped_requests,
    )


class TestPartitionedObservation:
    @given(
        n_partitions=st.integers(1, 16), seed=st.sampled_from(SEEDS)
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_partition_count_matches_whole_capture(
        self, n_partitions, seed
    ):
        config, ground_truth = _ground_truth(seed)
        plan = FaultPlan.none(config.n_days, config.n_honeypots)
        telescope, honeypot, _ = _partitioned(
            config, ground_truth, plan, n_partitions
        )
        whole_telescope, whole_honeypot, _ = _whole_capture(
            config, ground_truth, plan
        )
        assert telescope and honeypot
        assert telescope == whole_telescope
        assert honeypot == whole_honeypot

    @given(
        n_partitions=st.integers(1, 16),
        seed=st.sampled_from(SEEDS),
        fault_seed=st.integers(0, 50),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fault_filtering_per_partition_matches_whole_capture(
        self, n_partitions, seed, fault_seed
    ):
        config, ground_truth = _ground_truth(seed)
        plan = _outage_plan(config, fault_seed)
        telescope, honeypot, injectors = _partitioned(
            config, ground_truth, plan, n_partitions
        )
        whole_telescope, whole_honeypot, oracle = _whole_capture(
            config, ground_truth, plan
        )
        assert telescope == whole_telescope
        assert honeypot == whole_honeypot
        assert _loss_counts(injectors) == _loss_counts(oracle)

    def test_empty_partitions_are_exact_too(self):
        # Sixteen partitions over a handful of attacks: most hold no
        # attacks, and only noise.
        config, ground_truth = _ground_truth(SEEDS[0])
        few = ground_truth[:5]
        plan = FaultPlan.none(config.n_days, config.n_honeypots)
        assert sum(
            not attacks for attacks in sim_module.partition_attacks(few, 16)
        ) >= 11
        assert _partitioned(config, few, plan, 16)[:2] == (
            _whole_capture(config, few, plan)[:2]
        )

    def test_partition_counts_follow_the_attack_count(self):
        per = sim_module.ATTACKS_PER_PARTITION
        assert sim_module.partition_count(0) == 1
        assert sim_module.partition_count(per) == 1
        assert sim_module.partition_count(per + 1) == 2
        assert sim_module.partition_count(97 * per) == 97

    def test_partitions_bucket_by_victim(self):
        config, ground_truth = _ground_truth(SEEDS[0])
        partitions = sim_module.partition_attacks(ground_truth, 5)
        assert sum(map(len, partitions)) == len(ground_truth)
        for index, attacks in enumerate(partitions):
            assert all(attack.target % 5 == index for attack in attacks)

    def test_noise_is_split_by_victim_in_row_order(self):
        config, _ = _ground_truth(SEEDS[0])
        parts = sim_module.telescope_noise(config, 4)
        whole = sim_module._telescope(config).noise_columns(config.n_days)
        assert sum(map(len, parts)) == len(whole) > 0
        for index, part in enumerate(parts):
            assert part == whole.take(whole.src % 4 == index)
        scans = sim_module.honeypot_noise(config, 4)
        whole_scans = AmpPotFleet(config.fleet_config()).noise_columns(
            config.n_days
        )
        for index, part in enumerate(scans):
            assert part == whole_scans.take(whole_scans.victim % 4 == index)


class TestRunnerPartitions:
    def test_full_run_with_many_partitions_matches_session_run(
        self, small_config, sim
    ):
        with mock.patch.object(
            sim_module, "partition_count", lambda n_attacks: 5
        ):
            result = ResilientPipeline(small_config).run()
        assert result.telescope_events == sim.telescope_events
        assert result.honeypot_events == sim.honeypot_events
        assert result.fused.summary_rows() == sim.fused.summary_rows()

    def test_whole_capture_oracle_agrees_with_detection_oracle(
        self, small_config, sim
    ):
        # The tests' victim-partitioned detection over a whole capture
        # and the pipeline's partition-before-synthesis agree.
        capture = sim_module.telescope_capture(small_config, sim.ground_truth)
        request_log = sim_module.honeypot_capture(
            small_config, sim.ground_truth
        )
        assert telescope_partitioned(small_config, capture, 3) == (
            sim.telescope_events
        )
        assert honeypot_partitioned(small_config, request_log, 3) == (
            sim.honeypot_events
        )

    def test_failure_midway_rolls_back_every_partitions_counters(
        self, small_config
    ):
        plan = _outage_plan(small_config, fault_seed=3)
        with mock.patch.object(
            sim_module, "partition_count", lambda n_attacks: 4
        ):
            clean_pipeline = ResilientPipeline(small_config, plan=plan)
            clean = clean_pipeline.run()
            detect = sim_module.detect_telescope_shard
            calls = []

            def flaky_detect(config, capture):
                calls.append(len(capture))
                if len(calls) == 3:  # the third partition of attempt 1
                    raise TransientStageError("collector hiccup")
                return detect(config, capture)

            with mock.patch.object(
                sim_module, "detect_telescope_shard", flaky_detect
            ):
                pipeline = ResilientPipeline(
                    small_config, plan=plan, sleep=lambda _: None
                )
                retried = pipeline.run()
        # Attempt 1 filtered three partitions before failing; attempt 2
        # ran all four again.
        assert len(calls) == 3 + 4
        (report,) = [
            s for s in retried.quality.stages if s.name == "telescope"
        ]
        assert (report.status, report.attempts) == ("ok", 2)
        assert clean.quality.feed("telescope").events_dropped > 0
        for feed in ("telescope", "honeypot"):
            assert retried.quality.feed(feed) == clean.quality.feed(feed)
        assert _loss_counts(pipeline.injectors) == _loss_counts(
            clean_pipeline.injectors
        )
        assert retried.telescope_events == clean.telescope_events
        assert retried.honeypot_events == clean.honeypot_events
