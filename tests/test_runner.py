"""Unit and integration tests for the resilient stage runner.

The expensive full-pipeline cases reuse the session ``sim`` fixture as the
fault-free reference and run the small scenario through
:class:`ResilientPipeline` under various plans.
"""

import pytest

from repro.core.events import AttackEvent, SOURCE_TELESCOPE
from repro.exec.deadline import RunDeadline, RunDeadlineExceeded
from repro.exec.interrupt import InterruptGuard, RunInterrupted
from repro.faults.exec import ExecFaultPlan, KIND_CRASH, KIND_HUNG, KIND_POISON
from repro.faults.fileio import flip_bits
from repro.faults.plan import (
    ALL_FEEDS,
    FEED_DPS,
    FEED_HONEYPOT,
    FEED_OPENINTEL,
    FEED_TELESCOPE,
    FaultPlan,
    FaultPlanConfig,
)
from repro.pipeline.datasets import read_events_jsonl, save_events_jsonl
from repro.pipeline.quality import (
    HeadlineMetrics,
    STATUS_DOWN,
    STATUS_OK,
)
from repro.pipeline import simulation as sim_module
from repro.pipeline.runner import (
    OBSERVATION_STAGES,
    ResilientPipeline,
    RetryPolicy,
    StageFailedError,
    STAGE_ORDER,
    STAGES,
    TransientStageError,
)
from repro.store import CheckpointStore


def no_sleep(_delay):
    pass


class TestRetryPolicy:
    def test_backoff_grows(self):
        policy = RetryPolicy(max_attempts=4, backoff_base=0.1,
                             backoff_factor=2.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_max=-1.0)

    def test_delay_capped(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=10.0,
                             backoff_max=5.0)
        assert policy.delay(1) == pytest.approx(1.0)
        assert policy.delay(2) == pytest.approx(5.0)
        assert policy.delay(9) == pytest.approx(5.0)

    def test_delay_never_overflows_at_high_attempt_counts(self):
        """2.0 ** 2000 raises OverflowError; the cap must absorb it."""
        policy = RetryPolicy(backoff_base=0.05, backoff_factor=2.0,
                             backoff_max=30.0)
        for attempt in (100, 1030, 10_000, 10**6):
            assert policy.delay(attempt) == pytest.approx(30.0)

    def test_zero_base_is_free(self):
        policy = RetryPolicy(backoff_base=0.0)
        assert policy.delay(1) == 0.0
        assert policy.delay(10**9) == 0.0


class TestDecorrelatedJitter:
    def test_off_by_default_keeps_exponential_sequence(self):
        plain = RetryPolicy(max_attempts=5, backoff_base=0.1)
        assert not plain.jitter
        assert plain.delays() == [
            pytest.approx(0.1), pytest.approx(0.2),
            pytest.approx(0.4), pytest.approx(0.8),
        ]

    def test_same_seed_same_sequence(self):
        a = RetryPolicy(max_attempts=6, backoff_base=0.1, jitter=True,
                        jitter_seed=42)
        b = RetryPolicy(max_attempts=6, backoff_base=0.1, jitter=True,
                        jitter_seed=42)
        assert a.delays() == b.delays()
        # And each delay(n) call is self-consistent with the sequence.
        for attempt in range(1, 6):
            assert a.delay(attempt) == a.delays()[attempt - 1]

    def test_different_seeds_decorrelate(self):
        a = RetryPolicy(max_attempts=6, backoff_base=0.1, jitter=True,
                        jitter_seed=1)
        b = RetryPolicy(max_attempts=6, backoff_base=0.1, jitter=True,
                        jitter_seed=2)
        assert a.delays() != b.delays()

    def test_jitter_bounded_by_base_and_cap(self):
        policy = RetryPolicy(max_attempts=30, backoff_base=0.1,
                             backoff_max=2.0, jitter=True, jitter_seed=7)
        for delay in policy.delays(29):
            assert 0.1 <= delay <= 2.0

    def test_jitter_spreads_within_decorrelated_envelope(self):
        """Each delay lies in [base, 3 * previous delay], capped."""
        policy = RetryPolicy(max_attempts=10, backoff_base=0.1,
                             backoff_max=60.0, jitter=True, jitter_seed=3)
        delays = policy.delays(9)
        previous = policy.backoff_base
        for delay in delays:
            assert delay <= min(
                policy.backoff_max,
                previous * RetryPolicy.JITTER_SPREAD,
            ) + 1e-12
            previous = delay

    def test_zero_base_still_free_with_jitter(self):
        policy = RetryPolicy(backoff_base=0.0, jitter=True)
        assert policy.delay(5) == 0.0

    def test_max_attempts_one_never_sleeps(self, small_config):
        slept = []
        plan = FaultPlan.generate(
            FaultPlanConfig(
                seed=1,
                n_days=small_config.n_days,
                n_honeypots=small_config.n_honeypots,
                telescope_outage_rate=0.0,
                honeypot_churn_rate=0.0,
                openintel_miss_rate=0.0,
                dps_corruption_rate=0.0,
                transient_failures={"attacks": 1},
            )
        )
        pipeline = ResilientPipeline(
            small_config, plan=plan,
            retry=RetryPolicy(max_attempts=1), sleep=slept.append,
        )
        with pytest.raises(StageFailedError):
            pipeline.run()
        assert slept == []

    def test_sleep_sequence_on_exhausted_retries(self, small_config):
        """One sleep per failed attempt except the last."""
        slept = []
        plan = FaultPlan.generate(
            FaultPlanConfig(
                seed=1,
                n_days=small_config.n_days,
                n_honeypots=small_config.n_honeypots,
                telescope_outage_rate=0.0,
                honeypot_churn_rate=0.0,
                openintel_miss_rate=0.0,
                dps_corruption_rate=0.0,
                transient_failures={"internet": 99},
            )
        )
        pipeline = ResilientPipeline(
            small_config, plan=plan,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.01,
                              backoff_factor=3.0),
            sleep=slept.append,
        )
        with pytest.raises(StageFailedError):
            pipeline.run()
        assert slept == pytest.approx([0.01, 0.03, 0.09])


class TestHealthyRun:
    def test_matches_plain_simulation(self, small_config, sim):
        result = ResilientPipeline(small_config, sleep=no_sleep).run()
        assert len(result.fused.combined) == len(sim.fused.combined)
        assert len(result.telescope_events) == len(sim.telescope_events)
        assert len(result.honeypot_events) == len(sim.honeypot_events)
        assert result.quality is not None
        assert not result.quality.degraded
        for feed in ALL_FEEDS:
            assert result.quality.feed(feed).status == STATUS_OK
        assert [s.name for s in result.quality.stages] == list(STAGE_ORDER)
        assert all(s.status == "ok" for s in result.quality.stages)

    def test_plan_window_mismatch_rejected(self, small_config):
        with pytest.raises(ValueError):
            ResilientPipeline(
                small_config,
                plan=FaultPlan.none(small_config.n_days + 1),
            )


#: Stage functions the table must look up on the simulation module when
#: it runs: perfbench's per-layer tracing wraps them there.
LATE_BOUND = (
    "build_internet",
    "schedule_attacks",
    "run_migration",
    "telescope_noise",
    "telescope_capture",
    "detect_telescope_shard",
    "merge_telescope_shards",
    "honeypot_noise",
    "honeypot_capture",
    "detect_honeypot_shard",
    "merge_honeypot_shards",
    "measure_dns",
    "fuse_observations",
)


def _count_calls(monkeypatch, names):
    """Counting wrappers on simulation-module functions; the counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(sim_module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(sim_module, name, counting)
    return calls


class TestStageTable:
    def test_table_order_is_the_catalog_order(self):
        assert [row.name for row in STAGES] == list(STAGE_ORDER)
        for index, row in enumerate(STAGES):
            assert set(row.deps) <= set(STAGE_ORDER[:index])
        assert OBSERVATION_STAGES == ("telescope", "honeypot", "measurement")

    @pytest.mark.usefixtures("inline_stages")  # counts calls made here
    def test_stage_functions_are_looked_up_at_call_time(
        self, small_config, monkeypatch
    ):
        # The runner is imported above, before the wrappers go in.
        calls = _count_calls(monkeypatch, LATE_BOUND)
        ResilientPipeline(small_config).run()
        assert [name for name, n in calls.items() if n == 0] == []

    def test_partitions_bucketed_only_when_a_feed_runs(
        self, small_config, monkeypatch, tmp_path
    ):
        ResilientPipeline(small_config, run_dir=tmp_path).run()
        calls = _count_calls(monkeypatch, ("partition_attacks",))
        store = CheckpointStore(tmp_path)
        store.discard("fusion")
        ResilientPipeline(small_config, run_dir=tmp_path).run()
        assert calls["partition_attacks"] == 0  # both feeds restored
        store.discard("fusion")
        store.discard("telescope")
        store.discard("honeypot")
        result = ResilientPipeline(small_config, run_dir=tmp_path).run()
        assert calls["partition_attacks"] == 1  # once for both feeds
        statuses = {s.name: s.status for s in result.quality.stages}
        assert statuses["telescope"] == statuses["honeypot"] == "ok"


class TestTransientFailures:
    def _plan(self, small_config, failures):
        return FaultPlan.generate(
            FaultPlanConfig(
                seed=1,
                n_days=small_config.n_days,
                n_honeypots=small_config.n_honeypots,
                telescope_outage_rate=0.0,
                honeypot_churn_rate=0.0,
                openintel_miss_rate=0.0,
                dps_corruption_rate=0.0,
                transient_failures=failures,
            )
        )

    @pytest.mark.usefixtures("inline_stages")  # records sleeps made here
    def test_retry_recovers(self, small_config, sim):
        slept = []
        plan = self._plan(small_config, {"telescope": 2})
        pipeline = ResilientPipeline(
            small_config, plan=plan,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
            sleep=slept.append,
        )
        result = pipeline.run()
        stage = {s.name: s for s in result.quality.stages}["telescope"]
        assert stage.status == "ok"
        assert stage.attempts == 3
        # Exponential backoff: one sleep per failed attempt.
        assert slept == pytest.approx([0.01, 0.02])
        # Recovered stage produces the exact healthy output.
        assert len(result.telescope_events) == len(sim.telescope_events)

    def test_feed_stage_degrades_to_empty(self, small_config):
        plan = self._plan(small_config, {"honeypot": 99})
        result = ResilientPipeline(
            small_config, plan=plan,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            sleep=no_sleep,
        ).run()
        assert result.honeypot_events == []
        quality = result.quality.feed(FEED_HONEYPOT)
        assert quality.status == STATUS_DOWN
        assert "stage failed permanently" in quality.detail
        stage = {s.name: s for s in result.quality.stages}["honeypot"]
        assert stage.status == "degraded"
        # The rest of the pipeline still completed.
        assert len(result.telescope_events) > 0

    def test_measurement_stage_degrades_typed_empty(self, small_config):
        plan = self._plan(small_config, {"measurement": 99})
        result = ResilientPipeline(
            small_config, plan=plan,
            retry=RetryPolicy(max_attempts=1), sleep=no_sleep,
        ).run()
        assert result.openintel.hosting_intervals == []
        assert result.openintel.n_days == small_config.n_days
        assert result.dps_usage.usages == []
        assert result.quality.feed(FEED_OPENINTEL).status == STATUS_DOWN
        assert result.quality.headline is not None

    def test_core_stage_failure_fatal_then_resumable(self, small_config):
        plan = self._plan(small_config, {"attacks": 3})
        pipeline = ResilientPipeline(
            small_config, plan=plan,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            sleep=no_sleep,
        )
        with pytest.raises(StageFailedError) as excinfo:
            pipeline.run()
        assert excinfo.value.stage == "attacks"
        # Resume: the internet stage is checkpointed, the one remaining
        # injected failure is absorbed by a retry, and the run completes.
        result = pipeline.run()
        stages = {s.name: s for s in result.quality.stages}
        assert stages["internet"].status == "cached"
        assert stages["attacks"].status == "ok"
        assert stages["attacks"].attempts == 2
        assert len(result.fused.combined) > 0


class TestFeedDownSweep:
    @pytest.fixture(scope="class")
    def baseline(self, sim):
        return HeadlineMetrics.from_result(sim)

    def test_telescope_down(self, small_config, baseline):
        plan = FaultPlan.feed_down(
            FEED_TELESCOPE, small_config.n_days, small_config.n_honeypots
        )
        result = ResilientPipeline(
            small_config, plan=plan, sleep=no_sleep
        ).run(baseline)
        assert result.telescope_events == []
        assert len(result.honeypot_events) > 0
        quality = result.quality.feed(FEED_TELESCOPE)
        assert quality.uptime == 0.0 and quality.status == STATUS_DOWN
        drift = result.quality.headline_drift()
        assert drift["attacked_slash24_fraction"] > 0

    def test_honeypot_down(self, small_config, baseline):
        plan = FaultPlan.feed_down(
            FEED_HONEYPOT, small_config.n_days, small_config.n_honeypots
        )
        result = ResilientPipeline(
            small_config, plan=plan, sleep=no_sleep
        ).run(baseline)
        assert result.honeypot_events == []
        assert result.quality.feed(FEED_HONEYPOT).status == STATUS_DOWN

    def test_openintel_down(self, small_config, baseline):
        plan = FaultPlan.feed_down(
            FEED_OPENINTEL, small_config.n_days, small_config.n_honeypots
        )
        result = ResilientPipeline(
            small_config, plan=plan, sleep=no_sleep
        ).run(baseline)
        assert result.openintel.hosting_intervals == []
        assert result.openintel.first_seen == {}
        assert result.quality.feed(FEED_OPENINTEL).status == STATUS_DOWN
        # No Web index left: the site-impact ratio collapses to zero.
        assert result.quality.headline.attacked_site_fraction == 0.0

    def test_dps_down(self, small_config, baseline):
        plan = FaultPlan.feed_down(
            FEED_DPS, small_config.n_days, small_config.n_honeypots
        )
        result = ResilientPipeline(
            small_config, plan=plan, sleep=no_sleep
        ).run(baseline)
        quality = result.quality.feed(FEED_DPS)
        assert quality.status == STATUS_DOWN
        assert len(result.dps_usage.usages) < quality.events_dropped + 1


class TestReportDeterminism:
    def test_identical_reports_across_runs(self, small_config):
        plan = FaultPlan.standard(
            small_config.n_days, seed=7, n_honeypots=small_config.n_honeypots
        )
        renders = []
        for _ in range(2):
            result = ResilientPipeline(
                small_config, plan=plan, sleep=no_sleep
            ).run()
            renders.append(result.quality.render())
        assert renders[0] == renders[1]


class TestDurableRuns:
    """In-process crash-recovery semantics (the CLI drill lives in
    tests/test_recovery.py)."""

    def _run(self, config, run_dir, plan=None):
        return ResilientPipeline(
            config, plan=plan, run_dir=run_dir, sleep=no_sleep
        )

    def test_fresh_process_resumes_from_checkpoints(
        self, small_config, tmp_path
    ):
        run_dir = tmp_path / "run"
        first = self._run(small_config, run_dir).run()
        resumed = self._run(small_config, run_dir).run()
        statuses = [s.status for s in resumed.quality.stages]
        assert statuses == ["cached"] * len(STAGE_ORDER)
        assert (
            HeadlineMetrics.from_result(resumed)
            == HeadlineMetrics.from_result(first)
        )

    def test_partial_prefix_recomputes_remaining_stages(
        self, small_config, tmp_path
    ):
        run_dir = tmp_path / "run"
        reference = self._run(small_config, run_dir).run()
        store = CheckpointStore(run_dir)
        for stage in STAGE_ORDER[2:]:
            store.discard(stage)
        resumed_pipeline = self._run(small_config, run_dir)
        resumed = resumed_pipeline.run()
        statuses = {s.name: s.status for s in resumed.quality.stages}
        assert statuses["internet"] == "cached"
        assert statuses["attacks"] == "cached"
        assert all(statuses[s] == "ok" for s in STAGE_ORDER[2:])
        assert (
            HeadlineMetrics.from_result(resumed)
            == HeadlineMetrics.from_result(reference)
        )

    def test_corrupt_checkpoint_falls_back_and_recomputes(
        self, small_config, tmp_path
    ):
        run_dir = tmp_path / "run"
        reference = self._run(small_config, run_dir).run()
        store = CheckpointStore(run_dir)
        flip_bits(store.payload_path("attacks"), seed=3, n_flips=1)
        pipeline = self._run(small_config, run_dir)
        kinds = {i.stage: i.kind for i in pipeline.checkpoint_issues}
        assert kinds["attacks"] == "corrupt"
        assert all(
            kinds[s] == "orphaned" for s in STAGE_ORDER[2:]
        )
        resumed = pipeline.run()
        statuses = {s.name: s.status for s in resumed.quality.stages}
        assert statuses["internet"] == "cached"
        assert statuses["attacks"] == "ok"
        assert (
            HeadlineMetrics.from_result(resumed)
            == HeadlineMetrics.from_result(reference)
        )

    def test_injector_counters_survive_resume(self, small_config, tmp_path):
        """Quality feed accounting must match an uninterrupted faulty run."""
        def plan():
            return FaultPlan.standard(
                small_config.n_days,
                seed=7,
                n_honeypots=small_config.n_honeypots,
            )

        uninterrupted = ResilientPipeline(
            small_config, plan=plan(), sleep=no_sleep
        ).run()
        run_dir = tmp_path / "run"
        self._run(small_config, run_dir, plan=plan()).run()
        # Drop everything after the honeypot stage, as a crash would.
        store = CheckpointStore(run_dir)
        for stage in STAGE_ORDER[5:]:
            store.discard(stage)
        resumed = self._run(small_config, run_dir, plan=plan()).run()
        statuses = {s.name: s.status for s in resumed.quality.stages}
        assert statuses["honeypot"] == "cached"
        assert statuses["measurement"] == "ok"
        for feed in ALL_FEEDS:
            a = resumed.quality.feed(feed)
            b = uninterrupted.quality.feed(feed)
            assert (a.uptime, a.events_observed, a.events_dropped) == (
                b.uptime, b.events_observed, b.events_dropped
            ), feed

    def test_record_reports_surface_in_quality(
        self, small_config, tmp_path
    ):
        feed_path = tmp_path / "feed.jsonl"
        save_events_jsonl(
            [
                AttackEvent(SOURCE_TELESCOPE, 1, 0.0, 1.0, 1.0),
            ],
            feed_path,
        )
        with open(feed_path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        _events, report = read_events_jsonl(feed_path)
        pipeline = ResilientPipeline(small_config, sleep=no_sleep)
        pipeline.attach_record_report(report)
        result = pipeline.run()
        assert result.quality.degraded
        (record,) = result.quality.records
        assert record.loaded == 1 and record.quarantined == 1
        rendered = result.quality.render()
        assert "record validation:" in rendered
        assert "unparseable-json×1" in rendered

    def test_crash_after_validation(self, small_config, tmp_path):
        with pytest.raises(ValueError):
            ResilientPipeline(
                small_config,
                run_dir=tmp_path / "run",
                crash_after="no-such-stage",
            )


class TestSupervisedExecution:
    """The watchdog path, in process: a task deadline runs each
    observation stage's compute as one watched worker task."""

    def test_supervised_run_matches_serial(self, small_config, sim):
        result = ResilientPipeline(
            small_config, task_deadline=60.0, sleep=no_sleep
        ).run()
        assert result.fused.combined.events == sim.fused.combined.events
        assert result.openintel.zone_stats == sim.openintel.zone_stats
        assert all(s.status == STATUS_OK for s in result.quality.stages)

    def test_task_deadline_must_be_positive(self, small_config):
        with pytest.raises(ValueError, match="task deadline"):
            ResilientPipeline(small_config, task_deadline=0.0)

    def test_poison_shard_degrades_feed_and_stage(self, small_config):
        result = ResilientPipeline(
            small_config,
            task_deadline=60.0,
            exec_faults=ExecFaultPlan.single(KIND_POISON, "honeypot"),
            sleep=no_sleep,
        ).run()
        # The unprocessable input fails every attempt; the stage must fall
        # back to the empty-typed feed, not crash the run.
        assert result.quality.feed("honeypot").status == STATUS_DOWN
        assert result.quality.feed("telescope").status == STATUS_OK
        # Every attempt ran (none refused) and the report says why.
        stage = next(s for s in result.quality.stages if s.name == "honeypot")
        assert stage.status == "degraded"
        assert stage.attempts == RetryPolicy().max_attempts
        assert "PoisonShardError" in stage.error
        assert (
            f"honeypot     degraded after {stage.attempts} attempts"
            in result.quality.render()
        )

    def test_crash_shard_recovers_byte_identical(self, small_config, sim):
        result = ResilientPipeline(
            small_config,
            task_deadline=60.0,
            exec_faults=ExecFaultPlan.single(KIND_CRASH, "telescope"),
            sleep=no_sleep,
        ).run()
        assert result.fused.combined.events == sim.fused.combined.events
        telescope = next(
            s for s in result.quality.stages if s.name == "telescope"
        )
        assert telescope.status == STATUS_OK and telescope.attempts == 2

    def test_deadline_aborts_mid_stage_and_resumes_identically(
        self, small_config, sim, tmp_path
    ):
        """Abort a run after a hung task is killed; resume must finish.

        The run deadline uses an injected clock advanced only by the
        retry backoff sleep, so expiry lands deterministically right
        after telescope's first attempt, whose task hangs until the
        watchdog kills it at the task deadline.
        """
        run_dir = tmp_path / "run"
        fake_now = [0.0]

        def clock():
            return fake_now[0]

        def sleep_advancing(_delay):
            fake_now[0] += 10.0

        with pytest.raises(RunDeadlineExceeded):
            ResilientPipeline(
                small_config,
                run_dir=run_dir,
                task_deadline=0.5,
                exec_faults=ExecFaultPlan.single(KIND_HUNG, "telescope"),
                deadline=RunDeadline(5.0, clock=clock),
                sleep=sleep_advancing,
            ).run()
        on_disk = set(CheckpointStore(run_dir).stages())
        assert "migration" in on_disk
        assert "telescope" not in on_disk

        result = ResilientPipeline(
            small_config, run_dir=run_dir, sleep=no_sleep
        ).run()
        assert result.fused.combined.events == sim.fused.combined.events
        statuses = {s.name: s.status for s in result.quality.stages}
        assert statuses["migration"] == "cached"
        assert statuses["telescope"] == "ok"


class TestPerFeedQuarantineCounts:
    def test_per_feed_counts_surface_in_quality(
        self, small_config, tmp_path
    ):
        bad = tmp_path / "shared.jsonl"
        bad.write_text('{"garbage": true}\nnot json\n', encoding="utf-8")
        _events, telescope = read_events_jsonl(bad, feed="telescope")
        _events, honeypot = read_events_jsonl(bad, feed="honeypot")
        pipeline = ResilientPipeline(small_config, sleep=no_sleep)
        pipeline.attach_record_report(telescope)
        pipeline.attach_record_report(honeypot)
        result = pipeline.run()
        counts = result.quality.per_feed_quarantine_counts()
        assert counts == {"telescope": 2, "honeypot": 2}
        rendered = result.quality.render()
        assert "per feed: honeypot=2, telescope=2" in rendered
        # The namespaced dead-letter files both survive side by side.
        assert (record.feed for record in result.quality.records)
        paths = {r.quarantine_path for r in result.quality.records}
        assert len(paths) == 2


class TestInterruptGuard:
    def test_unarmed_guard_is_a_noop(self):
        guard = InterruptGuard()
        guard.check("anywhere")  # no signal, no handlers: nothing raised

    def test_triggered_guard_raises_with_exit_code(self):
        guard = InterruptGuard()
        guard.trigger(15)
        with pytest.raises(RunInterrupted) as caught:
            guard.check("stage 'fusion'")
        assert caught.value.signum == 15
        assert caught.value.exit_code == 143
        assert "stage 'fusion'" in str(caught.value)

    def test_interrupted_durable_run_stays_resumable(
        self, small_config, tmp_path, sim
    ):
        run_dir = tmp_path / "run"
        guard = InterruptGuard()
        guard.trigger()  # signal arrives before the first stage boundary
        pipeline = ResilientPipeline(
            small_config, run_dir=run_dir, interrupt=guard, sleep=no_sleep
        )
        with pytest.raises(RunInterrupted):
            pipeline.run()
        # A fresh pipeline without the interrupt finishes the run and
        # matches the uninterrupted reference exactly.
        resumed = ResilientPipeline(
            small_config, run_dir=run_dir, sleep=no_sleep
        )
        result = resumed.run()
        assert result.fused.combined.events == sim.fused.combined.events

    def test_interrupt_outranks_stage_failures(self, small_config):
        guard = InterruptGuard()
        guard.trigger()
        pipeline = ResilientPipeline(
            small_config,
            interrupt=guard,
            task_deadline=30.0,
            sleep=no_sleep,
        )
        with pytest.raises(RunInterrupted):
            pipeline.run()
