"""Observation stages as fork children beside the runner.

With more than one CPU the runner starts the telescope and honeypot
stages as fork children after ``attacks`` and runs migration and
measurement itself; on one CPU it computes every stage in its own
process. Both paths fold the same stage records in table order, so a
run must not tell them apart: the same events, the same quality report
apart from timings, the same injector counters, under faults too. The
CPU probe (``runner.stage_children_allowed``) is monkeypatched by the
``forked_stages`` and ``inline_stages`` fixtures.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil

import pytest

from repro.exec.deadline import RunDeadline, RunDeadlineExceeded
from repro.exec.interrupt import InterruptGuard, RunInterrupted
from repro.faults.exec import (
    ExecFault,
    ExecFaultPlan,
    KIND_POISON,
    KIND_SLOW,
)
from repro.faults.plan import FaultPlan, FaultPlanConfig
from repro.obs import Telemetry
from repro.obs.report import render_flight_report
from repro.pipeline import runner
from repro.pipeline import simulation as sim_module
from repro.pipeline.datasets import event_to_dict
from repro.pipeline.runner import (
    ResilientPipeline,
    RetryPolicy,
    stage_fingerprint,
)
from repro.store import CheckpointStore


def no_sleep(_delay):
    pass


def _both_ways(monkeypatch, run):
    """``run()`` once with stage children and once inline."""
    monkeypatch.setattr(runner, "stage_children_allowed", lambda: True)
    forked = run()
    monkeypatch.setattr(runner, "stage_children_allowed", lambda: False)
    inline = run()
    return forked, inline


def _observed(pipeline):
    """What a run leaves that must not depend on where stages ran."""
    result = pipeline.run()
    quality = result.quality.to_dict()
    for stage in quality["stages"]:
        stage["elapsed"] = 0.0
    return {
        "events": [event_to_dict(e) for e in result.fused.combined.events],
        "telescope": len(result.telescope_events),
        "honeypot": len(result.honeypot_events),
        "quality": quality,
        "counters": pipeline.injectors.counters(),
    }


def _plan(config, **overrides):
    settings = dict(
        seed=1,
        n_days=config.n_days,
        n_honeypots=config.n_honeypots,
    )
    settings.update(overrides)
    return FaultPlan.generate(FaultPlanConfig(**settings))


class TestSameRunEitherWay:
    def test_fault_free(self, small_config, monkeypatch, sim):
        forked, inline = _both_ways(
            monkeypatch, lambda: _observed(ResilientPipeline(small_config))
        )
        assert forked == inline
        assert forked["events"] == [
            event_to_dict(e) for e in sim.fused.combined.events
        ]

    def test_lossy_fault_plan(self, small_config, monkeypatch):
        plan = FaultPlan.standard(small_config.n_days, seed=3)
        forked, inline = _both_ways(
            monkeypatch,
            lambda: _observed(ResilientPipeline(small_config, plan=plan)),
        )
        assert forked == inline
        assert any(forked["counters"].values())  # the plan did lose data

    def test_transient_failure_in_honeypot(self, small_config, monkeypatch):
        plan = _plan(
            small_config,
            telescope_outage_rate=0.0,
            honeypot_churn_rate=0.0,
            openintel_miss_rate=0.0,
            dps_corruption_rate=0.0,
            transient_failures={"honeypot": 1},
        )
        forked, inline = _both_ways(
            monkeypatch,
            lambda: _observed(
                ResilientPipeline(small_config, plan=plan, sleep=no_sleep)
            ),
        )
        assert forked == inline
        stages = {s["name"]: s for s in forked["quality"]["stages"]}
        assert stages["honeypot"]["status"] == "ok"
        assert stages["honeypot"]["attempts"] == 2

    def test_poisoned_stage_degrades(self, small_config, monkeypatch):
        faults = ExecFaultPlan.single(KIND_POISON, "telescope")
        forked, inline = _both_ways(
            monkeypatch,
            lambda: _observed(
                ResilientPipeline(
                    small_config,
                    exec_faults=faults,
                    retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
                    sleep=no_sleep,
                )
            ),
        )
        assert forked == inline
        stages = {s["name"]: s for s in forked["quality"]["stages"]}
        assert stages["telescope"]["status"] == "degraded"
        assert forked["telescope"] == 0

    def test_cache_hit_on_one_feed_miss_on_the_other(
        self, small_config, monkeypatch, tmp_path
    ):
        seeded = tmp_path / "seeded"
        ResilientPipeline(small_config, stage_cache=seeded).run()
        honeypot_key = (
            f"honeypot-{stage_fingerprint(small_config, 'honeypot')}"
        )
        runs = iter(("forked", "inline"))

        def run():
            cache = tmp_path / next(runs)
            shutil.copytree(seeded, cache)
            CheckpointStore(cache).discard(honeypot_key)
            return _observed(
                ResilientPipeline(small_config, stage_cache=cache)
            )

        forked, inline = _both_ways(monkeypatch, run)
        assert forked == inline
        stages = {s["name"]: s["status"] for s in forked["quality"]["stages"]}
        assert stages["telescope"] == "cache-hit"
        assert stages["honeypot"] == "ok"
        assert stages["measurement"] == "cache-hit"


@pytest.mark.usefixtures("forked_stages")
class TestChildren:
    def test_telemetry_comes_home(self, small_config):
        telemetry = Telemetry.create()
        ResilientPipeline(small_config, telemetry=telemetry).run()
        spans = telemetry.tracer.spans
        ids = [span.span_id for span in spans]
        assert len(ids) == len(set(ids))
        assert all(s.parent_id is None or s.parent_id in ids for s in spans)
        stage_spans = {
            s.attrs["stage"]: s for s in spans if s.name == "stage"
        }
        run_span = next(s for s in spans if s.name == "run")
        for feed in ("telescope", "honeypot"):
            # Recorded in the feed's child, under the parent's run span.
            assert stage_spans[feed].thread == feed
            assert stage_spans[feed].parent_id == run_span.span_id
            assert stage_spans[feed].attrs["status"] == "ok"
        profiles = {p.stage: p for p in telemetry.profiler.profiles}
        for layer in ("synthesize", "detect"):
            assert profiles[f"telescope.{layer}"].rows > 0
            assert profiles[f"honeypot.{layer}"].rows > 0
        assert profiles["honeypot"].peak_rss_kb > 0
        metrics = telemetry.metrics
        for stage in ("telescope", "honeypot"):
            assert metrics.value(
                "pipeline_stage_attempts_total", stage=stage
            ) == 1
            assert metrics._families["pipeline_stage_seconds"].count(
                stage=stage
            ) == 1

    def test_child_lost_without_delivering_is_a_failed_attempt(
        self, small_config, monkeypatch, sim
    ):
        parent = os.getpid()
        noise = sim_module.honeypot_noise

        def dies_in_a_child(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(9)
            return noise(*args, **kwargs)

        monkeypatch.setattr(sim_module, "honeypot_noise", dies_in_a_child)
        telemetry = Telemetry.create()
        result = ResilientPipeline(
            small_config, telemetry=telemetry, sleep=no_sleep
        ).run()
        stage = {s.name: s for s in result.quality.stages}["honeypot"]
        assert (stage.status, stage.attempts) == ("ok", 2)
        assert telemetry.metrics.value(
            "pipeline_stage_attempt_failures_total", stage="honeypot"
        ) == 1
        assert result.fused.combined.events == sim.fused.combined.events

    def test_deadline_during_the_window_leaves_no_child(
        self, small_config, monkeypatch
    ):
        now = [0.0]
        migrate = sim_module.run_migration

        def slow_migration(*args, **kwargs):
            now[0] += 100.0  # the run deadline passes during migration
            return migrate(*args, **kwargs)

        monkeypatch.setattr(sim_module, "run_migration", slow_migration)
        pipeline = ResilientPipeline(
            small_config,
            # Both feed children would sleep far past the test's patience.
            exec_faults=ExecFaultPlan(
                tuple(
                    ExecFault(KIND_SLOW, feed, delay=60.0)
                    for feed in ("telescope", "honeypot")
                )
            ),
            deadline=RunDeadline(50.0, clock=lambda: now[0]),
        )
        with pytest.raises(RunDeadlineExceeded):
            pipeline.run()
        assert multiprocessing.active_children() == []
        assert pipeline._children == {}

    def test_interrupt_during_the_window_leaves_no_child(
        self, small_config, monkeypatch, tmp_path
    ):
        guard = InterruptGuard()
        migrate = sim_module.run_migration

        def interrupted_migration(*args, **kwargs):
            guard.trigger()
            return migrate(*args, **kwargs)

        monkeypatch.setattr(
            sim_module, "run_migration", interrupted_migration
        )
        pipeline = ResilientPipeline(
            small_config,
            run_dir=tmp_path,
            exec_faults=ExecFaultPlan.single(
                KIND_SLOW, "telescope", delay=60.0
            ),
            interrupt=guard,
        )
        with pytest.raises(RunInterrupted):
            pipeline.run()
        assert multiprocessing.active_children() == []
        # Migration was checkpointed before the boundary that stopped
        # the run; the feeds, still in their children, were not.
        store = CheckpointStore(tmp_path)
        assert store.has("migration")
        assert not store.has("telescope")


class TestWatchedTaskTelemetry:
    def test_measurement_layers_come_home_from_the_task(
        self, small_config, tmp_path, inline_stages
    ):
        """On one CPU a watched measurement forks at its turn; its layers
        are recorded in the child and come home with its record."""
        telemetry = Telemetry.create()
        ResilientPipeline(
            small_config, task_deadline=600.0, telemetry=telemetry
        ).run()
        profiles = {p.stage: p for p in telemetry.profiler.profiles}
        for layer in ("measurement.crawl", "measurement.classify"):
            assert profiles[layer].rows > 0
        telemetry.write_artifacts(tmp_path)
        report = render_flight_report(tmp_path)
        assert "measurement.crawl" in report
        assert "measurement.classify" in report
        spans = {s.span_id: s for s in telemetry.tracer.spans}
        stage = next(
            s for s in spans.values()
            if s.name == "stage" and s.attrs["stage"] == "measurement"
        )
        assert stage.thread == "measurement"  # recorded in the child
        for name in ("crawl", "classify"):
            layer = next(s for s in spans.values() if s.name == name)
            ancestors = []
            while layer.parent_id is not None:
                layer = spans[layer.parent_id]
                ancestors.append(layer)
            assert stage in ancestors, name


class TestCheckpointFsyncs:
    def test_cold_and_warm_cache_runs_count_the_same_fsyncs(
        self, small_config, tmp_path
    ):
        counts = []
        for name in ("cold", "warm"):
            telemetry = Telemetry.create()
            ResilientPipeline(
                small_config,
                run_dir=tmp_path / name,
                stage_cache=tmp_path / "cache",
                telemetry=telemetry,
            ).run()
            counts.append(telemetry.metrics.value("store_fsyncs_total"))
        assert counts[0] == counts[1] > 0
