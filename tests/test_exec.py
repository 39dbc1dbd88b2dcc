"""Unit tests for the supervised executor building blocks.

Covers the fork watchdog (value delivery, error capture, the watchdog
killing hung workers, crash reporting), the per-feed circuit breaker's
closed → open → half-open life cycle under an injected clock, the
run-level deadline and execution-fault plans.
"""

import json
import time

import pytest

from repro.exec.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BREAKER_STATE_CODES,
    CircuitBreaker,
)
from repro.exec.deadline import RunDeadline, RunDeadlineExceeded
from repro.exec.pool import (
    STATUS_DEADLINE,
    STATUS_ERROR,
    STATUS_OK,
    SupervisedPool,
    TaskSpec,
    _ForkWorker,
)
from repro.faults.exec import (
    ExecFault,
    ExecFaultPlan,
    KIND_CRASH,
    KIND_HUNG,
    KIND_POISON,
    PoisonShardError,
    apply_exec_fault,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_flight_report


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


# -- SupervisedPool -----------------------------------------------------------


class TestSupervisedPool:
    def test_value_delivered_from_fork_child(self):
        pool = SupervisedPool()
        outcome = pool.run(TaskSpec(name="square", fn=lambda: 7 * 7))
        assert outcome.name == "square"
        assert outcome.status == STATUS_OK
        assert outcome.value == 49

    def test_task_exception_is_captured_not_raised(self):
        pool = SupervisedPool()

        def boom():
            raise RuntimeError("shard is cursed")

        outcome = pool.run(TaskSpec("bad", boom))
        assert outcome.status == STATUS_ERROR
        assert "shard is cursed" in outcome.error

    def test_watchdog_kills_hung_fork_worker(self):
        pool = SupervisedPool()
        started = time.monotonic()
        hung = pool.run(
            TaskSpec("hung", lambda: time.sleep(120), deadline=0.5)
        )
        elapsed = time.monotonic() - started
        assert hung.status == STATUS_DEADLINE
        assert "killed" in hung.error
        assert elapsed < 30, "watchdog did not fire anywhere near the deadline"
        # The pool is reusable after a kill.
        fine = pool.run(TaskSpec("fine", lambda: "done", deadline=30.0))
        assert fine.ok and fine.value == "done"

    def test_crashed_worker_reported_with_exit_code(self):
        import os

        pool = SupervisedPool()
        outcome = pool.run(TaskSpec("dies", lambda: os._exit(13)))
        assert outcome.status == "crashed"
        assert "13" in outcome.error

    def test_result_delivered_just_before_exit_is_not_a_crash(
        self, tmp_path
    ):
        # The child sends its result and exits between the supervisor's
        # two reads (pipe, then liveness): the result must still count.
        go = tmp_path / "go"

        def task():
            while not go.exists():
                time.sleep(0.001)
            return "delivered"

        worker = _ForkWorker(TaskSpec("racy", task))
        really_alive = worker.process.is_alive

        def is_alive():
            go.touch()
            worker.process.join(timeout=30)
            return really_alive()

        worker.process.is_alive = is_alive
        outcome = worker.poll()
        assert outcome is not None and outcome.ok, outcome
        assert outcome.value == "delivered"


# -- CircuitBreaker -----------------------------------------------------------


class TestCircuitBreaker:
    def test_closed_allows_and_counts_failures(self):
        breaker = CircuitBreaker("feed", failure_threshold=3)
        assert breaker.allow()
        breaker.record_failure("hiccup")
        breaker.record_failure("hiccup")
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_threshold_trips_open_and_refuses(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "feed", failure_threshold=2, cooldown=30.0, clock=clock
        )
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.refusals == 2

    def test_cooldown_elapses_to_half_open_single_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "feed", failure_threshold=1, cooldown=10.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.allow()  # the probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert not breaker.allow()  # only ONE probe

    def test_probe_success_closes_and_resets(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "feed", failure_threshold=2, cooldown=5.0, clock=clock
        )
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        # Reset consecutive count: one new failure must not re-trip.
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_probe_failure_reopens_for_another_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "feed", failure_threshold=1, cooldown=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure("still down")
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()

    def test_report_is_deterministic_and_renders(self, tmp_path):
        # A breaker's history is its breaker_* series (no timestamps),
        # which the flight report renders.
        clock = FakeClock()
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            "feed", failure_threshold=1, cooldown=1.0, clock=clock,
            metrics=registry,
        )
        breaker.record_failure("poison shard")
        assert not breaker.allow()  # refused during the cooldown
        clock.advance(1.0)
        breaker.allow()
        breaker.record_success()
        metrics = json.loads(registry.to_json())["metrics"]

        def series(name):
            return {
                tuple(sorted(s["labels"].items())): s["value"]
                for s in metrics[name]["series"]
            }

        assert series("breaker_transitions_total") == {
            (("breaker", "feed"), ("to_state", state)): 1
            for state in (BREAKER_OPEN, BREAKER_HALF_OPEN, BREAKER_CLOSED)
        }
        assert series("breaker_failures_total") == {(("breaker", "feed"),): 1}
        assert series("breaker_refusals_total") == {(("breaker", "feed"),): 1}
        assert series("breaker_state") == {
            (("breaker", "feed"),): BREAKER_STATE_CODES[BREAKER_CLOSED]
        }
        (tmp_path / "metrics.json").write_text(
            registry.to_json(), encoding="utf-8"
        )
        report = render_flight_report(tmp_path)
        assert "breaker trips (-> open): 1" in report
        assert "attempts refused by breakers: 1" in report


# -- RunDeadline --------------------------------------------------------------


class TestRunDeadline:
    def test_no_deadline_never_expires(self):
        deadline = RunDeadline(None)
        assert not deadline.active
        assert deadline.remaining() is None
        deadline.check("anywhere")  # no raise

    def test_expiry_raises_with_location(self):
        clock = FakeClock()
        deadline = RunDeadline(10.0, clock=clock)
        deadline.check("stage 'attacks'")
        clock.advance(10.1)
        with pytest.raises(RunDeadlineExceeded) as err:
            deadline.check("stage 'telescope'")
        assert "stage 'telescope'" in str(err.value)
        assert "resumable" in str(err.value)

    def test_remaining_counts_down(self):
        clock = FakeClock()
        deadline = RunDeadline(10.0, clock=clock)
        clock.advance(4.0)
        assert deadline.remaining() == pytest.approx(6.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            RunDeadline(0.0)


# -- execution-fault plans ----------------------------------------------------


class TestExecFaultPlan:
    def test_parse_round_trips(self):
        plan = ExecFaultPlan.parse(
            ("hung:honeypot", "poison:telescope", "crash:measurement:2")
        )
        assert plan.lookup("honeypot", 1).kind == KIND_HUNG
        assert plan.lookup("honeypot", 2) is None
        assert plan.lookup("telescope", 1).kind == KIND_POISON
        assert plan.lookup("attacks", 1) is None
        # attempts=2: fires on attempts 1 and 2, clean from attempt 3.
        assert plan.lookup("measurement", 2).kind == KIND_CRASH
        assert plan.lookup("measurement", 3) is None

    def test_poison_fires_on_every_attempt(self):
        fault = ExecFault(kind=KIND_POISON, stage="honeypot")
        assert fault.matches("honeypot", 1)
        assert fault.matches("honeypot", 99)

    def test_parse_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            ExecFaultPlan.parse(("hung",))

    def test_apply_poison_raises(self):
        with pytest.raises(PoisonShardError):
            apply_exec_fault(ExecFault(kind=KIND_POISON, stage="honeypot"))

    def test_apply_none_is_noop(self):
        apply_exec_fault(None)

    def test_describe_is_stable(self):
        plan = ExecFaultPlan.parse(("hung:honeypot",))
        assert "hung" in plan.describe()
        assert "honeypot" in plan.describe()
