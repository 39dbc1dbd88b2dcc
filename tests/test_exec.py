"""Unit tests for the supervised executor building blocks.

Covers the worker pool (result ordering, error capture, the watchdog
killing hung workers, crash reporting), the per-feed circuit breaker's
closed → open → half-open life cycle under an injected clock, the
run-level deadline and execution-fault plans.
"""

import time

import pytest

from repro.exec.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.exec.deadline import RunDeadline, RunDeadlineExceeded
from repro.exec.pool import (
    MODE_FORK,
    MODE_SERIAL,
    MODE_THREAD,
    STATUS_DEADLINE,
    STATUS_ERROR,
    STATUS_OK,
    SupervisedPool,
    TaskSpec,
    _ForkWorker,
    resolve_mode,
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

HAVE_FORK = resolve_mode("auto") == MODE_FORK


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


# -- SupervisedPool -----------------------------------------------------------


class TestSupervisedPool:
    @pytest.mark.parametrize(
        "mode",
        [MODE_SERIAL, MODE_THREAD]
        + ([MODE_FORK] if HAVE_FORK else []),
    )
    def test_outcomes_in_task_order(self, mode):
        pool = SupervisedPool(max_workers=2, mode=mode)
        tasks = [
            TaskSpec(name=f"t{i}", fn=(lambda i=i: i * i))
            for i in range(5)
        ]
        outcomes = pool.run(tasks)
        assert [o.name for o in outcomes] == [f"t{i}" for i in range(5)]
        assert all(o.status == STATUS_OK for o in outcomes)
        assert [o.value for o in outcomes] == [0, 1, 4, 9, 16]

    @pytest.mark.parametrize(
        "mode",
        [MODE_SERIAL, MODE_THREAD]
        + ([MODE_FORK] if HAVE_FORK else []),
    )
    def test_task_exception_is_captured_not_raised(self, mode):
        pool = SupervisedPool(max_workers=1, mode=mode)

        def boom():
            raise RuntimeError("shard is cursed")

        good, bad = pool.run(
            [TaskSpec("good", lambda: 7), TaskSpec("bad", boom)]
        )
        assert good.ok and good.value == 7
        assert bad.status == STATUS_ERROR
        assert "shard is cursed" in bad.error

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method required")
    def test_watchdog_kills_hung_fork_worker(self):
        pool = SupervisedPool(max_workers=2, mode=MODE_FORK)
        started = time.monotonic()
        hung, fine = pool.run(
            [
                TaskSpec("hung", lambda: time.sleep(120), deadline=0.5),
                TaskSpec("fine", lambda: "done", deadline=30.0),
            ]
        )
        elapsed = time.monotonic() - started
        assert hung.status == STATUS_DEADLINE
        assert "killed" in hung.error
        assert fine.ok and fine.value == "done"
        assert elapsed < 30, "watchdog did not fire anywhere near the deadline"

    def test_watchdog_abandons_hung_thread_worker(self):
        pool = SupervisedPool(max_workers=1, mode=MODE_THREAD)
        (outcome,) = pool.run(
            [TaskSpec("hung", lambda: time.sleep(120), deadline=0.2)]
        )
        assert outcome.status == STATUS_DEADLINE
        assert "abandoned" in outcome.error

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method required")
    def test_crashed_worker_reported_with_exit_code(self):
        import os

        pool = SupervisedPool(max_workers=1, mode=MODE_FORK)
        (outcome,) = pool.run([TaskSpec("dies", lambda: os._exit(13))])
        assert outcome.status == "crashed"
        assert "13" in outcome.error

    @pytest.mark.skipif(not HAVE_FORK, reason="fork start method required")
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

    def test_serial_mode_runs_inline(self):
        pool = SupervisedPool(max_workers=1, mode=MODE_SERIAL)
        marker = []
        pool.run([TaskSpec("inline", lambda: marker.append(1))])
        # Inline execution mutates the caller's state directly — the
        # property the fork workers deliberately do NOT have.
        assert marker == [1]


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

    def test_report_is_deterministic_and_renders(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "honeypot", failure_threshold=1, cooldown=1.0, clock=clock
        )
        breaker.record_failure("poison shard")
        clock.advance(1.0)
        breaker.allow()
        breaker.record_success()
        report = breaker.report()
        assert [t.to_state for t in report.transitions] == [
            BREAKER_OPEN, BREAKER_HALF_OPEN, BREAKER_CLOSED,
        ]
        text = report.describe()
        assert "honeypot" in text
        assert "closed -> open -> half-open -> closed" in text


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
