"""A fork watchdog that assumes its task will misbehave.

``SupervisedPool`` runs each task in a forked child under a watchdog
instead of trusting it:

* every task may carry a **deadline**; a child still running past it is
  killed and the task reported as ``deadline`` instead of blocking the
  run forever;
* the child sends a **heartbeat** the moment it starts; one that never
  heartbeats within :data:`START_TIMEOUT` is hung at spawn and killed;
* a child that dies without delivering a result (``os._exit``, signal,
  OOM kill) is reported as ``crashed``, with its exit code;
* an exception inside the task is reported as ``error`` with the message
  — never re-raised across the process boundary.

:meth:`SupervisedPool.start` forks a task and returns its handle at
once; :meth:`SupervisedPool.wait` blocks on the child's pipe and exit
sentinel (no polling) until it delivers, dies or passes a deadline, and
:meth:`SupervisedPool.cancel` kills and reaps a task nobody will wait
for. :meth:`SupervisedPool.run` is the two in a row.

The child inherits the parent's memory, so closures over large pipeline
objects cost nothing to dispatch, and only the (small) result is pickled
back through a pipe.

The pipeline runner's stage children are its tasks: with more than one
CPU it starts the telescope and honeypot stages and waits for them at
fusion, while it runs migration and measurement itself. With a task
deadline armed, every observation stage (telescope, honeypot,
measurement) is one watched task, so a stage that hangs is killed at
its deadline and its remaining attempts run in a fresh task.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing.connection import wait as wait_ready
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.log import get_logger
from repro.obs.metrics import get_registry

STATUS_OK = "ok"
STATUS_ERROR = "error"  # task raised; message captured
STATUS_DEADLINE = "deadline"  # hung past its deadline; killed
STATUS_CRASHED = "crashed"  # worker died without delivering a result

#: Seconds a child may take to send its first heartbeat.
START_TIMEOUT = 30.0


@dataclass(frozen=True)
class TaskSpec:
    """One unit of supervised work."""

    name: str
    fn: Callable[[], Any]
    deadline: Optional[float] = None


@dataclass
class TaskOutcome:
    """What became of one task."""

    name: str
    status: str
    value: Any = None
    error: Optional[str] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class _ForkWorker:
    """One forked child computing one task, reporting through a pipe."""

    def __init__(
        self, spec: TaskSpec, clock: Callable[[], float] = time.monotonic
    ) -> None:
        ctx = multiprocessing.get_context("fork")
        self.spec = spec
        #: The start on the pool's metrics clock (see SupervisedPool).
        self.clock_started = clock()
        self.recv_conn, send_conn = ctx.Pipe(duplex=False)
        # Not a daemon: every worker is reaped by wait() or cancel().
        self.process = ctx.Process(
            target=_fork_entry, args=(send_conn, spec.fn)
        )
        self.started_at = time.monotonic()
        self.heartbeat_seen = False
        self.process.start()
        # The parent's copy of the child's send handle must close so that
        # a dead child reads as EOF instead of a silently open pipe.
        send_conn.close()

    def poll(self) -> Optional[TaskOutcome]:
        """Non-blocking check; an outcome means the task is finished."""
        # Liveness is read before the pipe is drained: a child that sends
        # its result and exits between the two reads must not be taken
        # for one that died without delivering.
        alive = self.process.is_alive()
        while self.recv_conn.poll(0):
            try:
                kind, payload = self.recv_conn.recv()
            except (EOFError, OSError):
                break  # child died mid-send; fall through to liveness check
            except Exception as exc:  # noqa: BLE001 - result won't unpickle
                return self._finish(
                    STATUS_ERROR,
                    error=f"result could not be read: "
                          f"{type(exc).__name__}: {exc}",
                )
            if kind == "heartbeat":
                self.heartbeat_seen = True
                continue
            status = STATUS_OK if kind == "ok" else STATUS_ERROR
            return self._finish(status, value=payload if kind == "ok" else None,
                                error=None if kind == "ok" else payload)
        if not alive:
            return self._finish(
                STATUS_CRASHED,
                error=f"worker exited with code {self.process.exitcode} "
                      f"before delivering a result",
            )
        return None

    def timeout(self) -> Optional[float]:
        """Seconds until :meth:`expired` could next say yes (None: never)."""
        elapsed = time.monotonic() - self.started_at
        limits = []
        if self.spec.deadline is not None:
            limits.append(self.spec.deadline - elapsed)
        if not self.heartbeat_seen:
            limits.append(START_TIMEOUT - elapsed)
        return max(0.0, min(limits)) if limits else None

    def expired(self) -> Optional[str]:
        """Why the watchdog should kill this worker now, if it should."""
        elapsed = time.monotonic() - self.started_at
        if self.spec.deadline is not None and elapsed > self.spec.deadline:
            return f"deadline ({self.spec.deadline:.1f}s) exceeded"
        if not self.heartbeat_seen and elapsed > START_TIMEOUT:
            return f"no heartbeat within {START_TIMEOUT:.1f}s of spawn"
        return None

    def kill(self, reason: str) -> TaskOutcome:
        self.process.kill()
        self.process.join(timeout=5.0)
        return self._finish(STATUS_DEADLINE, error=f"killed: {reason}")

    def _finish(self, status: str, value: Any = None,
                error: Optional[str] = None) -> TaskOutcome:
        elapsed = time.monotonic() - self.started_at
        self.recv_conn.close()
        if self.process.is_alive():
            # Result delivered but the child lingers; don't leak it.
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5.0)
        return TaskOutcome(
            self.spec.name, status, value=value, error=error, elapsed=elapsed
        )


def _fork_entry(conn, fn) -> None:
    """Child side: heartbeat, compute, report, exit."""
    try:
        conn.send(("heartbeat", None))
        result = fn()
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - boundary must not leak
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
        os._exit(0)


class SupervisedPool:
    """Deadline-enforcing fork watchdog over any number of started tasks."""

    def __init__(
        self,
        metrics: Optional[Any] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._log = get_logger("exec")
        # Times exec_task_seconds only: a telemetry's injected clock
        # keeps metrics.json reproducible, while the watchdog's
        # deadlines always run on the monotonic clock.
        self._clock = clock
        registry = metrics if metrics is not None else get_registry()
        self._m_queued = registry.counter(
            "exec_tasks_queued_total", "tasks submitted to the pool"
        )
        self._m_started = registry.counter(
            "exec_tasks_started_total", "tasks that began executing"
        )
        self._m_outcomes = registry.counter(
            "exec_task_outcomes_total",
            "finished tasks by status",
            ("status",),
        )
        self._m_killed = registry.counter(
            "exec_workers_killed_total",
            "workers killed by the watchdog",
        )
        self._m_heartbeats = registry.counter(
            "exec_worker_heartbeats_total",
            "first heartbeats received from forked workers",
        )
        self._m_inflight = registry.gauge(
            "exec_inflight_workers", "workers currently running"
        )
        self._m_task_seconds = registry.histogram(
            "exec_task_seconds", "task wall time by status", ("status",)
        )

    def start(self, spec: TaskSpec) -> _ForkWorker:
        """Fork one task and return its handle without waiting for it."""
        self._m_queued.inc()
        worker = _ForkWorker(spec, self._clock)
        self._m_started.inc()
        self._m_inflight.inc()
        return worker

    def wait(self, worker: _ForkWorker) -> TaskOutcome:
        """Block until a started task delivers, dies or passes a deadline;
        never raises its error."""
        outcome: Optional[TaskOutcome] = None
        heartbeat_counted = False
        try:
            while outcome is None:
                # Wakes on a message (heartbeat or result), on the child's
                # exit, or when the nearer deadline falls due.
                wait_ready(
                    [worker.recv_conn, worker.process.sentinel],
                    worker.timeout(),
                )
                outcome = worker.poll()
                if worker.heartbeat_seen and not heartbeat_counted:
                    heartbeat_counted = True
                    self._m_heartbeats.inc()
                if outcome is None:
                    reason = worker.expired()
                    if reason is not None:
                        outcome = self._kill(worker, reason)
        finally:
            if outcome is None:  # unwinding on an error path
                outcome = self._kill(worker, "pool shutting down")
            self._done(outcome, self._clock() - worker.clock_started)
        return outcome

    def cancel(self, worker: _ForkWorker, reason: str) -> None:
        """Kill and reap a started task whose outcome nobody will read.

        Not a watchdog kill and not an outcome: the caller abandoned it.
        """
        worker.kill(reason)
        self._m_inflight.dec()
        self._log.info("task cancelled", task=worker.spec.name, reason=reason)

    def run(self, spec: TaskSpec) -> TaskOutcome:
        """Run one task in a watched fork child; never raises its error."""
        return self.wait(self.start(spec))

    def _done(self, outcome: TaskOutcome, seconds: float) -> None:
        self._m_inflight.dec()
        self._m_outcomes.inc(status=outcome.status)
        self._m_task_seconds.observe(seconds, status=outcome.status)
        if not outcome.ok:
            self._log.warning(
                "task failed",
                task=outcome.name,
                status=outcome.status,
                error=outcome.error,
            )

    def _kill(self, worker: _ForkWorker, reason: str) -> TaskOutcome:
        self._m_killed.inc()
        self._log.warning(
            "hung worker killed", task=worker.spec.name, reason=reason
        )
        return worker.kill(reason)


__all__ = [
    "START_TIMEOUT",
    "STATUS_CRASHED",
    "STATUS_DEADLINE",
    "STATUS_ERROR",
    "STATUS_OK",
    "SupervisedPool",
    "TaskOutcome",
    "TaskSpec",
]
