"""A worker pool that assumes its workers will misbehave.

``SupervisedPool`` runs tasks under a watchdog instead of trusting them:

* every task carries a **deadline**; a worker still running past it is
  killed (fork mode) or abandoned (thread mode) and the task reported as
  ``deadline`` instead of blocking the run forever;
* fork workers send a **heartbeat** the moment they start; a worker that
  never heartbeats within ``start_timeout`` is hung at spawn and killed;
* a worker that dies without delivering a result (``os._exit``, signal,
  OOM kill) is reported as ``crashed``, with its exit code;
* an exception inside the task is reported as ``error`` with the message
  — never re-raised across the process boundary.

Fork mode is the default where available (Linux/macOS ``fork``): the
child inherits the parent's memory, so closures over large pipeline
objects cost nothing to dispatch, and only the (small) result is pickled
back through a pipe. Thread mode is the portable fallback; hung threads
cannot be killed, only abandoned, which the outcome records honestly.
Serial mode runs tasks inline with no preemption.

The pipeline runner uses one single-worker pool, and only when a task
deadline is armed: each victim partition's telescope or honeypot
detection, and the DNS measurement, becomes one watched task, so a hung
task is killed at its deadline and its stage retried. A semaphore caps in-flight workers across concurrent
:meth:`SupervisedPool.run` callers.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.log import get_logger
from repro.obs.metrics import get_registry

MODE_AUTO = "auto"
MODE_FORK = "fork"
MODE_THREAD = "thread"
MODE_SERIAL = "serial"
ALL_MODES = (MODE_AUTO, MODE_FORK, MODE_THREAD, MODE_SERIAL)

STATUS_OK = "ok"
STATUS_ERROR = "error"  # task raised; message captured
STATUS_DEADLINE = "deadline"  # hung past its deadline; killed/abandoned
STATUS_CRASHED = "crashed"  # worker died without delivering a result


def resolve_mode(mode: str) -> str:
    """Resolve ``auto`` to the best supported mode on this platform."""
    if mode not in ALL_MODES:
        raise ValueError(f"unknown pool mode: {mode!r} (modes: {ALL_MODES})")
    if mode != MODE_AUTO:
        return mode
    if "fork" in multiprocessing.get_all_start_methods():
        return MODE_FORK
    return MODE_THREAD


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

    def __init__(self, spec: TaskSpec) -> None:
        ctx = multiprocessing.get_context("fork")
        self.spec = spec
        self.recv_conn, send_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_fork_entry, args=(send_conn, spec.fn), daemon=True
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

    def expired(self, start_timeout: float) -> Optional[str]:
        """Why the watchdog should kill this worker now, if it should."""
        elapsed = time.monotonic() - self.started_at
        if self.spec.deadline is not None and elapsed > self.spec.deadline:
            return f"deadline ({self.spec.deadline:.1f}s) exceeded"
        if not self.heartbeat_seen and elapsed > start_timeout:
            return f"no heartbeat within {start_timeout:.1f}s of spawn"
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


@dataclass
class _ThreadWorker:
    """One daemon thread computing one task (abandonable, not killable)."""

    spec: TaskSpec
    started_at: float = field(default_factory=time.monotonic)
    result: Dict[str, Any] = field(default_factory=dict)
    thread: Optional[threading.Thread] = None

    def start(self) -> "_ThreadWorker":
        def _run() -> None:
            try:
                self.result["outcome"] = (STATUS_OK, self.spec.fn(), None)
            except BaseException as exc:  # noqa: BLE001
                self.result["outcome"] = (
                    STATUS_ERROR, None, f"{type(exc).__name__}: {exc}"
                )

        self.thread = threading.Thread(
            target=_run, name=f"repro-exec-{self.spec.name}", daemon=True
        )
        self.thread.start()
        return self

    def poll(self) -> Optional[TaskOutcome]:
        if "outcome" in self.result:
            status, value, error = self.result["outcome"]
            return TaskOutcome(
                self.spec.name, status, value=value, error=error,
                elapsed=time.monotonic() - self.started_at,
            )
        return None

    def expired(self, start_timeout: float) -> Optional[str]:
        elapsed = time.monotonic() - self.started_at
        if self.spec.deadline is not None and elapsed > self.spec.deadline:
            return f"deadline ({self.spec.deadline:.1f}s) exceeded"
        return None

    def kill(self, reason: str) -> TaskOutcome:
        # Threads cannot be killed; the daemon thread is abandoned and its
        # eventual result (if any) discarded. The outcome says so.
        return TaskOutcome(
            self.spec.name,
            STATUS_DEADLINE,
            error=f"abandoned (threads cannot be killed): {reason}",
            elapsed=time.monotonic() - self.started_at,
        )


class SupervisedPool:
    """Deadline-enforcing worker pool."""

    def __init__(
        self,
        max_workers: int = 1,
        mode: str = MODE_AUTO,
        poll_interval: float = 0.01,
        start_timeout: float = 30.0,
        metrics: Optional[Any] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("need at least one worker")
        self.max_workers = max_workers
        self.mode = resolve_mode(mode)
        self.poll_interval = poll_interval
        self.start_timeout = start_timeout
        # Caps in-flight workers across concurrent run() callers.
        self._slots = threading.Semaphore(max_workers)
        # Serializing spawns keeps a forked child's inherited state
        # coherent when several threads share the pool.
        self._spawn_lock = threading.Lock()
        self._log = get_logger("exec")
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
            "workers killed/abandoned by the watchdog",
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

    def run(self, tasks: Sequence[TaskSpec]) -> List[TaskOutcome]:
        """Run tasks under supervision; outcomes in task order."""
        self._m_queued.inc(len(tasks))
        if self.mode == MODE_SERIAL:
            return [self._run_inline(spec) for spec in tasks]
        outcomes: Dict[int, TaskOutcome] = {}
        pending = list(enumerate(tasks))
        active: Dict[int, Any] = {}
        try:
            while pending or active:
                while pending and self._slots.acquire(blocking=not active):
                    index, spec = pending.pop(0)
                    active[index] = self._spawn(spec)
                    self._m_started.inc()
                    self._m_inflight.inc()
                finished = []
                for index, worker in active.items():
                    outcome = worker.poll()
                    if (
                        getattr(worker, "heartbeat_seen", False)
                        and not getattr(worker, "_hb_counted", False)
                    ):
                        worker._hb_counted = True
                        self._m_heartbeats.inc()
                    if outcome is None:
                        reason = worker.expired(self.start_timeout)
                        if reason is not None:
                            outcome = worker.kill(reason)
                            self._m_killed.inc()
                            self._log.warning(
                                "hung worker killed",
                                task=worker.spec.name,
                                reason=reason,
                            )
                    if outcome is not None:
                        finished.append(index)
                        outcomes[index] = outcome
                        self._slots.release()
                        self._m_inflight.dec()
                        self._record_outcome(outcome)
                        if not outcome.ok:
                            self._log.warning(
                                "task failed",
                                task=outcome.name,
                                status=outcome.status,
                                error=outcome.error,
                            )
                for index in finished:
                    del active[index]
                if active and not finished:
                    time.sleep(self.poll_interval)
        finally:
            for worker in active.values():  # unwind on error paths only
                worker.kill("pool shutting down")
                self._slots.release()
                self._m_inflight.dec()
                self._m_killed.inc()
        return [outcomes[index] for index in range(len(tasks))]

    def _record_outcome(self, outcome: TaskOutcome) -> None:
        self._m_outcomes.inc(status=outcome.status)
        self._m_task_seconds.observe(outcome.elapsed, status=outcome.status)

    def _spawn(self, spec: TaskSpec):
        with self._spawn_lock:
            if self.mode == MODE_FORK:
                return _ForkWorker(spec)
            return _ThreadWorker(spec).start()

    def _run_inline(self, spec: TaskSpec) -> TaskOutcome:
        start = time.monotonic()
        self._m_started.inc()
        try:
            value = spec.fn()
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # noqa: BLE001
            outcome = TaskOutcome(
                spec.name,
                STATUS_ERROR,
                error=f"{type(exc).__name__}: {exc}",
                elapsed=time.monotonic() - start,
            )
            self._record_outcome(outcome)
            return outcome
        outcome = TaskOutcome(
            spec.name, STATUS_OK, value=value,
            elapsed=time.monotonic() - start,
        )
        self._record_outcome(outcome)
        return outcome


__all__ = [
    "ALL_MODES",
    "MODE_AUTO",
    "MODE_FORK",
    "MODE_SERIAL",
    "MODE_THREAD",
    "STATUS_CRASHED",
    "STATUS_DEADLINE",
    "STATUS_ERROR",
    "STATUS_OK",
    "SupervisedPool",
    "TaskOutcome",
    "TaskSpec",
    "resolve_mode",
]
