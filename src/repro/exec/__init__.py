"""Supervised execution: a watchdog pool, breakers and deadlines.

The pipeline runs its stages serially in one process. What this package
adds is supervision for the stages that talk to lossy collectors — the
three observation stages (telescope, honeypot, DNS measurement), which
are exactly the work that hangs or dies partway when one feed
misbehaves:

* :mod:`repro.exec.pool` — a worker pool (forked processes where the
  platform allows, threads otherwise) with per-task deadlines and a
  heartbeat watchdog that detects and kills hung workers. With a task
  deadline armed, the runner hands it each victim partition's detection
  and the DNS measurement as watched tasks;
* :mod:`repro.exec.breaker` — per-feed circuit breakers (closed → open →
  half-open) that stop retrying a persistently failing feed;
* :mod:`repro.exec.deadline` — a whole-run deadline that aborts cleanly,
  leaving a resumable run directory;
* :mod:`repro.exec.retry` — the capped-backoff retry policy shared by
  the runner's stage retries and the serve client and follower.

Everything here is policy-free about *what* runs: the stage functions
live in :mod:`repro.pipeline.simulation`.
"""

from repro._lazy import lazy_exports

# Resolved on first access: the live service takes the breaker and the
# retry policy without importing the pool (and multiprocessing).
__getattr__ = lazy_exports(__name__, {
    "repro.exec.breaker": (
        "BREAKER_CLOSED",
        "BREAKER_HALF_OPEN",
        "BREAKER_OPEN",
        "BreakerReport",
        "BreakerTransition",
        "CircuitBreaker",
    ),
    "repro.exec.deadline": ("RunDeadline", "RunDeadlineExceeded"),
    "repro.exec.pool": (
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
    ),
    "repro.exec.retry": ("RetryPolicy",),
})

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BreakerReport",
    "BreakerTransition",
    "CircuitBreaker",
    "MODE_AUTO",
    "MODE_FORK",
    "MODE_SERIAL",
    "MODE_THREAD",
    "RunDeadline",
    "RunDeadlineExceeded",
    "RetryPolicy",
    "STATUS_CRASHED",
    "STATUS_DEADLINE",
    "STATUS_ERROR",
    "STATUS_OK",
    "SupervisedPool",
    "TaskOutcome",
    "TaskSpec",
]
