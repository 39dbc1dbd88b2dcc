"""Supervised execution: a fork watchdog, breakers and deadlines.

The pipeline runs its stages serially in one process. What this package
adds is supervision for the stages that talk to lossy collectors — the
three observation stages (telescope, honeypot, DNS measurement), which
are exactly the work that hangs or dies partway when one feed
misbehaves:

* :mod:`repro.exec.pool` — a fork watchdog that runs one task in a
  forked child with a deadline and a heartbeat, and kills it when it
  hangs. With a task deadline armed, the runner hands it each victim
  partition's detection and the DNS measurement as watched tasks;
* :mod:`repro.exec.retry` — the capped-backoff retry policy shared by
  the runner's stage retries and the serve client and follower; a stage
  that fails every attempt degrades to an empty feed;
* :mod:`repro.exec.deadline` — a whole-run deadline that aborts cleanly,
  leaving a resumable run directory;
* :mod:`repro.exec.breaker` — the per-feed circuit breakers (closed →
  open → half-open) of the live service, shared across its requests so
  a feed that keeps failing is refused until its cooldown.

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
        "CircuitBreaker",
    ),
    "repro.exec.deadline": ("RunDeadline", "RunDeadlineExceeded"),
    "repro.exec.pool": (
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
    "CircuitBreaker",
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
