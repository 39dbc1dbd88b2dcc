"""Per-feed circuit breakers: stop hammering a feed that keeps failing.

Retry-with-backoff is the right reflex for a transient fault and the
wrong one for a persistent outage. The live service keeps one
:class:`CircuitBreaker` per feed, shared across requests, so a feed
whose records keep failing to apply is refused outright for a while
instead of charging every request. The classic three states:

* **closed** — healthy; failures are counted;
* **open** — ``failure_threshold`` consecutive failures tripped it;
  attempts are refused outright until ``cooldown`` seconds pass, at
  which point the breaker moves to half-open;
* **half-open** — exactly one probe attempt is allowed through; success
  closes the breaker (and resets the failure count), failure re-opens it
  for another cooldown.

The clock is injectable so state transitions are unit-testable without
sleeping. Every transition is logged and counted in the ``breaker_*``
metric series the flight report renders; those series are the
breaker's history.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.log import get_logger
from repro.obs.metrics import get_registry

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: Numeric encoding of breaker states for the ``breaker_state`` gauge.
BREAKER_STATE_CODES = {
    BREAKER_CLOSED: 0,
    BREAKER_OPEN: 1,
    BREAKER_HALF_OPEN: 2,
}


class CircuitBreaker:
    """Closed → open → half-open breaker with an injectable clock."""

    def __init__(
        self,
        name: str,
        failure_threshold: int = 2,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[object] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure threshold must be at least 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.refusals = 0
        self._log = get_logger("exec.breaker")
        registry = metrics if metrics is not None else get_registry()
        self._m_state = registry.gauge(
            "breaker_state",
            "breaker state (0 closed, 1 open, 2 half-open)",
            ("breaker",),
        )
        self._m_transitions = registry.counter(
            "breaker_transitions_total",
            "breaker state changes",
            ("breaker", "to_state"),
        )
        self._m_failures = registry.counter(
            "breaker_failures_total",
            "failures recorded against the breaker",
            ("breaker",),
        )
        self._m_refusals = registry.counter(
            "breaker_refusals_total",
            "attempts refused while open/half-open",
            ("breaker",),
        )
        self._m_state.set(BREAKER_STATE_CODES[self._state], breaker=name)

    @property
    def state(self) -> str:
        return self._state

    def allow(self) -> bool:
        """Whether the caller may attempt the protected operation now.

        An open breaker whose cooldown has elapsed transitions to
        half-open and lets exactly this one probe through.
        """
        if self._state == BREAKER_CLOSED:
            return True
        if self._state == BREAKER_OPEN:
            if self._clock() - self._opened_at >= self.cooldown:
                self._transition(BREAKER_HALF_OPEN, "cooldown elapsed")
                return True
            self.refusals += 1
            self._m_refusals.inc(breaker=self.name)
            return False
        # Half-open: the single probe is in flight; further attempts wait.
        self.refusals += 1
        self._m_refusals.inc(breaker=self.name)
        return False

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self._state != BREAKER_CLOSED:
            self._transition(BREAKER_CLOSED, "probe succeeded")

    def record_failure(self, reason: str = "") -> None:
        self._consecutive_failures += 1
        self._m_failures.inc(breaker=self.name)
        if self._state == BREAKER_HALF_OPEN:
            self._reopen(f"probe failed{': ' + reason if reason else ''}")
        elif (
            self._state == BREAKER_CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._reopen(
                f"{self._consecutive_failures} consecutive failure(s)"
                + (f": {reason}" if reason else "")
            )

    def _reopen(self, reason: str) -> None:
        self._opened_at = self._clock()
        self._transition(BREAKER_OPEN, reason)

    def _transition(self, to_state: str, reason: str) -> None:
        self._m_transitions.inc(breaker=self.name, to_state=to_state)
        self._m_state.set(BREAKER_STATE_CODES[to_state], breaker=self.name)
        level = self._log.info if to_state == BREAKER_CLOSED else self._log.warning
        level(
            "circuit breaker transition",
            breaker=self.name,
            from_state=self._state,
            to_state=to_state,
            reason=reason,
        )
        self._state = to_state


__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BREAKER_STATE_CODES",
    "CircuitBreaker",
]
