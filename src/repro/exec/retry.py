"""Retry policy: how patient a caller is with transient failures.

One value object serves every retry loop in the repo: the pipeline
runner's stage retries, the serve client's request retries and the
follower's WAL fetches. Backoff is exponential and capped, optionally
with seeded decorrelated jitter, so retry timing stays reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class RetryPolicy:
    """How patient a caller is with transient failures."""

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 60.0
    #: Decorrelated jitter (off by default, so existing callers keep the
    #: exact exponential sequence): each delay is drawn uniformly from
    #: [base, 3 * previous delay], capped. Retries from many processes
    #: that failed together then *spread out* instead of re-colliding at
    #: the same exponential instants. The draw is seeded, so a given
    #: (seed, attempt) pair always yields the same delay — retry timing
    #: stays reproducible, which is what makes it testable.
    jitter: bool = False
    jitter_seed: int = 0

    #: Multiplier of the decorrelated-jitter upper bound ("sleep * 3" in
    #: the classic formulation).
    JITTER_SPREAD = 3.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if self.backoff_max < 0:
            raise ValueError("backoff cap must be non-negative")

    def delay(self, attempt: int) -> float:
        """Sleep before retry number *attempt* (1-based), capped.

        The cap also guards the exponentiation itself: at high attempt
        counts ``factor ** attempt`` overflows a float, which must read
        as "wait the maximum", not crash the retry loop it protects.
        """
        if self.backoff_base == 0.0:
            return 0.0
        if self.jitter:
            return self._jittered_delay(attempt)
        try:
            raw = self.backoff_base * self.backoff_factor ** (attempt - 1)
        except OverflowError:
            return self.backoff_max
        return min(raw, self.backoff_max)

    def _jittered_delay(self, attempt: int) -> float:
        """Decorrelated jitter, derived deterministically from the seed.

        The decorrelated sequence is stateful (each delay depends on the
        previous one), but the policy is a frozen value object — so the
        sequence is re-derived from the seed on every call rather than
        carried as mutable state. Attempt counts are small; O(attempt)
        per call is noise next to the sleep it sizes.
        """
        rng = random.Random(self.jitter_seed)
        sleep = self.backoff_base
        for _ in range(attempt):
            sleep = min(
                self.backoff_max,
                rng.uniform(self.backoff_base, sleep * self.JITTER_SPREAD),
            )
        return sleep

    def delays(self, attempts: Optional[int] = None) -> List[float]:
        """The full backoff sequence (one delay per retry), for drills."""
        count = attempts if attempts is not None else self.max_attempts - 1
        return [self.delay(attempt) for attempt in range(1, count + 1)]
