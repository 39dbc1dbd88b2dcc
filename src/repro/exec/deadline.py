"""Whole-run deadline: abort cleanly instead of running forever.

``RunDeadline`` is checked at stage and attempt boundaries by the
pipeline runner, and bounds each supervised task's watchdog deadline. When it expires the runner raises :class:`RunDeadlineExceeded`,
which the CLI turns into a *clean* abort: checkpoints already persisted
stay on disk, the run directory stays resumable, and the process exits
with a dedicated code (124, after the ``timeout(1)`` convention) that is
distinct from a crash.

The clock is injectable so tests can drive expiry without sleeping.
"""

from __future__ import annotations

import time
from typing import Callable, Optional


class RunDeadlineExceeded(RuntimeError):
    """The run-level deadline passed; the run aborted at a safe boundary."""

    def __init__(self, message: str, completed_stage: Optional[str] = None):
        super().__init__(message)
        self.completed_stage = completed_stage


class RunDeadline:
    """A monotonic countdown for one pipeline run."""

    def __init__(
        self,
        seconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds is not None and seconds <= 0:
            raise ValueError("deadline must be positive")
        self.seconds = seconds
        self._clock = clock
        self._started_at = clock()

    @property
    def active(self) -> bool:
        return self.seconds is not None

    def elapsed(self) -> float:
        return self._clock() - self._started_at

    def remaining(self) -> Optional[float]:
        """Seconds left, or ``None`` when no deadline is set."""
        if self.seconds is None:
            return None
        return self.seconds - self.elapsed()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def check(self, where: str) -> None:
        """Raise :class:`RunDeadlineExceeded` if the deadline has passed.

        ``where`` names the boundary being crossed (e.g. the stage about
        to start) so the abort message says how far the run got.
        """
        if self.expired():
            raise RunDeadlineExceeded(
                f"run deadline of {self.seconds:.1f}s exceeded "
                f"after {self.elapsed():.1f}s (at {where}); "
                f"run directory is resumable"
            )


__all__ = ["RunDeadline", "RunDeadlineExceeded"]
