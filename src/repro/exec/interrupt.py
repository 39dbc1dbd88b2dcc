"""Signal-driven clean abort: Ctrl-C without a corrupted run directory.

Python's default SIGINT behavior raises :class:`KeyboardInterrupt` at an
arbitrary bytecode boundary — possibly halfway through a stage, between
a checkpoint payload write and its manifest. The atomic-write layer
means that can never corrupt a file, but it *can* abandon work the stage
had nearly finished and it exits through an exception traceback rather
than a deliberate path.

:class:`InterruptGuard` converts the first SIGINT/SIGTERM into a flag
the pipeline polls at the same safe boundaries as the run deadline:
the in-progress stage either finalizes its checkpoint or is abandoned
whole, the run directory stays resumable, and the process exits with
the shell convention code ``128 + signum`` (130 for SIGINT, 143 for
SIGTERM) — distinct from a deadline abort (124) and a crash drill
(137). A *second* signal restores the default disposition and re-raises
immediately, so a genuinely stuck run can still be killed from the
keyboard.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Optional, Tuple

from repro.log import get_logger

log = get_logger("exec.interrupt")

#: Shell convention: a process terminated by signal N exits 128 + N.
SIGNAL_EXIT_BASE = 128


class RunInterrupted(RuntimeError):
    """The run stopped at a safe boundary because a signal arrived."""

    def __init__(self, message: str, signum: int) -> None:
        super().__init__(message)
        self.signum = signum

    def __reduce__(self):
        # Pickled home from a pipeline stage's fork child.
        return type(self), (self.args[0], self.signum)

    @property
    def exit_code(self) -> int:
        return SIGNAL_EXIT_BASE + self.signum


class InterruptGuard:
    """Deferred signal handling, checked at stage boundaries.

    Inactive until :meth:`install` registers the handlers, so library
    code can unconditionally call :meth:`check` on a default-constructed
    guard (it is a no-op). Thread-safe: signals land in the main thread,
    checks may run in stage-supervision threads.
    """

    def __init__(
        self, signals: Tuple[int, ...] = (signal.SIGINT, signal.SIGTERM)
    ) -> None:
        self.signals = signals
        self._received: Optional[int] = None
        self._previous: dict = {}
        self._installed = False
        self._lock = threading.Lock()

    def install(self) -> "InterruptGuard":
        """Register handlers (main thread only, like any signal.signal)."""
        for signum in self.signals:
            self._previous[signum] = signal.signal(signum, self._handle)
        self._installed = True
        return self

    def restore(self) -> None:
        """Put back whatever dispositions install() displaced."""
        if not self._installed:
            return
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous.clear()
        self._installed = False

    def _handle(self, signum, frame) -> None:
        with self._lock:
            first = self._received is None
            if first:
                self._received = signum
        if first:
            log.warning(
                "interrupt received; stopping at the next stage boundary "
                "(signal again to stop immediately)",
                signal=signum,
            )
            return
        # Second signal: the user insists. Restore the default disposition
        # and re-deliver so the process dies the ordinary way.
        signal.signal(signum, self._previous.get(signum, signal.SIG_DFL))
        os.kill(os.getpid(), signum)

    def trigger(self, signum: int = signal.SIGINT) -> None:
        """Set the flag without a real signal (tests)."""
        with self._lock:
            if self._received is None:
                self._received = signum

    @property
    def triggered(self) -> Optional[int]:
        with self._lock:
            return self._received

    def check(self, where: str) -> None:
        """Raise :class:`RunInterrupted` if a signal has arrived."""
        signum = self.triggered
        if signum is not None:
            raise RunInterrupted(
                f"interrupted by signal {signum} (at {where}); "
                f"run directory is resumable",
                signum=signum,
            )


__all__ = [
    "InterruptGuard",
    "RunInterrupted",
    "SIGNAL_EXIT_BASE",
]
