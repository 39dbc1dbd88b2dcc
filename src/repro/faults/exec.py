"""Execution-layer fault injectors: hung, slow, crashed, poisoned workers.

The injectors in :mod:`repro.faults.injectors` degrade the *data* a feed
produces; these degrade the *execution* of the stage itself — the
failure modes the supervised executor (:mod:`repro.exec`) exists to
contain:

* ``hung``   — the worker stops making progress (sleeps effectively
  forever); only a deadline watchdog gets the run unstuck;
* ``slow``   — the worker takes ``delay`` extra seconds, long enough to
  trip a tight deadline but not a generous one;
* ``crash``  — the worker process dies without delivering a result
  (``os._exit`` in a forked child; a :class:`WorkerCrashError` where
  there is no separate process to kill);
* ``poison`` — the stage's input is deterministically unprocessable and
  raises :class:`PoisonShardError` on *every* attempt, the canonical
  persistent failure that must degrade its stage once retries run out.

An :class:`ExecFaultPlan` pins each fault to a (stage, attempt)
coordinate so drills are exactly reproducible: "the honeypot stage
hangs on its first attempt" is a plan, not a probability.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.catalog import STAGE_ORDER

KIND_HUNG = "hung"
KIND_SLOW = "slow"
KIND_CRASH = "crash"
KIND_POISON = "poison"
ALL_KINDS = (KIND_HUNG, KIND_SLOW, KIND_CRASH, KIND_POISON)

#: "Forever" for a hung worker — far past any sane deadline, finite so a
#: drill without a watchdog still terminates eventually.
HUNG_SLEEP = 3600.0


class PoisonShardError(RuntimeError):
    """A stage whose input can never be processed, on any attempt."""


class WorkerCrashError(RuntimeError):
    """Stand-in for a worker death where no real process can be killed."""


@dataclass(frozen=True)
class ExecFault:
    """One execution fault pinned to a (stage, attempt) coordinate."""

    kind: str
    stage: str
    #: The fault fires on attempts 1..attempts; the default 1 makes it
    #: transient (a retry succeeds). Poison ignores this and fires on
    #: every attempt — that is what poison *means*.
    attempts: int = 1
    #: Extra seconds for ``slow`` faults.
    delay: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(
                f"unknown exec fault kind: {self.kind!r} (kinds: {ALL_KINDS})"
            )
        if self.attempts < 1:
            raise ValueError("fault must fire on at least one attempt")
        if self.delay <= 0:
            raise ValueError("slow-fault delay must be positive")

    def matches(self, stage: str, attempt: int) -> bool:
        if stage != self.stage:
            return False
        return self.kind == KIND_POISON or attempt <= self.attempts

    def describe(self) -> str:
        when = (
            "every attempt"
            if self.kind == KIND_POISON
            else f"attempt(s) 1..{self.attempts}"
        )
        extra = f", +{self.delay:.1f}s" if self.kind == KIND_SLOW else ""
        return f"{self.kind} @ {self.stage} on {when}{extra}"


@dataclass(frozen=True)
class ExecFaultPlan:
    """A reproducible set of execution faults for one run."""

    faults: Tuple[ExecFault, ...] = ()

    @classmethod
    def none(cls) -> "ExecFaultPlan":
        return cls()

    @classmethod
    def single(cls, kind: str, stage: str, **kwargs) -> "ExecFaultPlan":
        return cls((ExecFault(kind=kind, stage=stage, **kwargs),))

    @classmethod
    def parse(cls, specs: Tuple[str, ...]) -> "ExecFaultPlan":
        """Parse CLI specs of the form ``kind:stage[:attempts]``.

        The stage must be one the runner executes; a misspelt one would
        otherwise arm nothing and the drill would pass fault-free.
        """
        faults = []
        for spec in specs:
            parts = spec.split(":")
            if not 2 <= len(parts) <= 3:
                raise ValueError(
                    f"bad exec-fault spec {spec!r}; expected "
                    f"kind:stage[:attempts] (a stage has no shard field)"
                )
            kind, stage = parts[0], parts[1]
            if stage not in STAGE_ORDER:
                raise ValueError(
                    f"bad exec-fault spec {spec!r}: unknown stage "
                    f"{stage!r} (stages: {', '.join(STAGE_ORDER)})"
                )
            try:
                attempts = int(parts[2]) if len(parts) > 2 else 1
            except ValueError:
                raise ValueError(
                    f"bad exec-fault spec {spec!r}: attempts must be an "
                    f"integer, got {parts[2]!r}"
                ) from None
            try:
                faults.append(
                    ExecFault(kind=kind, stage=stage, attempts=attempts)
                )
            except ValueError as exc:
                raise ValueError(
                    f"bad exec-fault spec {spec!r}: {exc}"
                ) from None
        return cls(tuple(faults))

    def lookup(self, stage: str, attempt: int) -> Optional[ExecFault]:
        for fault in self.faults:
            if fault.matches(stage, attempt):
                return fault
        return None

    def describe(self) -> str:
        if not self.faults:
            return "no execution faults"
        return "; ".join(fault.describe() for fault in self.faults)


def apply_exec_fault(fault: Optional[ExecFault], worker: bool = False) -> None:
    """Enact a fault inside the worker; call at the top of a stage task.

    ``crash`` kills the current process outright when it runs as a
    *worker*, a watched task's fork child (the supervisor sees a dead
    child and reports ``crashed``); anywhere else (a stage attempt, in
    the runner's process or in a stage's fork child) it raises
    :class:`WorkerCrashError` instead, because ``os._exit`` would take
    the whole stage down with it.
    """
    if fault is None:
        return
    if fault.kind == KIND_HUNG:
        time.sleep(HUNG_SLEEP)
    elif fault.kind == KIND_SLOW:
        time.sleep(fault.delay)
    elif fault.kind == KIND_CRASH:
        if worker:
            os._exit(13)
        raise WorkerCrashError(
            f"injected worker crash in {fault.stage}"
        )
    elif fault.kind == KIND_POISON:
        raise PoisonShardError(
            f"poison: {fault.stage} input is unprocessable"
        )


__all__ = [
    "ALL_KINDS",
    "ExecFault",
    "ExecFaultPlan",
    "HUNG_SLEEP",
    "KIND_CRASH",
    "KIND_HUNG",
    "KIND_POISON",
    "KIND_SLOW",
    "PoisonShardError",
    "WorkerCrashError",
    "apply_exec_fault",
]
