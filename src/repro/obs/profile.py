"""Stage profiling: wall time, CPU time, peak RSS and throughput.

Tracing says *when* a stage ran; profiling says *what it cost*. A
:class:`StageProfiler` wraps each pipeline stage (and the synthesize and
detect layers inside the observation stages) and records:

* **wall time** — from the injectable wall clock;
* **CPU time** — CPU seconds this process consumed while the stage ran
  (a supervised worker's own CPU is not included);
* **peak RSS** — the high-water resident set, via ``getrusage`` (kilobytes
  on Linux), as the stage starts and ends; monotone per process, so the
  end value is "peak so far", which is exactly what a memory budget
  cares about, and a stage raised the peak exactly when its end value
  is above its start value;
* **current RSS before and after** — the resident set read from
  ``/proc/self/statm`` as the stage starts and ends, so a stage's own
  footprint shows even after an earlier stage set the peak;
* **events/sec** — the stage's output record count over its wall time,
  the steering number for the ROADMAP's performance work;
* **rows/sec** — for layers that consume a capture (synthesis output,
  detection input), the capture's row count over the wall time.

A layer that runs many times inside one stage (synthesize and detect run
once per victim partition) is profiled with ``accumulate=True``: its
readings fold into one entry per enclosing stage profile, with wall,
CPU, rows and events summed, ``rss_before_kb`` and
``peak_rss_before_kb`` from the first reading and ``rss_after_kb`` and
the peak from the last.

All probes are injectable, so deterministic tests substitute fake
clocks and constant RSS functions and get byte-identical ``profile.json``
artifacts. The disabled default is :class:`NullProfiler`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes (0: unknown)."""
    if resource is None:
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    import sys
    if sys.platform == "darwin":  # pragma: no cover
        return int(usage / 1024)
    return int(usage)


_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024 if hasattr(os, "sysconf") else 4


def current_rss_kb() -> int:
    """Resident set size of this process now, in kilobytes (0: unknown)."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0
    return pages * _PAGE_KB


@dataclass
class StageProfile:
    """Measured cost of one stage (or one layer of one stage)."""

    stage: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_kb: int = 0
    peak_rss_before_kb: int = 0
    rss_before_kb: int = 0
    rss_after_kb: int = 0
    events: int = 0
    rows: int = 0

    @property
    def events_per_s(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def rows_per_s(self) -> float:
        return self.rows / self.wall_s if self.wall_s > 0 else 0.0

    def add(self, reading: "StageProfile") -> None:
        """Fold a later *reading* of the same layer into this one."""
        self.wall_s += reading.wall_s
        self.cpu_s += reading.cpu_s
        self.events += reading.events
        self.rows += reading.rows
        self.peak_rss_kb = reading.peak_rss_kb
        self.rss_after_kb = reading.rss_after_kb

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "peak_rss_kb": self.peak_rss_kb,
            "peak_rss_before_kb": self.peak_rss_before_kb,
            "rss_before_kb": self.rss_before_kb,
            "rss_after_kb": self.rss_after_kb,
            "events": self.events,
            "events_per_s": round(self.events_per_s, 3),
            "rows": self.rows,
            "rows_per_s": round(self.rows_per_s, 3),
        }


class _ProfileHandle:
    """Given to the profiled body so it can report its record count."""

    def __init__(self, profile: StageProfile) -> None:
        self._profile = profile

    def set_events(self, count: int) -> None:
        self._profile.events = int(count)

    def set_rows(self, count: int) -> None:
        self._profile.rows = int(count)


class StageProfiler:
    """Collects :class:`StageProfile` records for a run."""

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
        rss_fn: Callable[[], int] = peak_rss_kb,
        current_rss_fn: Optional[Callable[[], int]] = None,
    ) -> None:
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._rss_fn = rss_fn
        # One injected fake RSS probe serves both readings unless a
        # separate current-RSS probe is given.
        if current_rss_fn is None:
            current_rss_fn = current_rss_kb if rss_fn is peak_rss_kb else rss_fn
        self._current_rss_fn = current_rss_fn
        self._lock = threading.Lock()
        self.profiles: List[StageProfile] = []
        # Accumulated entries by name, one scope per open profile.
        self._scopes: List[Dict[str, StageProfile]] = [{}]

    @contextmanager
    def profile(
        self, stage: str, accumulate: bool = False
    ) -> Iterator[_ProfileHandle]:
        """Measure the body as one *stage* entry; with *accumulate*, fold
        it into the entry of the same name already recorded inside the
        enclosing profile, if any."""
        record = StageProfile(stage=stage)
        handle = _ProfileHandle(record)
        record.peak_rss_before_kb = self._rss_fn()
        record.rss_before_kb = self._current_rss_fn()
        wall0 = self._clock()
        cpu0 = self._cpu_clock()
        if not accumulate:
            self._scopes.append({})
        try:
            yield handle
        finally:
            record.wall_s = self._clock() - wall0
            record.cpu_s = self._cpu_clock() - cpu0
            record.peak_rss_kb = self._rss_fn()
            record.rss_after_kb = self._current_rss_fn()
            with self._lock:
                if not accumulate:
                    self._scopes.pop()
                    self.profiles.append(record)
                elif stage in self._scopes[-1]:
                    self._scopes[-1][stage].add(record)
                else:
                    self._scopes[-1][stage] = record
                    self.profiles.append(record)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            profiles = [p.to_dict() for p in self.profiles]
        return {"profiles": profiles}

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"


class NullProfiler:
    """Disabled profiling: no-op context manager, empty snapshot."""

    enabled = False
    profiles: tuple = ()

    @contextmanager
    def profile(
        self, stage: str, accumulate: bool = False
    ) -> Iterator[_ProfileHandle]:
        yield _NULL_HANDLE

    def snapshot(self) -> Dict[str, Any]:
        return {"profiles": []}

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"


class _NullHandle:
    def set_events(self, count: int) -> None:
        pass

    def set_rows(self, count: int) -> None:
        pass


_NULL_HANDLE = _NullHandle()

NULL_PROFILER = NullProfiler()


__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "StageProfile",
    "StageProfiler",
    "current_rss_kb",
    "peak_rss_kb",
]
