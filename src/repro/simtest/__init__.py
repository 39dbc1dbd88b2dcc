"""Deterministic simulation testing for the serve cluster.

A FoundationDB-style harness: the whole primary/follower cluster runs as
plain in-process objects — no sockets, no threads, no subprocesses — on
three injected seams the serve layer exposes:

* :class:`~repro.simtest.clock.SimClock` replaces every ``time`` call;
* :class:`~repro.simtest.disk.SimDisk` sits under the write-ahead log
  and injects torn writes, power cuts that lose the unfsynced tail, and
  ENOSPC at chosen points;
* :class:`~repro.simtest.transport.SimTransport` implements the
  WalShipper/ServeClient exchange interface with seeded drop, duplicate,
  stale-reply, delay and partition faults.

A seeded generator produces a fault schedule (a list of plain-dict ops),
a pure executor runs it, and an oracle asserts the standing invariants
after final recovery: every acked write survives exactly once, power
cuts included, every surviving node converges to the WAL-replay digest,
and at most one node per epoch accepted writes.
Failures are written as replayable JSON traces and minimized by
:mod:`~repro.simtest.shrink` into ``tests/simtest_corpus/``.
"""

from repro.simtest.clock import SimClock
from repro.simtest.disk import MemorySnapshotStore, SimDisk
from repro.simtest.transport import SimTransport
from repro.simtest.harness import (
    TRACE_VERSION,
    default_spec,
    generate_ops,
    run_sim,
    run_trace,
    trace_to_json,
)
from repro.simtest.shrink import shrink_trace

__all__ = [
    "MemorySnapshotStore",
    "SimClock",
    "SimDisk",
    "SimTransport",
    "TRACE_VERSION",
    "default_spec",
    "generate_ops",
    "run_sim",
    "run_trace",
    "shrink_trace",
    "trace_to_json",
]
