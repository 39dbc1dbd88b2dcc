"""Unified telemetry: metrics, span tracing and stage profiling.

One :class:`Telemetry` object bundles the three observers every layer of
the pipeline reports into:

* :class:`~repro.obs.metrics.MetricsRegistry` — labeled counters, gauges
  and histograms (retries, breaker trips, worker kills, quarantine
  drops, checkpoint bytes, queue depth);
* :class:`~repro.obs.trace.SpanTracer` — parent/child spans for stages,
  attempts, layers and supervised tasks;
* :class:`~repro.obs.profile.StageProfiler` — wall/CPU/RSS/throughput
  per stage and layer.

Telemetry is **disabled by default**: :meth:`Telemetry.disabled` bundles
the shared null observers, so instrumented hot paths cost a no-op method
call. The CLI's ``--metrics`` flag (or a test) enables it with
:meth:`Telemetry.create`, optionally with injected clocks for
byte-deterministic artifacts, and installs it process-wide with
:func:`set_telemetry` so layers constructed without an explicit handle
(the checkpoint store's fsync accounting, the streaming queue) report
into the same registry.

A run directory gains the artifacts ``metrics.json``, ``trace.json``
(Chrome ``trace_event``), ``trace.jsonl`` and ``profile.json`` via
:meth:`Telemetry.write_artifacts`; ``python -m repro report --run-dir``
renders them as a post-run flight report.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro.obs.metrics import (
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    get_registry,
    prometheus_from_snapshot,
    set_registry,
)
from repro.obs.profile import (
    NULL_PROFILER,
    NullProfiler,
    StageProfile,
    StageProfiler,
    peak_rss_kb,
)
from repro.obs.trace import NULL_TRACER, NullTracer, SpanRecord, SpanTracer

#: Artifact names inside a run directory.
METRICS_FILE = "metrics.json"
TRACE_FILE = "trace.json"
TRACE_JSONL_FILE = "trace.jsonl"
PROFILE_FILE = "profile.json"


class Telemetry:
    """The bundle of observers one run reports into."""

    def __init__(
        self,
        metrics: Any,
        tracer: Any,
        profiler: Any,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.profiler = profiler
        #: The wall clock measurements share; injectable for determinism.
        self.clock = clock

    @property
    def enabled(self) -> bool:
        return bool(getattr(self.metrics, "enabled", False))

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The zero-cost default: shared null observers."""
        return _DISABLED

    @classmethod
    def create(
        cls,
        clock: Optional[Callable[[], float]] = None,
        cpu_clock: Optional[Callable[[], float]] = None,
        rss_fn: Optional[Callable[[], int]] = None,
        current_rss_fn: Optional[Callable[[], int]] = None,
    ) -> "Telemetry":
        """Live telemetry; pass a fake *clock* for deterministic artifacts.

        One *clock* drives the tracer, the profiler's wall time and the
        metrics snapshot stamp, so a single injected fake makes every
        artifact byte-deterministic for a deterministic (serial) run.
        """
        wall = clock if clock is not None else time.perf_counter
        cpu = cpu_clock if cpu_clock is not None else time.process_time
        rss = rss_fn if rss_fn is not None else peak_rss_kb
        return cls(
            metrics=MetricsRegistry(clock=wall),
            tracer=SpanTracer(clock=wall),
            profiler=StageProfiler(
                clock=wall,
                cpu_clock=cpu,
                rss_fn=rss,
                current_rss_fn=current_rss_fn,
            ),
            clock=wall,
        )

    def write_artifacts(self, run_dir: Union[str, Path]) -> Dict[str, str]:
        """Export all artifacts into *run_dir*; returns name -> path."""
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        artifacts = {
            METRICS_FILE: self.metrics.to_json(),
            TRACE_FILE: self.tracer.to_chrome_json(),
            TRACE_JSONL_FILE: self.tracer.to_jsonl(),
            PROFILE_FILE: self.profiler.to_json(),
        }
        written: Dict[str, str] = {}
        for name, text in artifacts.items():
            path = run_dir / name
            path.write_text(text, encoding="utf-8")
            written[name] = str(path)
        return written


_DISABLED = Telemetry(NULL_REGISTRY, NULL_TRACER, NULL_PROFILER)

_telemetry: Telemetry = _DISABLED


def get_telemetry() -> Telemetry:
    """The process-wide telemetry bundle (disabled unless installed)."""
    return _telemetry


def set_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """Install (``None``: reset) process-wide telemetry.

    Also installs/resets the process-wide metrics registry, so layers
    that self-instrument through :func:`repro.obs.metrics.get_registry`
    (checkpoint fsyncs, streaming queue, record quarantine) land in the
    same snapshot as the explicitly threaded pipeline metrics.
    """
    global _telemetry
    _telemetry = telemetry if telemetry is not None else _DISABLED
    set_registry(_telemetry.metrics if _telemetry.enabled else None)
    return _telemetry


__all__ = [
    "METRICS_FILE",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullProfiler",
    "NullRegistry",
    "NullTracer",
    "PROFILE_FILE",
    "SpanRecord",
    "SpanTracer",
    "StageProfile",
    "StageProfiler",
    "TRACE_FILE",
    "TRACE_JSONL_FILE",
    "Telemetry",
    "get_registry",
    "get_telemetry",
    "peak_rss_kb",
    "prometheus_from_snapshot",
    "set_registry",
    "set_telemetry",
]
