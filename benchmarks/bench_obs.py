"""Telemetry overhead: what instrumentation costs, on and off.

The tentpole's contract is *zero-cost when disabled*: every counter
increment and span enter/exit in the hot path resolves to a shared
null-object no-op unless ``--metrics`` installed a live registry. This
bench quantifies both sides on the same serial pipeline:

* **disabled** — the default: instrumented code paths against the null
  registry/tracer/profiler;
* **enabled**  — a live :class:`~repro.obs.Telemetry` threaded through
  the run.

The committed ``benchmarks/out/obs_overhead.json`` records both means
and the enabled-over-disabled overhead percentage; the acceptance bar is
that the *disabled* configuration stays within 5% of the fastest run,
i.e. dormant instrumentation is free at pipeline scale.
"""

import statistics
import time

from bench_util import write_bench_json
from repro.obs import Telemetry
from repro.obs.trace import SpanTracer
from repro.pipeline.runner import ResilientPipeline
from repro.serve.service import LiveIngestService, ServeConfig
from repro.serve.wal import KIND_ATTACK

ROUNDS = 3

#: Serve-path arm: batches x batch size ingested per timed round, and
#: rounds per configuration.
SERVE_BATCHES = 40
SERVE_BATCH_SIZE = 50
SERVE_ROUNDS = 7


def _timed_runs(bench_config, telemetry):
    walls = []
    events = 0
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = ResilientPipeline(
            bench_config, telemetry=telemetry, sleep=lambda _d: None
        ).run()
        walls.append(time.perf_counter() - start)
        events = len(result.fused.combined.events)
    return walls, events


def test_telemetry_overhead(benchmark, bench_config, write_report):
    # Warm-up round so neither arm pays first-run import/cache costs.
    ResilientPipeline(bench_config, sleep=lambda _d: None).run()

    disabled_walls, events = benchmark.pedantic(
        lambda: _timed_runs(bench_config, None), rounds=1, iterations=1
    )
    enabled_walls, enabled_events = _timed_runs(
        bench_config, Telemetry.create()
    )
    assert enabled_events == events, "telemetry changed pipeline output size"

    disabled = min(disabled_walls)
    enabled = min(enabled_walls)
    fastest = min(disabled, enabled)
    disabled_overhead_pct = (disabled - fastest) / fastest * 100
    enabled_overhead_pct = (enabled - disabled) / disabled * 100

    lines = [
        "Telemetry overhead (serial pipeline, best of "
        f"{ROUNDS} rounds, {events} fused events)",
        "",
        f"{'configuration':<12} {'best_s':>8} {'mean_s':>8}",
        f"{'disabled':<12} {disabled:>8.3f} "
        f"{statistics.mean(disabled_walls):>8.3f}",
        f"{'enabled':<12} {enabled:>8.3f} "
        f"{statistics.mean(enabled_walls):>8.3f}",
        "",
        f"disabled vs fastest: {disabled_overhead_pct:+.2f}%",
        f"enabled  vs disabled: {enabled_overhead_pct:+.2f}%",
    ]
    write_report("obs_overhead", "\n".join(lines))
    write_bench_json(
        "obs_overhead",
        params={"rounds": ROUNDS, "fused_events": events},
        wall_s=disabled,
        events_per_s=events / disabled if disabled else None,
        extra={
            "disabled_wall_s": [round(w, 6) for w in disabled_walls],
            "enabled_wall_s": [round(w, 6) for w in enabled_walls],
            "disabled_overhead_pct": round(disabled_overhead_pct, 3),
            "enabled_overhead_pct": round(enabled_overhead_pct, 3),
        },
    )
    # The acceptance bar: dormant instrumentation must be free — the
    # disabled configuration stays within 5% of the fastest observed run.
    assert disabled_overhead_pct < 5.0, (
        f"disabled telemetry cost {disabled_overhead_pct:.2f}% "
        "(bar: <5%)"
    )


def _serve_event(i):
    return {
        "source": "telescope",
        "target": (10 << 24) + (i % 2048),
        "start_ts": float(i),
        "end_ts": float(i) + 30.0,
        "intensity": 100.0 + (i % 13),
    }


def _serve_ingest_round(data_dir, tracer, traced):
    """Wall and process-CPU seconds to ingest + quiesce one fixed
    workload through submit()."""
    config = ServeConfig(
        data_dir=data_dir,
        queue_size=8192,
        snapshot_every_events=100_000,
        snapshot_interval_s=100_000.0,
    )
    service = LiveIngestService(config, tracer=tracer)
    service.start()
    try:
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        for i in range(SERVE_BATCHES):
            batch = [
                _serve_event(i * SERVE_BATCH_SIZE + j)
                for j in range(SERVE_BATCH_SIZE)
            ]
            service.submit(
                "telescope", KIND_ATTACK, batch,
                trace=f"bench-{i:06d}" if traced else None,
            )
        assert service.quiesce(timeout=60.0)
        return (
            time.perf_counter() - wall_start,
            time.process_time() - cpu_start,
        )
    finally:
        service.stop()


def test_serve_flight_recorder_overhead(tmp_path, write_report):
    """The flight recorder must be free while dormant on the serve path.

    *dormant*: the default serve configuration — null tracer, untraced
    WAL appends — with all flight-recorder seams (request log, history
    ring, span hooks) compiled in. *armed*: live SpanTracer plus a trace
    ID on every batch. The gate: dormant's median process CPU per round
    stays within 5% of the faster configuration's. Each round waits on
    40 batch fsyncs, so its wall time is the disk's; CPU is what the
    seams cost. Dormant and armed rounds alternate (which one goes
    first flips every pair), so a drift in machine speed lands on both.
    """
    _serve_ingest_round(tmp_path / "warmup", None, False)
    rounds = {"dormant": [], "armed": []}
    for r in range(SERVE_ROUNDS):
        order = ("dormant", "armed") if r % 2 == 0 else ("armed", "dormant")
        for arm in order:
            traced = arm == "armed"
            rounds[arm].append(_serve_ingest_round(
                tmp_path / f"{arm}-{r}",
                SpanTracer() if traced else None,
                traced,
            ))
    dormant_walls = [wall for wall, _cpu in rounds["dormant"]]
    dormant_cpus = [cpu for _wall, cpu in rounds["dormant"]]
    armed_walls = [wall for wall, _cpu in rounds["armed"]]
    armed_cpus = [cpu for _wall, cpu in rounds["armed"]]
    dormant = statistics.median(dormant_cpus)
    armed = statistics.median(armed_cpus)
    fastest = min(dormant, armed)
    dormant_overhead_pct = (dormant - fastest) / fastest * 100
    armed_overhead_pct = (armed - dormant) / dormant * 100
    dormant_wall = statistics.median(dormant_walls)
    events = SERVE_BATCHES * SERVE_BATCH_SIZE

    lines = [
        "Serve-path flight recorder overhead (median of "
        f"{SERVE_ROUNDS} interleaved rounds each, {events} records/round)",
        "",
        f"{'configuration':<12} {'cpu_s':>8} {'wall_s':>8}",
        f"{'dormant':<12} {dormant:>8.3f} {dormant_wall:>8.3f}",
        f"{'armed':<12} {armed:>8.3f} "
        f"{statistics.median(armed_walls):>8.3f}",
        "",
        f"dormant vs fastest (cpu): {dormant_overhead_pct:+.2f}%",
        f"armed   vs dormant (cpu): {armed_overhead_pct:+.2f}%",
    ]
    write_report("serve_flight_recorder", "\n".join(lines))
    write_bench_json(
        "serve_flight_recorder",
        params={
            "rounds": SERVE_ROUNDS,
            "batches": SERVE_BATCHES,
            "batch_size": SERVE_BATCH_SIZE,
        },
        wall_s=dormant_wall,
        events_per_s=events / dormant_wall if dormant_wall else None,
        extra={
            "dormant_cpu_s": [round(c, 6) for c in dormant_cpus],
            "armed_cpu_s": [round(c, 6) for c in armed_cpus],
            "dormant_wall_s": [round(w, 6) for w in dormant_walls],
            "armed_wall_s": [round(w, 6) for w in armed_walls],
            "dormant_overhead_pct": round(dormant_overhead_pct, 3),
            "armed_overhead_pct": round(armed_overhead_pct, 3),
        },
    )
    assert dormant_overhead_pct < 5.0, (
        f"dormant flight recorder cost {dormant_overhead_pct:.2f}% "
        "CPU on the serve path (bar: <5%)"
    )
