"""Parallel execution: sharded wall-clock vs. the serial pipeline.

Runs the bench scenario through the resilient runner serially and with
the supervised executor at 1/2/4/8 workers (shards = workers), recording
wall-clock per configuration and asserting the tentpole invariant along
the way: every sharded run's fused event list is identical to the serial
run's. The rendered comparison lands in ``benchmarks/out/parallel.txt``.

Honesty note baked into the report: on a single-core container the
sharded runs cannot beat serial — fork/IPC overhead dominates — so the
numbers are a *cost ceiling* of supervision, not a speedup claim. On
multi-core hosts the same bench shows the scaling.
"""

import os
import time

from bench_util import write_bench_json
from repro.exec.pool import ExecConfig
from repro.pipeline.runner import ResilientPipeline

WORKER_COUNTS = (1, 2, 4, 8)


def test_parallel_scaling(benchmark, bench_config, write_report):
    timings = []

    def timed_run(exec_config=None):
        start = time.perf_counter()
        result = ResilientPipeline(
            bench_config, exec_config=exec_config, sleep=lambda _d: None
        ).run()
        return time.perf_counter() - start, result

    serial_elapsed, serial = benchmark.pedantic(
        lambda: timed_run(None), rounds=1, iterations=1
    )
    reference = serial.fused.combined.events
    timings.append(("serial", serial_elapsed))

    for workers in WORKER_COUNTS:
        elapsed, result = timed_run(
            ExecConfig(workers=workers, shards=workers)
        )
        # The acceptance criterion: sharding must never change output.
        assert result.fused.combined.events == reference, (
            f"sharded run ({workers} workers) diverged from serial"
        )
        timings.append((f"{workers} worker(s)", elapsed))

    cores = os.cpu_count() or 1
    lines = [
        "Parallel execution: wall-clock per configuration",
        f"(host cores: {cores}; shards = workers; "
        f"{len(reference)} fused events, identical in every run)",
        "",
        f"{'configuration':<14} {'seconds':>8} {'vs serial':>10}",
    ]
    for name, elapsed in timings:
        ratio = elapsed / serial_elapsed if serial_elapsed else float("nan")
        lines.append(f"{name:<14} {elapsed:>8.2f} {ratio:>9.2f}x")
    if cores == 1:
        lines.append("")
        lines.append(
            "single-core host: these are supervision cost ceilings, "
            "not speedups"
        )
    write_report("parallel", "\n".join(lines))
    write_bench_json(
        "parallel",
        params={
            "cores": cores,
            "worker_counts": list(WORKER_COUNTS),
            "fused_events": len(reference),
        },
        wall_s=serial_elapsed,
        events_per_s=(
            len(reference) / serial_elapsed if serial_elapsed else None
        ),
        extra={
            "timings_s": {
                name: round(elapsed, 6) for name, elapsed in timings
            }
        },
    )
    benchmark.extra_info["cores"] = cores
    for name, elapsed in timings:
        benchmark.extra_info[name] = round(elapsed, 2)
