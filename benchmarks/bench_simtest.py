"""Throughput of the deterministic cluster simulation harness.

The simulation's value scales with how many seeded fault schedules a CI
budget can explore, so the headline number is *seeds per minute* for the
default three-node spec — a full run each: schedule generation, virtual
cluster with WAL-shipping replication, the settle phase and all three
oracles (durability, digest-vs-replay, single-writer-per-epoch). A
second arm measures shrink cost on a known failing trace (the committed
``primary-rewind`` corpus bug, re-introduced by disabling the WAL
commit's fsync) since minimization is the expensive step when a sweep does
fail.

Results land in ``benchmarks/out/simtest.json``.
"""

import json
import time
from pathlib import Path

from bench_util import write_bench_json
from repro.serve import wal as walmod
from repro.simtest import default_spec, run_sim
from repro.simtest.shrink import shrink_trace

SWEEP_SEEDS = 40
SWEEP_STEPS = 60
NODES = 3


def bench_sweep():
    config = default_spec(nodes=NODES, steps=SWEEP_STEPS)
    ops_total = 0
    violations = 0
    start = time.perf_counter()
    for seed in range(SWEEP_SEEDS):
        trace = run_sim(seed, config)
        ops_total += len(trace["ops"])
        violations += len(trace["violations"])
    wall = time.perf_counter() - start
    return wall, ops_total, violations


def bench_shrink():
    """Shrink cost with the WAL commit temporarily disabled."""
    real_flush = walmod.WriteAheadLog.flush
    walmod.WriteAheadLog.flush = lambda self: None
    try:
        config = default_spec(nodes=NODES, steps=SWEEP_STEPS)
        failing = run_sim(0, config)
        assert failing["violations"], "expected the re-introduced bug to fail"
        start = time.perf_counter()
        minimized, runs = shrink_trace(failing, max_runs=300)
        wall = time.perf_counter() - start
    finally:
        walmod.WriteAheadLog.flush = real_flush
    return wall, runs, len(failing["ops"]), len(minimized["ops"])


def main():
    sweep_wall, ops_total, violations = bench_sweep()
    seeds_per_min = SWEEP_SEEDS / sweep_wall * 60.0
    ops_per_s = ops_total / sweep_wall
    shrink_wall, shrink_runs, ops_before, ops_after = bench_shrink()

    print(
        f"sweep: {SWEEP_SEEDS} seeds x {SWEEP_STEPS} steps in "
        f"{sweep_wall:.2f}s = {seeds_per_min:.0f} seeds/min "
        f"({ops_per_s:.0f} ops/s), {violations} violations"
    )
    print(
        f"shrink: {ops_before} -> {ops_after} ops in {shrink_runs} runs, "
        f"{shrink_wall:.2f}s"
    )

    path = write_bench_json(
        "simtest",
        params={
            "seeds": SWEEP_SEEDS,
            "steps": SWEEP_STEPS,
            "nodes": NODES,
        },
        wall_s=sweep_wall,
        events_per_s=ops_per_s,
        extra={
            "seeds_per_min": round(seeds_per_min, 1),
            "sweep_violations": violations,
            "shrink_wall_s": round(shrink_wall, 3),
            "shrink_runs": shrink_runs,
            "shrink_ops_before": ops_before,
            "shrink_ops_after": ops_after,
        },
    )
    print(f"wrote {path}")
    assert violations == 0, "sweep must stay violation-free"


if __name__ == "__main__":
    main()
