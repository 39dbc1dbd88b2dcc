"""Fault tolerance: headline-ratio drift under the standard fault plan.

Runs the bench scenario once healthy and once through the resilient
runner under ``FaultPlan.standard`` (telescope gaps, honeypot churn,
missed OpenINTEL snapshots, DPS record corruption), then records how far
the paper's headline ratios drift and what each feed lost. The rendered
``DataQualityReport`` lands in ``benchmarks/out/faulttolerance.txt`` so
drift can be tracked across revisions of the pipeline.
"""

import time

from bench_util import write_bench_json
from repro.faults.plan import FaultPlan
from repro.pipeline.quality import HeadlineMetrics
from repro.pipeline.runner import ResilientPipeline

#: Fixed plan seed: the drift numbers are comparable across revisions.
FAULT_SEED = 7


def test_faulttolerance_drift(benchmark, sim, bench_config, write_report):
    baseline = HeadlineMetrics.from_result(sim)
    plan = FaultPlan.standard(
        bench_config.n_days,
        seed=FAULT_SEED,
        n_honeypots=bench_config.n_honeypots,
    )

    start = time.perf_counter()
    degraded = benchmark.pedantic(
        lambda: ResilientPipeline(
            bench_config, plan=plan, sleep=lambda _d: None
        ).run(baseline),
        rounds=1,
        iterations=1,
    )
    wall = time.perf_counter() - start
    quality = degraded.quality
    write_report("faulttolerance", quality.render())
    observed = sum(feed.events_observed for feed in quality.feeds)
    write_bench_json(
        "faulttolerance",
        params={"fault_seed": FAULT_SEED, "n_days": bench_config.n_days},
        wall_s=wall,
        events_per_s=observed / wall if wall else None,
        extra={
            "headline_drift": {
                key: round(value, 6)
                for key, value in quality.headline_drift().items()
            }
        },
    )

    # The standard plan is lossy but mild: the pipeline must complete with
    # every stage ok and the headline ratios within a few points.
    assert all(stage.status == "ok" for stage in quality.stages)
    drift = quality.headline_drift()
    assert drift, "expected drift metrics against the healthy baseline"
    assert drift["attacked_slash24_fraction"] <= 0.05
    assert drift["attacked_site_fraction"] <= 0.10
    assert drift["migrating_fraction"] <= 0.05
