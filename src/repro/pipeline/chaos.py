"""Chaos drill: exercise the executor's failure envelope end to end.

Unit tests prove each supervision mechanism (watchdog, retry)
in isolation; the drill proves the *composition*: a full pipeline run
under each injected execution fault must either recover to
byte-identical output or complete visibly degraded — and must never hang
past its time budget. ``python -m repro chaos`` runs it from the CLI and
CI runs ``chaos --quick`` as a smoke job.

Each scenario runs the pipeline with a task deadline armed, so every
partition's detection and the DNS measurement run as watched worker
tasks, and with one
:class:`~repro.faults.exec.ExecFaultPlan` armed; it checks the outcome
against a fault-free baseline run without supervision:

* ``hung-worker``  — a stage's task sleeps forever; the watchdog must
  kill it at the task deadline and the retry must recover
  byte-identically;
* ``slow-worker``  — a task is delayed but finishes inside its deadline;
  output must be byte-identical (skipped under ``--quick``);
* ``worker-crash`` — a forked worker dies mid-task; the retry recomputes
  the stage and output must be byte-identical;
* ``poison-shard`` — a stage's input fails on every attempt; the stage
  must degrade through the empty-typed path, reported in the
  :class:`~repro.pipeline.quality.DataQualityReport` as its feed
  ``down`` and the stage ``degraded`` after its last attempt.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.exec.deadline import RunDeadlineExceeded
from repro.faults.exec import (
    ExecFaultPlan,
    KIND_CRASH,
    KIND_HUNG,
    KIND_POISON,
    KIND_SLOW,
)
from repro.log import get_logger
from repro.obs import Telemetry, get_telemetry
from repro.pipeline.config import ScenarioConfig
from repro.pipeline.datasets import event_to_dict
from repro.pipeline.quality import STATUS_DOWN
from repro.pipeline.runner import ResilientPipeline, StageFailedError

log = get_logger("chaos")

#: What a scenario must demonstrate to pass.
EXPECT_IDENTICAL = "byte-identical recovery"
EXPECT_DEGRADED = "visible degradation"


@dataclass(frozen=True)
class ChaosScenario:
    """One injected execution fault and the recovery contract it tests."""

    name: str
    faults: ExecFaultPlan
    expect: str
    #: Watchdog deadline of each observation task in this scenario.
    task_deadline: float = 60.0
    #: Feed that must show up degraded (EXPECT_DEGRADED scenarios only).
    degraded_feed: str = ""


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one drill scenario."""

    name: str
    expect: str
    passed: bool
    detail: str
    elapsed: float


def drill_scenarios(quick: bool = False) -> List[ChaosScenario]:
    """The drill matrix; ``quick`` drops the slow-worker soak."""
    scenarios = [
        ChaosScenario(
            name="hung-worker",
            faults=ExecFaultPlan.single(KIND_HUNG, "honeypot"),
            expect=EXPECT_IDENTICAL,
            task_deadline=2.0,
        ),
        ChaosScenario(
            name="worker-crash",
            faults=ExecFaultPlan.single(KIND_CRASH, "telescope"),
            expect=EXPECT_IDENTICAL,
        ),
        ChaosScenario(
            name="poison-shard",
            faults=ExecFaultPlan.single(KIND_POISON, "honeypot"),
            expect=EXPECT_DEGRADED,
            degraded_feed="honeypot",
        ),
    ]
    if not quick:
        scenarios.insert(
            1,
            ChaosScenario(
                name="slow-worker",
                faults=ExecFaultPlan.single(
                    KIND_SLOW, "measurement", delay=0.5
                ),
                expect=EXPECT_IDENTICAL,
            ),
        )
    return scenarios


def _events_bytes(result) -> bytes:
    """The exact bytes ``events.jsonl`` would hold for this result."""
    return "".join(
        json.dumps(event_to_dict(event)) + "\n"
        for event in result.fused.combined.events
    ).encode("utf-8")


def run_chaos_drill(
    config: Optional[ScenarioConfig] = None,
    quick: bool = False,
    scenario_budget: float = 120.0,
    telemetry: Optional[Telemetry] = None,
) -> List[ScenarioResult]:
    """Run every drill scenario against a fault-free baseline.

    Each scenario's pipeline run carries *scenario_budget* as a hard
    run deadline, so "no scenario hangs past its deadline" is enforced
    by the same :class:`~repro.exec.deadline.RunDeadline` machinery the
    CLI uses — a hang is reported as a failed scenario, not a stuck
    drill.
    """
    config = config if config is not None else ScenarioConfig.small()
    telemetry = telemetry if telemetry is not None else get_telemetry()
    scenario_outcomes = telemetry.metrics.counter(
        "chaos_scenario_outcomes_total",
        "chaos drill scenario verdicts",
        ("scenario", "verdict"),
    )
    log.info("chaos drill baseline (fault-free, unsupervised)")
    with telemetry.tracer.span("chaos-baseline"):
        reference = _events_bytes(
            ResilientPipeline(config, telemetry=telemetry).run()
        )
    results: List[ScenarioResult] = []
    for scenario in drill_scenarios(quick):
        log.info(
            "chaos scenario",
            name=scenario.name,
            faults=scenario.faults.describe(),
        )
        started = time.monotonic()
        result = None
        failure = ""
        try:
            with telemetry.tracer.span(
                "chaos-scenario", scenario=scenario.name
            ):
                result = ResilientPipeline(
                    config,
                    task_deadline=scenario.task_deadline,
                    exec_faults=scenario.faults,
                    deadline=scenario_budget,
                    telemetry=telemetry,
                ).run()
        except RunDeadlineExceeded:
            failure = (
                f"scenario exceeded its {scenario_budget:.0f}s budget"
            )
        except StageFailedError as exc:
            failure = f"core stage failed: {exc}"
        elapsed = time.monotonic() - started
        if result is None:
            passed, detail = False, failure
        elif scenario.expect == EXPECT_IDENTICAL:
            if _events_bytes(result) == reference:
                passed = True
                detail = "recovered; fused events byte-identical to baseline"
            else:
                passed = False
                detail = "completed but fused events diverged from baseline"
        else:
            feed = result.quality.feed(scenario.degraded_feed)
            (fault,) = scenario.faults.faults
            stage = next(
                s for s in result.quality.stages if s.name == fault.stage
            )
            passed = feed.status == STATUS_DOWN and stage.status == "degraded"
            if passed:
                detail = (
                    f"feed {feed.feed!r} down, stage {stage.name!r} "
                    f"degraded after {stage.attempts} attempt(s)"
                )
            else:
                detail = (
                    f"degradation not visible (feed status "
                    f"{feed.status!r}, stage {stage.name!r} {stage.status})"
                )
        scenario_outcomes.inc(
            scenario=scenario.name,
            verdict="passed" if passed else "failed",
        )
        results.append(
            ScenarioResult(
                name=scenario.name,
                expect=scenario.expect,
                passed=passed,
                detail=detail,
                elapsed=elapsed,
            )
        )
        log.info(
            "chaos scenario finished",
            name=scenario.name,
            passed=passed,
            elapsed=round(elapsed, 2),
        )
    return results


__all__ = [
    "EXPECT_DEGRADED",
    "EXPECT_IDENTICAL",
    "ChaosScenario",
    "ScenarioResult",
    "drill_scenarios",
    "run_chaos_drill",
]
