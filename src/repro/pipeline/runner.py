"""The pipeline's one runner: supervised stage orchestration.

:class:`ResilientPipeline` chains the stage functions of
:mod:`repro.pipeline.simulation` under supervision;
``run_simulation`` is this runner with its defaults (serial, in memory,
fault-free). Stage functions are looked up on the simulation module at
call time, so a wrapper installed there (a tracer, a test double) sees
every stage. Supervision adds:

* **timing** — every stage's wall time and attempt count is recorded in a
  :class:`~repro.pipeline.quality.StageReport`;
* **retry with backoff** — :class:`TransientStageError` (the injectable
  stand-in for a flaky collector, full disk, or dropped connection) is
  retried up to ``RetryPolicy.max_attempts`` times with exponential
  backoff;
* **checkpointing** — completed stage outputs are kept, so a run that died
  mid-pipeline resumes from the first incomplete stage instead of
  regenerating the Internet. With a ``run_dir`` the checkpoints are also
  persisted to disk through :class:`~repro.store.CheckpointStore`
  (atomic, checksummed, schema-versioned), so even a SIGKILLed *process*
  resumes from the last valid checkpoint — ``python -m repro resume`` —
  with corrupt checkpoints detected at load and discarded back to the
  previous trustworthy stage;
* **graceful degradation** — an observation/measurement stage that stays
  broken yields an *empty but correctly typed* feed plus a quality flag,
  and the pipeline completes with honest, quantified losses. Core stages
  (internet, attacks, migration, fusion) have no meaningful degraded
  output and still fail the run.

A :class:`~repro.faults.plan.FaultPlan` wires per-feed injectors into the
observation stages and can schedule transient stage failures, which makes
the whole failure envelope reproducible from two integers (scenario seed,
fault seed). Because every stage function is deterministic given the
scenario config, a resumed run produces byte-identical headline output to
an uninterrupted one; injector loss counters are persisted alongside the
checkpoints so even the feed-quality accounting survives the crash.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.dns.openintel import OpenIntelDataset
from repro.dps.detection import DPSUsageDataset
from repro.exec.breaker import CircuitBreaker
from repro.exec.deadline import RunDeadline
from repro.exec.interrupt import InterruptGuard
from repro.exec.pool import SupervisedPool, TaskSpec
from repro.faults.exec import (
    ExecFaultPlan,
    PoisonShardError,
    WorkerCrashError,
    apply_exec_fault,
)
from repro.faults.injectors import FaultInjectorSet
from repro.faults.plan import (
    FEED_DPS,
    FEED_HONEYPOT,
    FEED_OPENINTEL,
    FEED_TELESCOPE,
    FaultPlan,
)
from repro.log import get_logger
from repro.net.columnar import PortSetTable
from repro.obs import Telemetry, get_telemetry
from repro.pipeline.config import ScenarioConfig
from repro.pipeline.quality import (
    DataQualityReport,
    FeedQuality,
    HeadlineMetrics,
    RecordQuality,
    STATUS_DOWN,
    StageReport,
    feed_status,
)
from repro.store.checkpoint import CheckpointIssue, CheckpointStore
from repro.store.stagecache import CACHE_MISS, StageCache, stage_fingerprint
from repro.pipeline import simulation as sim
from repro.pipeline.simulation import SimulationResult

#: Orchestrated stage names, in execution order.
STAGE_ORDER = (
    "internet",
    "attacks",
    "migration",
    "telescope",
    "honeypot",
    "measurement",
    "fusion",
)

#: The observation stages: supervised by breakers, degradable to an
#: empty feed, cacheable, and run as watched pool tasks when a task
#: deadline is armed.
OBSERVATION_STAGES = ("telescope", "honeypot", "measurement")

#: Actual data dependencies between stages. The sequential STAGE_ORDER
#: overstates them: the three observation stages only need the attack /
#: migration layers, not each other, so a corrupt telescope checkpoint
#: does not cost a valid honeypot one on resume (see
#: :meth:`CheckpointStore.load_valid_graph`).
STAGE_DEPS: Dict[str, tuple] = {
    "internet": (),
    "attacks": ("internet",),
    "migration": ("internet", "attacks"),
    "telescope": ("attacks",),
    "honeypot": ("attacks",),
    "measurement": ("migration",),
    "fusion": ("migration", "telescope", "honeypot", "measurement"),
}

#: Injector-counter prefixes each stage's own execution mutates; used to
#: snapshot/restore exactly the counters a retried attempt regenerates,
#: and to persist each stage's own counters with its checkpoint.
STAGE_COUNTER_PREFIXES: Dict[str, tuple] = {
    "telescope": ("telescope.",),
    "honeypot": ("honeypot.",),
    "measurement": ("openintel.", "dps."),
}

def _payload_events(output: Any) -> int:
    """Record count of a stage payload (event lists; 0 for composites)."""
    return len(output) if isinstance(output, list) else 0


class TransientStageError(RuntimeError):
    """A stage failure worth retrying (collector hiccup, not a bug)."""


class StageFailedError(RuntimeError):
    """A core stage exhausted its retries; the run cannot continue."""

    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"stage {stage!r} failed permanently: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class RetryPolicy:
    """How patient the runner is with transient failures."""

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 60.0
    #: Decorrelated jitter (off by default, so existing callers keep the
    #: exact exponential sequence): each delay is drawn uniformly from
    #: [base, 3 * previous delay], capped. Retries from many processes
    #: that failed together then *spread out* instead of re-colliding at
    #: the same exponential instants. The draw is seeded, so a given
    #: (seed, attempt) pair always yields the same delay — retry timing
    #: stays reproducible, which is what makes it testable.
    jitter: bool = False
    jitter_seed: int = 0

    #: Multiplier of the decorrelated-jitter upper bound ("sleep * 3" in
    #: the classic formulation).
    JITTER_SPREAD = 3.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.backoff_base < 0 or self.backoff_factor < 1:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if self.backoff_max < 0:
            raise ValueError("backoff cap must be non-negative")

    def delay(self, attempt: int) -> float:
        """Sleep before retry number *attempt* (1-based), capped.

        The cap also guards the exponentiation itself: at high attempt
        counts ``factor ** attempt`` overflows a float, which must read
        as "wait the maximum", not crash the retry loop it protects.
        """
        if self.backoff_base == 0.0:
            return 0.0
        if self.jitter:
            return self._jittered_delay(attempt)
        try:
            raw = self.backoff_base * self.backoff_factor ** (attempt - 1)
        except OverflowError:
            return self.backoff_max
        return min(raw, self.backoff_max)

    def _jittered_delay(self, attempt: int) -> float:
        """Decorrelated jitter, derived deterministically from the seed.

        The decorrelated sequence is stateful (each delay depends on the
        previous one), but the policy is a frozen value object — so the
        sequence is re-derived from the seed on every call rather than
        carried as mutable state. Attempt counts are small; O(attempt)
        per call is noise next to the sleep it sizes.
        """
        rng = random.Random(self.jitter_seed)
        sleep = self.backoff_base
        for _ in range(attempt):
            sleep = min(
                self.backoff_max,
                rng.uniform(self.backoff_base, sleep * self.JITTER_SPREAD),
            )
        return sleep

    def delays(self, attempts: Optional[int] = None) -> List[float]:
        """The full backoff sequence (one delay per retry), for drills."""
        count = attempts if attempts is not None else self.max_attempts - 1
        return [self.delay(attempt) for attempt in range(1, count + 1)]


class ResilientPipeline:
    """Supervised execution of the simulation with optional fault plan.

    With a ``run_dir`` the pipeline is *durable*: every completed stage is
    checkpointed to disk and a fresh process pointed at the same directory
    (``python -m repro resume``) restores the longest valid prefix —
    verifying the checksum of each checkpoint and falling back to the
    previous stage when one fails validation. ``crash_after`` is the
    recovery-drill hook: the process dies with ``os._exit`` (no cleanup,
    the moral equivalent of SIGKILL) immediately after that stage's
    checkpoint reaches disk.
    """

    #: File under the run dir carrying resumable non-checkpoint state.
    STATE_FILE = "state.json"

    def __init__(
        self,
        config: ScenarioConfig,
        plan: Optional[FaultPlan] = None,
        retry: RetryPolicy = RetryPolicy(),
        sleep: Optional[Callable[[float], None]] = None,
        run_dir: Optional[Union[str, Path]] = None,
        crash_after: Optional[str] = None,
        task_deadline: Optional[float] = None,
        exec_faults: Optional[ExecFaultPlan] = None,
        deadline: Optional[Union[float, RunDeadline]] = None,
        interrupt: Optional[InterruptGuard] = None,
        breakers: Optional[Dict[str, CircuitBreaker]] = None,
        telemetry: Optional[Telemetry] = None,
        stage_cache: Optional[Union[str, Path, StageCache]] = None,
    ) -> None:
        self.config = config
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.plan = plan if plan is not None else FaultPlan.none(
            config.n_days, config.n_honeypots
        )
        if self.plan.n_days != config.n_days:
            raise ValueError(
                "fault plan window does not match the scenario window"
            )
        if crash_after is not None and crash_after not in STAGE_ORDER:
            raise ValueError(
                f"unknown crash_after stage: {crash_after!r} "
                f"(stages: {', '.join(STAGE_ORDER)})"
            )
        if task_deadline is not None and not task_deadline > 0:
            raise ValueError(
                f"task deadline must be positive, got {task_deadline!r}"
            )
        self.retry = retry
        self.injectors = FaultInjectorSet(self.plan)
        self.stage_reports: List[StageReport] = []
        self.record_reports: List[Any] = []
        self.checkpoint_issues: List[CheckpointIssue] = []
        self._checkpoints: Dict[str, Any] = {}
        self._pending_failures = self.plan.transient_failure_counts()
        self._degraded_stages: set = set()
        self._sleep = sleep if sleep is not None else time.sleep
        self._log = get_logger("runner")
        self.crash_after = crash_after
        #: Watchdog deadline per observation task (None: run in process).
        self.task_deadline = task_deadline
        self.exec_faults = (
            exec_faults if exec_faults is not None else ExecFaultPlan.none()
        )
        self.deadline = (
            deadline
            if isinstance(deadline, RunDeadline)
            else RunDeadline(deadline)
        )
        # A default-constructed guard has no handlers installed, so
        # check() is a no-op unless the CLI armed it.
        self.interrupt = interrupt if interrupt is not None else InterruptGuard()
        metrics = self.telemetry.metrics
        self._tracer = self.telemetry.tracer
        self._profiler = self.telemetry.profiler
        self._obs_clock = self.telemetry.clock
        self._m_attempts = metrics.counter(
            "pipeline_stage_attempts_total", "stage attempts started",
            ("stage",),
        )
        self._m_attempt_failures = metrics.counter(
            "pipeline_stage_attempt_failures_total",
            "stage attempts that ended in a transient failure",
            ("stage",),
        )
        self._m_outcomes = metrics.counter(
            "pipeline_stage_outcomes_total", "final stage outcomes",
            ("stage", "status"),
        )
        self._m_stage_seconds = metrics.histogram(
            "pipeline_stage_seconds", "stage wall time (telemetry clock)",
            ("stage",),
        )
        # Cross-run stage cache: only consulted for fault-free plans
        # (outputs are then pure functions of the scenario config) and
        # only for the expensive observation stages.
        if isinstance(stage_cache, StageCache):
            self.stage_cache: Optional[StageCache] = stage_cache
        elif stage_cache is not None:
            self.stage_cache = StageCache(stage_cache, metrics=metrics)
        else:
            self.stage_cache = None
        self._cache_eligible = (
            self.plan.is_benign() and not self.exec_faults.faults
        )
        # Default breaker threshold matches the retry budget: a feed that
        # fails every attempt trips its breaker exactly as the stage
        # degrades, while a feed that recovers within the budget (the
        # retry contract) is never refused its final attempt.
        self.breakers: Dict[str, CircuitBreaker] = (
            breakers
            if breakers is not None
            else {
                stage: CircuitBreaker(
                    stage,
                    failure_threshold=self.retry.max_attempts,
                    metrics=metrics,
                )
                for stage in OBSERVATION_STAGES
            }
        )
        self._pool: Optional[SupervisedPool] = (
            SupervisedPool(metrics=metrics)
            if task_deadline is not None
            else None
        )
        self._attempt_now: Dict[str, int] = {}
        self.store: Optional[CheckpointStore] = None
        if run_dir is not None:
            self.store = CheckpointStore(run_dir, metrics=metrics)
            self._restore_from_store()

    # -- durable state --------------------------------------------------------

    def _restore_from_store(self) -> None:
        """Adopt every checkpoint whose dependencies survived validation."""
        payloads, issues = self.store.load_valid_graph(
            STAGE_ORDER, STAGE_DEPS
        )
        self._checkpoints.update(payloads)
        self.checkpoint_issues = issues
        # Each completed stage's own injector counters and the degraded
        # stages are persisted with its checkpoint. Those of discarded
        # checkpoints are dropped and regenerated by the re-run.
        snapshots = (
            self.store.read_json(self.STATE_FILE) or {}
        ).get("stage_state", {})
        for stage in payloads:
            snapshot = snapshots.get(stage) or {}
            self.injectors.restore_counters(snapshot.get("own_counters", {}))
            self._degraded_stages.update(
                name
                for name in snapshot.get("degraded_stages", [])
                if name in payloads
            )
            self._log.info("stage restored from checkpoint", stage=stage)
        for issue in self.checkpoint_issues:
            self._log.warning(
                "checkpoint discarded",
                stage=issue.stage,
                kind=issue.kind,
                detail=issue.detail,
            )

    def _persist_stage(self, name: str) -> None:
        """Checkpoint a completed stage and the resumable runner state."""
        if self.store is None:
            return
        self.store.save(name, self._checkpoints[name])
        state = self.store.read_json(self.STATE_FILE) or {}
        prefixes = STAGE_COUNTER_PREFIXES.get(name, ())
        state.setdefault("stage_state", {})[name] = {
            "own_counters": {
                key: value
                for key, value in self.injectors.counters().items()
                if key.startswith(prefixes)
            },
            "degraded_stages": sorted(self._degraded_stages),
        }
        self.store.write_json(self.STATE_FILE, state)
        if self.crash_after == name:
            self._log.error(
                "simulated hard crash (recovery drill)", stage=name
            )
            os._exit(137)  # SIGKILL semantics: no cleanup, no atexit

    def attach_record_report(self, report: Any) -> None:
        """Surface a :class:`FeedLoadReport` in this run's quality report."""
        self.record_reports.append(report)

    # -- orchestration --------------------------------------------------------

    def run(
        self, baseline: Optional[HeadlineMetrics] = None
    ) -> SimulationResult:
        """Run (or resume) the pipeline; returns a result with ``quality``."""
        with self._tracer.span("run", n_days=self.config.n_days):
            return self._run_pipeline(baseline)

    def _run_pipeline(
        self, baseline: Optional[HeadlineMetrics]
    ) -> SimulationResult:
        config = self.config
        self.stage_reports = []
        internet = self._run_stage(
            "internet", lambda: sim.build_internet(config)
        )
        ground_truth = self._run_stage(
            "attacks", lambda: sim.schedule_attacks(config, internet)
        )

        def _migrate():
            diversion_log, ledger = sim.run_migration(
                config, internet, ground_truth
            )
            # Migration mutates internet.zones in place, so the stage's
            # checkpoint must carry the *post-migration* internet: a resumed
            # process restoring this stage would otherwise hand later stages
            # the stale pre-migration snapshot. Bundling all three into one
            # payload also keeps the references diversion_log and ledger
            # share with the zones consistent across the pickle round-trip.
            return diversion_log, ledger, internet

        diversion_log, ledger, internet = self._run_stage(
            "migration", _migrate
        )
        # Bucketed once for both feeds: partition k holds the attacks on
        # victims v with v % n == k.
        partitions = sim.partition_attacks(
            ground_truth, sim.partition_count(len(ground_truth))
        )
        telescope_events = self._run_stage(
            "telescope",
            lambda: self._observe_telescope(partitions),
            degraded_factory=list,
            partitions=len(partitions),
        )
        honeypot_events = self._run_stage(
            "honeypot",
            lambda: self._observe_honeypot(partitions),
            degraded_factory=list,
            partitions=len(partitions),
        )
        openintel, dps_usage = self._run_stage(
            "measurement",
            lambda: self._measure(internet, diversion_log),
            degraded_factory=self._empty_measurement,
        )
        fused, web_index = self._run_stage(
            "fusion",
            lambda: sim.fuse_observations(
                internet, telescope_events, honeypot_events, openintel
            ),
        )
        result = sim.assemble_result(
            config,
            internet,
            diversion_log,
            ledger,
            ground_truth,
            telescope_events,
            honeypot_events,
            fused,
            openintel,
            dps_usage,
            web_index,
        )
        result.quality = self._build_quality(result, baseline)
        return result

    # -- observation stages ---------------------------------------------------

    def _observe_telescope(self, partitions: List[list]) -> list:
        config = self.config
        # One interning table per attempt: every partition's port-set
        # ids index the same table.
        port_sets = PortSetTable()
        return self._observe_feed(
            "telescope",
            partitions,
            lambda: sim.telescope_noise(config, len(partitions), port_sets),
            lambda attacks, noise: sim.telescope_capture(
                config,
                attacks,
                noise=noise,
                port_sets=port_sets,
                fault=self.injectors.telescope,
            ),
            sim.detect_telescope_shard,
            sim.merge_telescope_shards,
        )

    def _observe_honeypot(self, partitions: List[list]) -> list:
        config = self.config
        return self._observe_feed(
            "honeypot",
            partitions,
            lambda: sim.honeypot_noise(config, len(partitions)),
            lambda attacks, noise: sim.honeypot_capture(
                config, attacks, noise=noise, fault=self.injectors.honeypot
            ),
            sim.detect_honeypot_shard,
            sim.merge_honeypot_shards,
        )

    def _observe_feed(
        self,
        stage: str,
        partitions: List[list],
        draw_noise: Callable[[], List[Any]],
        synthesize: Callable[[list, Any], Any],
        detect: Callable[..., Any],
        merge: Callable[[List[Any]], Any],
    ) -> Any:
        """Synthesize, fault-filter and detect one feed a victim
        partition at a time, then merge once.

        The whole capture is never built: partition ``k`` is the
        capture of the attacks in ``partitions[k]`` plus its slice of
        the feed's noise, which is drawn once per attempt. Flows are
        keyed on the victim and every attack has its own random stream,
        so each partition is exactly the whole capture's rows of its
        victims and the merged events equal one whole-capture detection
        (DESIGN.md section 6). Synthesis and fault filtering run here in
        the runner's process, so the injector's loss counters add up
        across partitions (a fork child would lose them); with a task
        deadline armed, each partition's detection is one watched task.
        Each layer gets one child span per partition and one profile
        entry per stage, summed over the partitions.
        """
        config = self.config
        noise = None
        shards = []
        for index, attacks in enumerate(partitions):
            with self._layer(stage, "synthesize", index) as set_rows:
                if noise is None:  # synthesis too: the first layer's cost
                    noise = draw_noise()
                capture = synthesize(attacks, noise[index])
                set_rows(len(capture))
            with self._layer(stage, "detect", index) as set_rows:
                set_rows(len(capture))
                shards.append(
                    self._supervised(stage, lambda: detect(config, capture))
                )
            del capture  # before the next partition's synthesis allocates
        return merge(shards)

    @contextmanager
    def _layer(
        self, stage: str, layer: str, partition: int
    ) -> Iterator[Callable[[int], None]]:
        """One partition's child span of a stage layer, folded into the
        stage's ``stage.layer`` profile entry; yields a setter for the
        layer's input row count."""
        with self._tracer.span(layer, stage=stage, partition=partition) as span:
            with self._profiler.profile(
                f"{stage}.{layer}", accumulate=True
            ) as prof:

                def set_rows(count: int) -> None:
                    span.set_attr(rows=count)
                    prof.set_rows(count)

                yield set_rows

    def _measure(self, internet: Any, diversion_log: Any) -> Any:
        """DNS measurement (supervised), then its faults in this process:
        degradation mutates injector counters."""
        config = self.config
        openintel, dps_usage = self._supervised(
            "measurement",
            lambda: sim.measure_dns(config, internet, diversion_log),
        )
        return sim.apply_dns_faults(
            openintel,
            dps_usage,
            openintel_fault=self.injectors.openintel,
            dps_fault=self.injectors.dps,
        )

    def _supervised(self, stage: str, fn: Callable[[], Any]) -> Any:
        """Run a piece of a stage's compute (one partition's detection,
        or the DNS measurement); with a task deadline armed, as one
        watched pool task.

        The task runs in a fork child where the platform allows, so the
        watchdog can kill it at the deadline, and a child that hangs,
        crashes or fails surfaces as a :class:`TransientStageError` for
        the stage's retry loop. The stage's execution fault fires inside
        each of its tasks: a hung, crashed or poisoned attempt fails at
        its first task.
        """
        if self._pool is None:
            return fn()
        attempt = self._attempt_now[stage]
        fault = self.exec_faults.lookup(stage, attempt)
        if fault is not None:
            self._log.warning(
                "exec fault armed", stage=stage, attempt=attempt,
                fault=fault.kind,
            )

        def task():
            apply_exec_fault(fault)
            return fn()

        with self._tracer.span("task", stage=stage, attempt=attempt):
            (outcome,) = self._pool.run(
                [TaskSpec(name=stage, fn=task, deadline=self._task_deadline())]
            )
        if not outcome.ok:
            raise TransientStageError(
                f"{stage} task {outcome.status}: {outcome.error}"
            )
        return outcome.value

    def _task_deadline(self) -> float:
        """Watchdog deadline of one task: the task cap, bounded by what is
        left of the whole-run deadline so a hung task cannot out-sleep
        the run-level abort."""
        remaining = self.deadline.remaining()
        if remaining is None:
            return self.task_deadline
        return max(0.01, min(self.task_deadline, remaining))

    def _run_stage(
        self,
        name: str,
        fn: Callable[[], Any],
        degraded_factory: Optional[Callable[[], Any]] = None,
        **span_attrs: Any,
    ) -> Any:
        if name in self._checkpoints:
            self._m_outcomes.inc(stage=name, status="cached")
            self.stage_reports.append(
                StageReport(name=name, status="cached", attempts=0)
            )
            self._log.debug("stage served from checkpoint", stage=name)
            return self._checkpoints[name]
        payload = self._stage_cache_get(name)
        if payload is not CACHE_MISS:
            # Served from the cross-run cache: adopt it exactly like a
            # computed output so resume checkpoints (and crash drills)
            # behave identically to an uncached run.
            self._checkpoints[name] = payload
            self._m_outcomes.inc(stage=name, status="cache-hit")
            self.stage_reports.append(
                StageReport(name=name, status="cache-hit", attempts=0)
            )
            self._log.info("stage served from stage cache", stage=name)
            self._persist_stage(name)
            return payload
        with self._tracer.span("stage", stage=name, **span_attrs) as span:
            with self._profiler.profile(name) as prof:
                return self._run_stage_attempts(
                    name, fn, degraded_factory, span, prof
                )

    def _run_stage_attempts(
        self,
        name: str,
        fn: Callable[[], Any],
        degraded_factory: Optional[Callable[[], Any]],
        span: Any,
        prof: Any,
    ) -> Any:
        self.deadline.check(f"stage {name!r}")
        self.interrupt.check(f"stage {name!r}")
        self._log.debug("stage starting", stage=name)
        start = time.perf_counter()
        obs_start = self._obs_clock()
        attempts = 0
        last_error: Optional[Exception] = None
        breaker = self.breakers.get(name)
        prefixes = STAGE_COUNTER_PREFIXES.get(name, ())
        # A stage that runs as a pool task takes its execution fault
        # inside the task (see _supervised); every other stage here.
        fault_in_task = self._pool is not None and name in OBSERVATION_STAGES

        def _finish(status: str) -> None:
            self._m_outcomes.inc(stage=name, status=status)
            self._m_stage_seconds.observe(
                self._obs_clock() - obs_start, stage=name
            )
            span.set_attr(status=status, attempts=attempts)

        while attempts < self.retry.max_attempts:
            self.deadline.check(f"stage {name!r} attempt {attempts + 1}")
            self.interrupt.check(f"stage {name!r} attempt {attempts + 1}")
            attempts += 1
            self._attempt_now[name] = attempts
            self._m_attempts.inc(stage=name)
            if breaker is not None and not breaker.allow():
                last_error = TransientStageError(
                    f"circuit breaker for {name!r} is {breaker.state}; "
                    f"attempt refused"
                )
                self._log.warning(
                    "stage attempt refused by circuit breaker",
                    stage=name,
                    attempt=attempts,
                    breaker_state=breaker.state,
                )
                continue
            # An attempt that fails after partially running (a crashed
            # detection task, say) has already folded losses into the injector
            # counters; the retry regenerates them, so the failed
            # attempt's contribution must be rolled back first.
            counter_baseline = {
                key: value
                for key, value in self.injectors.counters().items()
                if key.startswith(prefixes)
            } if prefixes else {}
            try:
                with self._tracer.span("attempt", stage=name, attempt=attempts):
                    self._maybe_inject_failure(name)
                    if not fault_in_task:
                        # Crash/poison surface as stage failures; hung
                        # genuinely hangs, as there is no watchdog here.
                        apply_exec_fault(
                            self.exec_faults.lookup(name, attempts)
                        )
                    output = fn()
            except (
                TransientStageError,
                PoisonShardError,
                WorkerCrashError,
            ) as exc:
                last_error = exc
                self._m_attempt_failures.inc(stage=name)
                if breaker is not None:
                    breaker.record_failure(str(exc))
                if counter_baseline:
                    self.injectors.restore_counters(counter_baseline)
                self._log.warning(
                    "stage attempt failed",
                    stage=name,
                    attempt=attempts,
                    max_attempts=self.retry.max_attempts,
                    error=str(exc),
                )
                if attempts < self.retry.max_attempts:
                    self._sleep(self.retry.delay(attempts))
                continue
            if breaker is not None:
                breaker.record_success()
            self._checkpoints[name] = output
            self._stage_cache_put(name, output)
            elapsed = time.perf_counter() - start
            _finish("ok")
            prof.set_events(_payload_events(output))
            self.stage_reports.append(
                StageReport(
                    name=name,
                    status="ok",
                    attempts=attempts,
                    elapsed=elapsed,
                )
            )
            self._log.info(
                "stage completed",
                stage=name,
                attempts=attempts,
                elapsed=round(elapsed, 3),
            )
            self._persist_stage(name)
            return output
        if degraded_factory is not None:
            output = degraded_factory()
            self._checkpoints[name] = output
            self._degraded_stages.add(name)
            _finish("degraded")
            self.stage_reports.append(
                StageReport(
                    name=name,
                    status="degraded",
                    attempts=attempts,
                    elapsed=time.perf_counter() - start,
                    error=str(last_error),
                )
            )
            self._log.error(
                "stage degraded to empty feed",
                stage=name,
                attempts=attempts,
                error=str(last_error),
            )
            self._persist_stage(name)
            return output
        _finish("failed")
        self.stage_reports.append(
            StageReport(
                name=name,
                status="failed",
                attempts=attempts,
                elapsed=time.perf_counter() - start,
                error=str(last_error),
            )
        )
        self._log.error(
            "stage failed permanently",
            stage=name,
            attempts=attempts,
            error=str(last_error),
        )
        raise StageFailedError(name, last_error)

    # -- cross-run stage cache ------------------------------------------------

    def _stage_cacheable(self, name: str) -> bool:
        """Only the expensive observation stages, and only when no fault
        plan (data or exec) can make the output diverge from the pure
        function of the scenario config the fingerprint describes."""
        return (
            self.stage_cache is not None
            and self._cache_eligible
            and name in OBSERVATION_STAGES
        )

    def _stage_cache_get(self, name: str) -> Any:
        if not self._stage_cacheable(name):
            return CACHE_MISS
        return self.stage_cache.get(name, stage_fingerprint(self.config, name))

    def _stage_cache_put(self, name: str, output: Any) -> None:
        # Only "ok" outcomes reach here; degraded outputs never enter
        # the cache (they reflect a failure, not the scenario).
        if not self._stage_cacheable(name):
            return
        self.stage_cache.put(name, stage_fingerprint(self.config, name), output)

    def _maybe_inject_failure(self, name: str) -> None:
        remaining = self._pending_failures.get(name, 0)
        if remaining > 0:
            self._pending_failures[name] = remaining - 1
            raise TransientStageError(
                f"injected transient failure in stage {name!r}"
            )

    def _empty_measurement(self):
        """Typed empty outputs for a measurement feed that stayed down."""
        openintel = OpenIntelDataset(
            n_days=self.config.n_days,
            zone_stats=[],
            hosting_intervals=[],
            first_seen={},
        )
        return openintel, DPSUsageDataset(usages=[], n_days=self.config.n_days)

    # -- quality accounting ---------------------------------------------------

    def _build_quality(
        self,
        result: SimulationResult,
        baseline: Optional[HeadlineMetrics],
    ) -> DataQualityReport:
        plan, inj = self.plan, self.injectors
        feeds = [
            self._feed_quality(
                FEED_TELESCOPE,
                stage="telescope",
                uptime=plan.telescope_uptime(),
                observed=len(result.telescope_events),
                dropped=inj.telescope.dropped_batches,
                detail=(
                    f"{inj.telescope.dropped_packets} backscatter packets lost"
                    if inj.telescope.dropped_packets
                    else ""
                ),
            ),
            self._feed_quality(
                FEED_HONEYPOT,
                stage="honeypot",
                uptime=plan.honeypot_uptime(),
                observed=len(result.honeypot_events),
                dropped=inj.honeypot.dropped_batches,
                detail=(
                    f"{inj.honeypot.dropped_requests} requests lost"
                    if inj.honeypot.dropped_requests
                    else ""
                ),
            ),
            self._feed_quality(
                FEED_OPENINTEL,
                stage="measurement",
                uptime=plan.openintel_uptime(),
                observed=len(result.openintel.hosting_intervals),
                dropped=inj.openintel.dropped_interval_days,
                detail=(
                    f"{len(plan.openintel_missed_days)} snapshots missed, "
                    f"{inj.openintel.shifted_first_seen} first-seen shifted"
                    if plan.openintel_missed_days
                    else ""
                ),
            ),
            self._feed_quality(
                FEED_DPS,
                stage="measurement",
                uptime=plan.dps_uptime(),
                observed=len(result.dps_usage.usages),
                dropped=inj.dps.dropped_records + inj.dps.jittered_records,
                detail=(
                    f"{inj.dps.dropped_records} dropped, "
                    f"{inj.dps.jittered_records} day-jittered"
                    if plan.dps_corruption_rate
                    else ""
                ),
            ),
        ]
        headline = HeadlineMetrics.from_result(result)
        return DataQualityReport(
            feeds=feeds,
            stages=list(self.stage_reports),
            records=[
                RecordQuality.from_load_report(report)
                for report in self.record_reports
            ],
            headline=headline,
            baseline=baseline,
            plan_description=plan.describe(),
            breakers=[
                self.breakers[stage].report()
                for stage in OBSERVATION_STAGES
                if stage in self.breakers
            ],
        )

    def _feed_quality(
        self,
        feed: str,
        stage: str,
        uptime: float,
        observed: int,
        dropped: int,
        detail: str,
    ) -> FeedQuality:
        if stage in self._degraded_stages:
            # The stage itself died: whatever the plan says, the feed is out.
            return FeedQuality(
                feed=feed,
                uptime=0.0,
                events_observed=observed,
                events_dropped=dropped,
                status=STATUS_DOWN,
                detail="stage failed permanently; empty feed substituted",
            )
        return FeedQuality(
            feed=feed,
            uptime=uptime,
            events_observed=observed,
            events_dropped=dropped,
            status=feed_status(uptime, dropped),
            detail=detail,
        )

