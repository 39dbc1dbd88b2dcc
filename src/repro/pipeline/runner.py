"""The pipeline's one runner: a stage table and its executor.

:data:`STAGES` is the pipeline, one :class:`Stage` row per step of
:data:`~repro.catalog.STAGE_ORDER`: its name, the stages whose outputs it
reads, how it runs, the injector counters it owns and, for an
observation stage, its typed empty output. :class:`ResilientPipeline`
runs the rows in order through one executor and builds the
:class:`~repro.pipeline.simulation.SimulationResult` from their outputs
by name; ``run_simulation`` is this runner with its defaults (in memory,
fault-free). Rows look stage functions up on the simulation module when
they run (``sim.<fn>``), never at import, so a wrapper installed there
(a tracer, a test double) sees every stage run in this process. The
executor adds:

* **stage children** — before a row computes here, the later
  observation rows whose ``deps`` are already folded start as fork
  children (:func:`stage_children_allowed`: more than one CPU, no other
  thread): after ``attacks``, telescope and honeypot run beside
  migration and measurement. Every stage, wherever it ran, ends as one
  :class:`StageRecord`, and the records are folded into the run in table
  order, joining a child when a row reads its stage (fusion); the
  telemetry a child recorded comes home with its record. With a task
  deadline armed, every observation stage runs as a stage child under
  that watchdog deadline: one not started ahead forks at its own turn
  and is joined before the next row starts;

* **a frozen heap** — once ``internet`` and ``attacks`` are folded, the
  garbage collector's permanent generation takes them (``gc.freeze()``),
  so later collections, here and in the stage children forked after,
  do not walk them again. ``run()`` unfreezes however it ends, and a
  run whose caller had frozen objects itself freezes nothing;

* **timing** — every stage's wall time and attempt count is recorded in a
  :class:`~repro.pipeline.quality.StageReport`;
* **retry with backoff** — :class:`TransientStageError` (the injectable
  stand-in for a flaky collector, full disk, or dropped connection) is
  retried up to ``RetryPolicy.max_attempts`` times with exponential
  backoff, rolling back the counters the stage owns;
* **checkpointing** — completed stage outputs are kept, so a run that died
  mid-pipeline resumes from the first incomplete stage. With a
  ``run_dir`` they are persisted through
  :class:`~repro.store.CheckpointStore` (atomic, checksummed,
  schema-versioned), so even a SIGKILLed *process* resumes
  (``python -m repro resume``) from every checkpoint whose row ``deps``
  validated;
* **graceful degradation** — an observation stage (a row with ``empty``)
  that stays broken yields its *empty but correctly typed* output plus a
  quality flag, and the run completes with honest, quantified losses.
  Observation stages also get the cross-run stage cache. Core stages
  (internet, attacks, migration, fusion) still fail the run.

A :class:`~repro.faults.plan.FaultPlan` wires per-feed injectors into the
observation stages and can schedule transient stage failures, which makes
the whole failure envelope reproducible from two integers (scenario seed,
fault seed). Because every stage function is deterministic given the
scenario config, a resumed run produces byte-identical headline output to
an uninterrupted one; injector loss counters are persisted alongside the
checkpoints so even the feed-quality accounting survives the crash.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.catalog import STAGE_ORDER
from repro.dns.openintel import OpenIntelDataset
from repro.dps.detection import DPSUsageDataset
from repro.exec.deadline import RunDeadline
from repro.exec.interrupt import InterruptGuard
from repro.exec.pool import STATUS_DEADLINE, SupervisedPool, TaskSpec
from repro.exec.retry import RetryPolicy
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
from repro.obs import Telemetry, TelemetryDelta, get_telemetry
from repro.obs.metrics import NULL_REGISTRY
from repro.pipeline.config import ScenarioConfig
from repro.pipeline.quality import (
    DataQualityReport,
    FeedQuality,
    HeadlineMetrics,
    STATUS_DOWN,
    StageReport,
    feed_status,
)
from repro.store.checkpoint import (
    STORE_SCHEMA_VERSION,
    CheckpointError,
    CheckpointIssue,
    CheckpointStore,
)
from repro.pipeline import simulation as sim
from repro.pipeline.simulation import SimulationResult

#: A stage's outputs so far, keyed by stage name.
Outputs = Dict[str, Any]

#: Bump when the same scenario starts producing different stage outputs
#: (v2: per-attack random streams), so every stage cache entry misses.
STAGE_CACHE_SCHEMA = 2


def stage_fingerprint(config: ScenarioConfig, stage: str) -> str:
    """SHA-256 identity of one stage output: the scenario (every field),
    the stage name and the store and cache schema versions, hashed as
    canonical JSON so the digest is stable across processes."""
    document = {
        "scenario": asdict(config),
        "stage": stage,
        "store_schema": STORE_SCHEMA_VERSION,
        "cache_schema": STAGE_CACHE_SCHEMA,
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Stage:
    """One row of the pipeline table.

    ``run(pipeline, outputs)`` binds the stage's inputs, read from the
    outputs of its ``deps`` by name, and returns one attempt: a
    zero-argument callable computing the stage's output, called once
    per attempt. ``counters`` are the injector-counter prefixes the
    stage owns: a failed attempt rolls them back and its checkpoint
    persists them. ``empty(config)`` is the typed output of a stage
    that stayed down; a row with one is an *observation* stage.
    """

    name: str
    deps: Tuple[str, ...]
    run: Callable[["ResilientPipeline", Outputs], Callable[[], Any]]
    counters: Tuple[str, ...] = ()
    empty: Optional[Callable[[ScenarioConfig], Any]] = None


def stage_children_allowed() -> bool:
    """Whether observation stages may run as fork children beside the
    runner: there is more than one CPU to run them on, and no other
    thread is alive (a fork copies every lock as it stands, so a lock
    another thread holds would deadlock the child)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        cpus = os.cpu_count() or 1
    return cpus > 1 and threading.active_count() == 1


@dataclass
class StageRecord:
    """One stage's outcome, wherever it was computed (this process, or
    the stage's fork child, whence it is pickled home). The runner folds
    it into the run in table order (``ResilientPipeline._fold``)."""

    #: ``cached``, ``cache-hit``, ``ok``, ``degraded`` or ``failed``.
    status: str
    output: Any = None
    attempts: int = 0
    elapsed: float = 0.0
    error: Optional[Exception] = None
    #: The injector counters the stage owns, as its last attempt left them.
    counters: Dict[str, int] = field(default_factory=dict)
    #: What a fork child recorded, added to the run's telemetry at the join.
    telemetry: Optional[TelemetryDelta] = None
    #: What escaped the stage in a fork child (a deadline, an interrupt,
    #: a bug); the parent raises it at the join.
    raised: Optional[BaseException] = None


def _migrate(pipeline: "ResilientPipeline", out: Outputs) -> Callable[[], Any]:
    internet = out["internet"]
    # Migration mutates internet.zones in place, so the stage's checkpoint
    # must carry the *post-migration* internet: a resumed process
    # restoring this stage would otherwise hand later stages the stale
    # pre-migration snapshot. Bundling all three into one payload also
    # keeps the references diversion_log and ledger share with the zones
    # consistent across the pickle round-trip.
    return lambda: (
        *sim.run_migration(pipeline.config, internet, out["attacks"]),
        internet,
    )


#: The pipeline, in :data:`~repro.catalog.STAGE_ORDER`. ``deps`` are the
#: actual data dependencies, which the sequential order overstates: the
#: three observation stages read only the attack / migration layers, not
#: each other, so a corrupt telescope checkpoint does not cost a valid
#: honeypot one on resume (see :meth:`CheckpointStore.load_valid_graph`),
#: and the feeds can run as fork children beside migration.
STAGES: Tuple[Stage, ...] = (
    Stage(
        "internet", (),
        lambda p, out: lambda: sim.build_internet(p.config),
    ),
    Stage(
        "attacks", ("internet",),
        lambda p, out: lambda: sim.schedule_attacks(p.config, out["internet"]),
    ),
    Stage("migration", ("internet", "attacks"), _migrate),
    Stage(
        "telescope", ("attacks",),
        lambda p, out: p._observe(out, p._observe_telescope),
        counters=("telescope.",),
        empty=lambda config: [],
    ),
    Stage(
        "honeypot", ("attacks",),
        lambda p, out: p._observe(out, p._observe_honeypot),
        counters=("honeypot.",),
        empty=lambda config: [],
    ),
    Stage(
        "measurement", ("migration",),
        lambda p, out: lambda: p._measure(out["migration"]),
        counters=("openintel.", "dps."),
        empty=lambda config: (
            OpenIntelDataset(
                n_days=config.n_days,
                zone_stats=[],
                hosting_intervals=[],
                first_seen={},
            ),
            DPSUsageDataset(usages=[], n_days=config.n_days),
        ),
    ),
    Stage(
        "fusion", ("migration", "telescope", "honeypot", "measurement"),
        lambda p, out: lambda: sim.fuse_observations(
            out["migration"][2],  # the post-migration internet
            out["telescope"],
            out["honeypot"],
            out["measurement"][0],
            layer=p._layers("fusion"),
        ),
    ),
)

#: Stages whose outputs live for the rest of the run: the garbage
#: collector's permanent generation takes them once folded.
LONG_LIVED_STAGES = ("internet", "attacks")

#: The observation stages: degradable to an empty feed, cacheable, run
#: as fork children when their inputs are ready before their turn, and
#: always as watched fork children when a task deadline is armed.
OBSERVATION_STAGES = tuple(
    row.name for row in STAGES if row.empty is not None
)

#: How each stage outcome is logged.
_OUTCOME_LOG = {
    "cached": ("debug", "stage served from checkpoint"),
    "cache-hit": ("info", "stage served from stage cache"),
    "ok": ("info", "stage completed"),
    "degraded": ("error", "stage degraded to empty feed"),
    "failed": ("error", "stage failed permanently"),
}


class TransientStageError(RuntimeError):
    """A stage failure worth retrying (collector hiccup, not a bug)."""


class StageFailedError(RuntimeError):
    """A core stage exhausted its retries; the run cannot continue."""

    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"stage {stage!r} failed permanently: {cause}")
        self.stage = stage
        self.cause = cause


class ResilientPipeline:
    """Supervised execution of the simulation with optional fault plan.

    With a ``run_dir`` the pipeline is *durable*: every completed stage is
    checkpointed to disk and a fresh process pointed at the same directory
    (``python -m repro resume``) restores every checkpoint whose checksum
    verifies and whose dependencies were restored, and reruns the rest.
    ``crash_after`` is the
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
        telemetry: Optional[Telemetry] = None,
        stage_cache: Optional[Union[str, Path]] = None,
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
        self.checkpoint_issues: List[CheckpointIssue] = []
        self._checkpoints: Dict[str, Any] = {}
        self._pending_failures = self.plan.transient_failure_counts()
        self._degraded_stages: set = set()
        self._sleep = sleep if sleep is not None else time.sleep
        self._log = get_logger("runner")
        self.crash_after = crash_after
        #: Watchdog deadline of each observation stage's child (None:
        #: a stage forks only when it can run beside another).
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
        # Cross-run stage cache: a checkpoint store whose entry names
        # carry the fingerprint, only consulted for fault-free plans
        # (outputs are then pure functions of the scenario config) and
        # only for the observation stages. Its store counts nothing, so
        # checkpoint_* keeps counting run-dir checkpoints alone.
        self.stage_cache: Optional[CheckpointStore] = None
        if stage_cache is not None:
            self._m_cache_hits = metrics.counter(
                "stage_cache_hits_total",
                "stage outputs served from the cross-run cache",
                ("stage",),
            )
            self._m_cache_misses = metrics.counter(
                "stage_cache_misses_total",
                "stage cache lookups that fell through to compute",
                ("stage",),
            )
            self._m_cache_read = metrics.counter(
                "stage_cache_bytes_read_total",
                "payload bytes served from the stage cache",
            )
            self._m_cache_written = metrics.counter(
                "stage_cache_bytes_written_total",
                "payload bytes written into the stage cache",
            )
            if self.plan.is_benign() and not self.exec_faults.faults:
                self.stage_cache = CheckpointStore(
                    stage_cache, metrics=NULL_REGISTRY
                )
        #: The watchdog over every stage child; exec_* count them.
        self._stage_pool = SupervisedPool(
            metrics=metrics, clock=self._obs_clock
        )
        #: Stage children started and not yet joined, by stage.
        self._children: Dict[str, Any] = {}
        #: Records computed (or served) ahead of their fold, by stage.
        self._records: Dict[str, StageRecord] = {}
        #: The victim partitions of the running pipeline, once bucketed.
        self._partitions: Optional[List[list]] = None
        #: The span of the stage the executor is running.
        self._stage_span: Any = None
        #: Whether this run freezes its long-lived outputs (set by run).
        self._freeze_heap = False
        self.store: Optional[CheckpointStore] = None
        if run_dir is not None:
            self.store = CheckpointStore(run_dir, metrics=metrics)
            self._restore_from_store()

    # -- durable state --------------------------------------------------------

    def _restore_from_store(self) -> None:
        """Adopt every checkpoint whose dependencies survived validation."""
        payloads, issues = self.store.load_valid_graph(
            STAGE_ORDER, {row.name: row.deps for row in STAGES}
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

    def _own_counters(self, row: Stage) -> Dict[str, Any]:
        """The injector counters *row* owns, by key."""
        return {
            key: value
            for key, value in self.injectors.counters().items()
            if key.startswith(row.counters)
        }

    def _persist_stage(self, row: Stage) -> None:
        """Checkpoint a completed stage and the resumable runner state."""
        if self.store is None:
            return
        name = row.name
        self.store.save(name, self._checkpoints[name])
        state = self.store.read_json(self.STATE_FILE) or {}
        state.setdefault("stage_state", {})[name] = {
            "own_counters": self._own_counters(row),
            "degraded_stages": sorted(self._degraded_stages),
        }
        self.store.write_json(self.STATE_FILE, state)
        if self.crash_after == name:
            self._log.error(
                "simulated hard crash (recovery drill)", stage=name
            )
            self._cancel_children("crash drill")
            os._exit(137)  # SIGKILL semantics: no cleanup, no atexit

    # -- orchestration --------------------------------------------------------

    def run(
        self, baseline: Optional[HeadlineMetrics] = None
    ) -> SimulationResult:
        """Run (or resume) the pipeline; returns a result with ``quality``."""
        with self._tracer.span("run", n_days=self.config.n_days):
            self.stage_reports = []
            # A caller that froze objects owns the permanent generation.
            self._freeze_heap = gc.get_freeze_count() == 0
            try:
                self._run_stages(self._checkpoints)
            finally:
                # No stage child outlives the run, however it ends, and
                # no frozen object either: a process may run many.
                self._cancel_children("run ended")
                self._records.clear()
                self._partitions = None
                if self._freeze_heap:
                    gc.unfreeze()
            result = self._result(self._checkpoints)
            result.quality = self._build_quality(result, baseline)
            return result

    def _run_stages(self, out: Outputs) -> None:
        """Every row's record, folded into *out* in table order.

        A row that computes here first starts the later observation rows
        whose inputs are already folded as fork children
        (:meth:`_start_ahead`). A record computed before an earlier row's
        child delivered waits in the queue, and a row that reads a queued
        stage joins the children up to it. So the artifacts a stage
        leaves (report, log, checkpoint, crash drill) come in table
        order whichever process computed it.
        """
        queue: List[Stage] = []  # rows awaiting their fold, in table order
        for index, row in enumerate(STAGES):
            if any(queued.name in row.deps for queued in queue):
                self._fold_queue(queue, out, join=True)
            name = row.name
            if name not in self._children and name not in self._records:
                record = self._served(row, out)
                if record is None:
                    self._start_ahead(index, out)
                    if row.empty is None or self.task_deadline is None:
                        record = self._compute(row, row.run(self, out))
                    else:
                        # Watched but not started ahead: it forks and is
                        # joined at its turn, one stage at a time.
                        self._fork(row, row.run(self, out))
                        record = self._join(row, out)
                self._records[name] = record
            queue.append(row)
            self._fold_queue(queue, out, join=False)
        self._fold_queue(queue, out, join=True)

    def _fold_queue(
        self, queue: List[Stage], out: Outputs, join: bool
    ) -> None:
        """Fold queued rows in order while the head's record is at hand;
        with *join*, wait for each head's child until the queue is empty."""
        while queue:
            row = queue[0]
            if row.name in self._children:
                if not join:
                    return
                self._records[row.name] = self._join(row, out)
            queue.pop(0)
            self._fold(row, self._records.pop(row.name), out)

    def _start_ahead(self, index: int, out: Outputs) -> None:
        """Start, as fork children that run beside row *index*, the later
        observation rows whose inputs are all folded.

        Only when :func:`stage_children_allowed`. A row already restored
        from a checkpoint is left for its turn; the stage cache is read
        here, so a hit is adopted and only a miss forks. Each child's
        attempt is bound here, before its fork, so the feed stages'
        victim partitions are bucketed once and both children share them
        copy-on-write.
        """
        if not stage_children_allowed():
            return
        for row in STAGES[index + 1:]:
            name = row.name
            if (
                row.empty is None
                or name in out
                or name in self._children
                or name in self._records
                or not all(dep in out for dep in row.deps)
            ):
                continue
            record = self._served(row, out)
            if record is not None:
                self._records[name] = record
                continue
            self._fork(row, row.run(self, out))

    def _fork(
        self,
        row: Stage,
        attempt: Callable[[], Any],
        spent: int = 0,
        lost: Optional[Exception] = None,
    ) -> None:
        """Start row's stage child, attempting from attempt *spent* + 1
        (see :meth:`_compute`). The watchdog kills it at the task
        deadline, or sooner when the run deadline falls due: a hung
        child cannot out-sleep the run."""
        limits = (self.task_deadline, self.deadline.remaining())
        self._children[row.name] = self._stage_pool.start(
            TaskSpec(
                name=row.name,
                fn=lambda: self._child_record(row, attempt, spent, lost),
                deadline=min(
                    (limit for limit in limits if limit is not None),
                    default=None,
                ),
            )
        )

    def _child_record(
        self,
        row: Stage,
        attempt: Callable[[], Any],
        spent: int,
        lost: Optional[Exception],
    ) -> StageRecord:
        """A stage child's whole job: the stage's record, carrying the
        telemetry the child recorded and whatever escaped the stage."""
        mark = self.telemetry.fork_mark()
        try:
            record = self._compute(row, attempt, spent, lost, in_child=True)
        except BaseException as exc:  # noqa: BLE001 - the parent re-raises it
            record = StageRecord("failed", raised=exc)
        record.telemetry = self.telemetry.since(mark, thread=row.name)
        return record

    def _join(self, row: Stage, out: Outputs) -> StageRecord:
        """Wait for row's stage child and take its record home.

        A deadline, interrupt or error that escaped the stage in the
        child is raised here. A child killed at the run deadline raises
        that deadline; one killed at the task deadline, or that died
        without delivering, is one failed attempt. The stage's remaining
        attempts run in a fresh child when a task deadline is armed, and
        in this process otherwise.
        """
        name = row.name
        spent = 0
        while True:
            outcome = self._stage_pool.wait(self._children.pop(name))
            if outcome.ok:
                record = outcome.value
                self.telemetry.absorb(record.telemetry)
                if record.raised is not None:
                    raise record.raised
                return record
            if outcome.status == STATUS_DEADLINE:
                self.deadline.check(f"stage {name!r}")
            spent += 1
            lost = TransientStageError(
                f"stage {name!r} child {outcome.status}: {outcome.error}"
            )
            self._m_attempts.inc(stage=name)
            self._attempt_failed(name, spent, lost)
            attempt = row.run(self, out)
            if self.task_deadline is None or spent == self.retry.max_attempts:
                return self._compute(row, attempt, spent, lost)
            self._fork(row, attempt, spent, lost)

    def _cancel_children(self, reason: str) -> None:
        """Kill and reap every stage child still running."""
        for worker in self._children.values():
            self._stage_pool.cancel(worker, reason)
        self._children.clear()

    def _result(self, out: Outputs) -> SimulationResult:
        """The run's result, from the stage outputs by name."""
        diversion_log, ledger, internet = out["migration"]
        openintel, dps_usage = out["measurement"]
        fused, web_index = out["fusion"]
        return SimulationResult(
            config=self.config,
            topology=internet.topology,
            census=internet.census,
            ecosystem=internet.ecosystem,
            zones=internet.zones,
            providers=internet.providers,
            ns_directory=internet.ns_directory,
            diversion_log=diversion_log,
            ledger=ledger,
            ground_truth=out["attacks"],
            telescope_events=out["telescope"],
            honeypot_events=out["honeypot"],
            fused=fused,
            openintel=openintel,
            dps_usage=dps_usage,
            web_index=web_index,
        )

    def _served(self, row: Stage, out: Outputs) -> Optional[StageRecord]:
        """Row's record without computing it: its restored checkpoint, or,
        for an observation stage, its stage-cache entry."""
        if row.name in out:
            return StageRecord("cached")
        key = self._cache_key(row)
        if key is None:
            return None
        return self._from_cache(row.name, key)

    def _cache_key(self, row: Stage) -> Optional[str]:
        """Row's stage-cache entry name (None: the row is not cached)."""
        if row.empty is None or self.stage_cache is None:
            return None
        return f"{row.name}-{stage_fingerprint(self.config, row.name)}"

    def _compute(
        self,
        row: Stage,
        attempt: Callable[[], Any],
        spent: int = 0,
        lost: Optional[Exception] = None,
        in_child: bool = False,
    ) -> StageRecord:
        """Attempt one bound row under retry and faults: its record, ok
        or (after the last attempt) degraded or failed.

        Runs in this process or, *in_child*, in the row's fork child.
        The first *spent* attempts were already lost by stage children
        that never delivered, the last of them to *lost*.
        """
        name = row.name
        with self._tracer.span("stage", stage=name) as span:
            with self._profiler.profile(name) as prof:
                self.deadline.check(f"stage {name!r}")
                self.interrupt.check(f"stage {name!r}")
                self._log.debug("stage starting", stage=name)
                start = time.perf_counter()
                obs_start = self._obs_clock()
                self._stage_span = span
                status = "failed" if row.empty is None else "degraded"
                output: Any = None
                attempts, error = spent, lost
                while attempts < self.retry.max_attempts:
                    label = f"stage {name!r} attempt {attempts + 1}"
                    self.deadline.check(label)
                    self.interrupt.check(label)
                    attempts += 1
                    self._m_attempts.inc(stage=name)
                    # An attempt that fails after partially running
                    # has already folded losses into the injector
                    # counters; the retry regenerates them, so they are
                    # rolled back first.
                    counter_baseline = self._own_counters(row)
                    try:
                        with self._tracer.span(
                            "attempt", stage=name, attempt=attempts
                        ):
                            self._maybe_inject_failure(name)
                            # Hung hangs until a watchdog kills the
                            # stage's child, or for good in the runner.
                            apply_exec_fault(
                                self.exec_faults.lookup(name, attempts),
                                worker=in_child,
                            )
                            output = attempt()
                    except (
                        TransientStageError,
                        PoisonShardError,
                        WorkerCrashError,
                    ) as exc:
                        error = exc
                        if counter_baseline:
                            self.injectors.restore_counters(counter_baseline)
                        self._attempt_failed(name, attempts, exc)
                        continue
                    status, error = "ok", None
                    break
                if status == "ok":
                    # Event lists count their records; composites 0.
                    prof.set_events(
                        len(output) if isinstance(output, list) else 0
                    )
                self._m_stage_seconds.observe(
                    self._obs_clock() - obs_start, stage=name
                )
                span.set_attr(status=status, attempts=attempts)
                return StageRecord(
                    status,
                    output=output if status == "ok" else None,
                    attempts=attempts,
                    elapsed=time.perf_counter() - start,
                    error=error,
                    counters=self._own_counters(row),
                )

    def _attempt_failed(self, name: str, attempt: int, exc: Exception) -> None:
        """Count and log a failed attempt, then back off before the next."""
        self._m_attempt_failures.inc(stage=name)
        self._log.warning(
            "stage attempt failed",
            stage=name,
            attempt=attempt,
            max_attempts=self.retry.max_attempts,
            error=str(exc),
        )
        if attempt < self.retry.max_attempts:
            self._sleep(self.retry.delay(attempt))

    def _fold(self, row: Stage, record: StageRecord, out: Outputs) -> None:
        """Adopt one stage's record into the run: its output (the typed
        empty one for a degraded stage), its injector counters, the
        stage-cache save, then the settle; a failed core stage fails the
        run. The parent does all of it, whichever process computed it."""
        name, status = row.name, record.status
        if status in ("ok", "cache-hit"):
            out[name] = record.output
        elif status == "degraded":
            out[name] = row.empty(self.config)
            self._degraded_stages.add(name)
        self.injectors.restore_counters(record.counters)
        key = self._cache_key(row)
        if status == "ok" and key is not None:
            # Degraded outputs never enter the cache: they reflect a
            # failure, not the scenario.
            manifest = self.stage_cache.save(key, record.output)
            self._m_cache_written.inc(manifest.payload_bytes)
        self._settle(
            row, status, record.attempts, record.elapsed, record.error
        )
        if status == "failed":
            raise StageFailedError(name, record.error)
        if name in LONG_LIVED_STAGES and self._freeze_heap:
            # Later collections skip what is frozen, and the feed
            # children, forked after attacks, inherit it frozen.
            gc.freeze()

    def _from_cache(self, name: str, key: str) -> Optional[StageRecord]:
        """Stage *name*'s cache-hit record from cache entry *key*.

        An entry that does not verify (absent, poisoned, renamed, written
        by another schema) is a miss: it is discarded and the stage
        recomputes, and that run's save writes a fresh entry.
        """
        try:
            output = self.stage_cache.load(key)
        except CheckpointError as exc:
            self._m_cache_misses.inc(stage=name)
            if exc.kind != "missing":
                self._log.warning(
                    "cache entry rejected", stage=name, kind=exc.kind,
                    reason=exc.reason,
                )
            self.stage_cache.discard(key)
            return None
        # Adopted exactly like a computed output, so resume checkpoints
        # (and crash drills) behave as uncached.
        self._m_cache_hits.inc(stage=name)
        self._m_cache_read.inc(self.stage_cache.manifest(key).payload_bytes)
        return StageRecord("cache-hit", output=output)

    def _settle(
        self,
        row: Stage,
        status: str,
        attempts: int = 0,
        elapsed: float = 0.0,
        error: Optional[Exception] = None,
    ) -> None:
        """Every stage outcome's one ending: outcome metric, report, log,
        and a checkpoint for each newly adopted output."""
        name = row.name
        self._m_outcomes.inc(stage=name, status=status)
        self.stage_reports.append(
            StageReport(
                name=name,
                status=status,
                attempts=attempts,
                elapsed=elapsed,
                # The type too: a poisoned input reads PoisonShardError.
                error=(
                    None if error is None
                    else f"{type(error).__name__}: {error}"
                ),
            )
        )
        fields: Dict[str, Any] = {"stage": name}
        if attempts:
            fields["attempts"] = attempts
            if error is None:
                fields["elapsed"] = round(elapsed, 3)
            else:
                fields["error"] = str(error)
        level, event = _OUTCOME_LOG[status]
        getattr(self._log, level)(event, **fields)
        if status not in ("cached", "failed"):
            self._persist_stage(row)

    # -- observation stages ---------------------------------------------------

    def _observe(
        self, out: Outputs, observe: Callable[[List[list]], Any]
    ) -> Callable[[], Any]:
        """Bind a feed stage to the victim partitions: bucketed once per
        run, by the first feed stage bound, in the runner's process (a
        feed restored from a checkpoint or the stage cache needs none)."""
        if self._partitions is None:
            # Partition k holds the attacks on victims v with v % n == k.
            attacks = out["attacks"]
            self._partitions = sim.partition_attacks(
                attacks, sim.partition_count(len(attacks))
            )
        partitions = self._partitions
        return lambda: observe(partitions)

    def _observe_telescope(self, partitions: List[list]) -> list:
        config = self.config
        return self._observe_feed(
            "telescope",
            partitions,
            lambda: sim.telescope_noise(config, len(partitions)),
            lambda attacks, noise: sim.telescope_capture(
                config, attacks, noise=noise, fault=self.injectors.telescope
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
        (DESIGN.md section 6). Synthesis and fault filtering run in the
        stage's process (the runner's, or the stage's fork child, whose
        record carries the counters home), so the injector's loss
        counters add up across partitions. Each layer gets
        one child span per partition and one profile entry per stage,
        summed over the partitions.
        """
        if self._stage_span is not None:
            self._stage_span.set_attr(partitions=len(partitions))
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
                shards.append(detect(config, capture))
            del capture  # before the next partition's synthesis allocates
        return merge(shards)

    @contextmanager
    def _layer(
        self, stage: str, layer: str, partition: Optional[int] = None
    ) -> Iterator[Callable[[int], None]]:
        """One child span of a stage layer (one per victim partition in
        an observation stage), folded into the stage's ``stage.layer``
        profile entry; yields a setter for the layer's input row count."""
        attrs: Dict[str, Any] = {"stage": stage}
        if partition is not None:
            attrs["partition"] = partition
        with self._tracer.span(layer, **attrs) as span:
            with self._profiler.profile(
                f"{stage}.{layer}", accumulate=True
            ) as prof:

                def set_rows(count: int) -> None:
                    span.set_attr(rows=count)
                    prof.set_rows(count)

                yield set_rows

    def _layers(self, stage: str) -> "sim.LayerHook":
        """The layer hook a stage function takes: its named pieces become
        ``stage.<layer>`` profile entries and child spans."""
        return lambda layer: self._layer(stage, layer)

    def _measure(self, migration: Any) -> Any:
        """DNS measurement of the post-migration Internet, then its
        faults, which mutate injector counters. Its ``crawl`` and
        ``classify`` layers are recorded wherever the stage runs."""
        diversion_log, _, internet = migration
        openintel, dps_usage = sim.measure_dns(
            self.config, internet, diversion_log,
            layer=self._layers("measurement"),
        )
        return sim.apply_dns_faults(
            openintel,
            dps_usage,
            openintel_fault=self.injectors.openintel,
            dps_fault=self.injectors.dps,
        )

    def _maybe_inject_failure(self, name: str) -> None:
        remaining = self._pending_failures.get(name, 0)
        if remaining > 0:
            self._pending_failures[name] = remaining - 1
            raise TransientStageError(
                f"injected transient failure in stage {name!r}"
            )

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
            headline=headline,
            baseline=baseline,
            plan_description=plan.describe(),
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
        # A stage that died takes its feed out, whatever the plan says.
        down = stage in self._degraded_stages
        return FeedQuality(
            feed=feed,
            uptime=0.0 if down else uptime,
            events_observed=observed,
            events_dropped=dropped,
            status=STATUS_DOWN if down else feed_status(uptime, dropped),
            detail=(
                "stage failed permanently; empty feed substituted"
                if down
                else detail
            ),
        )

