"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate`` — run a scenario and print the Table 1 summary (optionally
  saving the fused event data set as JSON Lines). With ``--run-dir`` the
  run is *durable*: every completed stage is checkpointed to disk, so a
  killed process can be restarted with ``resume``;
* ``resume``   — restart a killed durable run from its last valid on-disk
  checkpoint (checksums verified; a corrupt checkpoint falls back to the
  previous stage) and produce the same output the uninterrupted run
  would have;
* ``report``   — run a scenario and regenerate the paper's full evaluation
  (all tables and figures), to stdout or a directory;
* ``headline`` — the fast path to the paper's headline ratios;
* ``robustness`` — degraded-mode runs under a fault plan: each feed forced
  down in turn (or one mixed standard plan), with a per-feed
  ``DataQualityReport`` and headline-ratio drift vs. the fault-free run;
* ``validate`` — load a JSONL event feed through the record validator,
  quarantining malformed/duplicate/out-of-range records to a per-feed
  dead-letter file with reason codes;
* ``chaos``    — run the executor's chaos drill: a full pipeline under each
  injected execution fault (hung worker, slow worker, worker crash,
  poisoned stage input) must recover byte-identically or degrade
  visibly, never hang (``--quick`` is the CI smoke variant). With
  ``--serve`` the drill targets the live service instead: ingest burst,
  slow consumer, and a kill -9 of a real serve subprocess with a
  state-equivalence verdict.
  With ``--serve-cluster`` it drills the replication cluster: the
  primary is SIGKILLed mid-burst, a follower is promoted, and the
  verdict checks zero acked-record loss, digest equivalence against a
  truncated replay of the dead primary's WAL, and epoch fencing;
* ``serve``    — run the live ingestion service: accepted events are
  WAL-logged before acknowledgment, state is snapshotted on a rolling
  schedule, and a killed process recovers on restart value-identical to
  an uninterrupted run. SIGTERM drains gracefully and exits 0. With
  ``--replica-of URL`` the node is a read-only follower streaming the
  primary's WAL; ``serve-promote`` makes a follower the new primary;
* ``top``      — live ops console over a running cluster: polls each
  node's ``/status`` and the primary's ``/metrics/history`` and renders
  a dashboard frame per interval (``--once`` for CI and scripts).

``simulate`` and ``resume`` accept the supervision knobs:
``--task-deadline`` runs each observation stage (telescope, honeypot,
DNS measurement) as one watched fork child, killed when it overruns and
its remaining attempts run in a fresh child (the output is
byte-identical either way), and ``--deadline`` aborts the run cleanly
once the budget is spent: checkpoints are already flushed, the run dir
stays resumable, and the process exits with code 124 (the ``timeout(1)``
convention, distinct from a crash). Bad supervision input (a malformed
``--exec-fault`` spec, a non-positive deadline) exits 2.

Durable runs also handle SIGINT/SIGTERM deliberately: the first signal
stops the run at the next stage boundary (the in-progress stage either
finalizes its checkpoint or is abandoned whole), the run dir stays
resumable, and the process exits ``128 + signum`` (130 for Ctrl-C, 143
for SIGTERM) — distinct from both the deadline abort and a crash. A
second signal kills immediately.

Global ``--verbose`` / ``--log-json`` flags wire structured logging
(:mod:`repro.log`) through the runner, the checkpoint store and the
validation layer — recovery without logs is guesswork.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

# Only what building the parser needs is imported here; each command
# imports what it runs, so `serve` and `--help` never load the batch
# pipeline (or numpy).
from repro.catalog import PRESETS, REPORT_ORDER, STAGE_ORDER
from repro.faults.plan import ALL_FEEDS
from repro.log import configure_logging, get_logger

if TYPE_CHECKING:
    from repro.faults.exec import ExecFaultPlan
    from repro.obs import Telemetry
    from repro.pipeline.config import ScenarioConfig

log = get_logger("cli")

#: Exit code when ``--deadline`` expires: the ``timeout(1)`` convention,
#: distinguishable from a crash (137) and an ordinary failure (1).
EXIT_DEADLINE = 124

#: Run-dir document recording how a durable run was started, so ``resume``
#: can rebuild the exact scenario without the original command line.
META_FILE = "meta.json"
#: v2: captures draw from per-attack random streams, so a v1 run dir's
#: checkpoints come from other streams and must not be resumed.
META_VERSION = 2

#: The fused event data set a completed durable run leaves in its run dir.
EVENTS_FILE = "events.jsonl"


def _add_exec_args(sub: argparse.ArgumentParser) -> None:
    """Supervision knobs shared by ``simulate`` and ``resume``."""
    sub.add_argument(
        "--task-deadline", type=float, default=None, metavar="SECONDS",
        help="run each observation stage (telescope, honeypot, DNS "
             "measurement) as one watched fork child; one still running "
             "after SECONDS is killed and its stage retried",
    )
    sub.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="whole-run time budget: abort cleanly when spent, leaving "
             f"a resumable run dir (exit code {EXIT_DEADLINE})",
    )
    sub.add_argument(
        "--exec-fault", action="append", default=None, metavar="SPEC",
        help="inject an execution fault, kind:stage[:attempts] with kind "
             "one of hung/slow/crash/poison (repeatable; fault drills)",
    )
    sub.add_argument(
        "--stage-cache", type=Path, default=None, metavar="DIR",
        help="content-addressed cross-run cache of observation-stage "
             "outputs: a re-run with the same scenario serves them from "
             "DIR instead of recomputing (fault-free runs only)",
    )
    _add_metrics_arg(sub)


def _add_metrics_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--metrics", action="store_true",
        help="enable telemetry: with --run-dir, write metrics.json, "
             "trace.json, trace.jsonl and profile.json there; otherwise "
             "print the Prometheus text exposition after the run",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Millions of Targets Under Attack' (IMC 2017)",
    )
    parser.add_argument(
        "--preset", choices=sorted(PRESETS), default="small",
        help="scenario scale (default: small)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="log per-stage progress (DEBUG level) to stderr",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit logs as JSON lines instead of console text",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="run a scenario and summarize the data sets"
    )
    simulate.add_argument(
        "--save-events", type=Path, default=None, metavar="FILE",
        help="write the fused event data set as JSON Lines",
    )
    simulate.add_argument(
        "--run-dir", type=Path, default=None, metavar="DIR",
        help="durable run: checkpoint each stage to DIR so a killed run "
             "can be restarted with 'resume'",
    )
    simulate.add_argument(
        "--crash-after", choices=STAGE_ORDER, default=None, metavar="STAGE",
        help="recovery drill: hard-kill the process (exit 137, no cleanup) "
             "right after STAGE's checkpoint reaches disk "
             "(requires --run-dir)",
    )
    _add_exec_args(simulate)

    resume = subparsers.add_parser(
        "resume",
        help="restart a killed durable run from its last valid checkpoint",
    )
    resume.add_argument(
        "run_dir", type=Path, metavar="RUN_DIR",
        help="run directory of an interrupted 'simulate --run-dir' run",
    )
    _add_exec_args(resume)

    validate = subparsers.add_parser(
        "validate",
        help="validate a JSONL event feed, quarantining bad records",
    )
    validate.add_argument(
        "events_file", type=Path, metavar="FILE",
        help="JSON Lines event feed to validate",
    )
    validate.add_argument(
        "--quarantine", type=Path, default=None, metavar="FILE",
        help="dead-letter JSONL for rejected records "
             "(default: <FILE>[.<feed>].quarantine.jsonl)",
    )
    validate.add_argument(
        "--feed", default="", metavar="NAME",
        help="feed the file belongs to; namespaces the default "
             "dead-letter file so several feeds validated into one "
             "directory cannot clobber each other's quarantine",
    )
    validate.add_argument(
        "--strict", action="store_true",
        help="fail on the first bad record instead of quarantining",
    )

    report = subparsers.add_parser(
        "report", help="regenerate every table and figure, or render a "
                       "run directory's flight report (--run-dir)"
    )
    report.add_argument(
        "--out-dir", type=Path, default=None, metavar="DIR",
        help="write one text file per artifact instead of stdout",
    )
    report.add_argument(
        "--only", nargs="*", default=None, metavar="ID",
        help=f"subset of artifacts (ids: {', '.join(REPORT_ORDER)})",
    )
    report.add_argument(
        "--run-dir", type=Path, default=None, metavar="DIR",
        help="flight report: summarize a finished run's telemetry "
             "artifacts (stages, retries, kills, drops)",
    )

    subparsers.add_parser("headline", help="print the headline ratios")

    robustness = subparsers.add_parser(
        "robustness",
        help="run with injected faults and print data-quality reports",
    )
    robustness.add_argument(
        "--plan", choices=("sweep", "standard"), default="sweep",
        help="'sweep' forces each feed down in turn; 'standard' runs one "
             "mixed realistic fault plan (default: sweep)",
    )
    robustness.add_argument(
        "--feed", choices=sorted(ALL_FEEDS) + ["all"], default="all",
        help="restrict the sweep to one feed (default: all)",
    )
    robustness.add_argument(
        "--fault-seed", type=int, default=7,
        help="seed for the standard fault plan (default: 7)",
    )
    robustness.add_argument(
        "--timings", action="store_true",
        help="include per-stage wall times (non-deterministic output)",
    )

    chaos = subparsers.add_parser(
        "chaos",
        help="drill the executor's failure envelope (hung/slow/crashed "
             "workers, poisoned stage input) against a serial baseline",
    )
    chaos.add_argument(
        "--quick", action="store_true",
        help="CI smoke variant: skip the slow-worker soak scenario",
    )
    chaos.add_argument(
        "--scenario-budget", type=float, default=120.0, metavar="SECONDS",
        help="hard per-scenario time budget; a scenario that exceeds it "
             "fails instead of hanging the drill (default: 120)",
    )
    chaos.add_argument(
        "--run-dir", type=Path, default=None, metavar="DIR",
        help="write telemetry artifacts for the whole drill to DIR "
             "(with --metrics)",
    )
    chaos.add_argument(
        "--serve", action="store_true",
        help="drill the live service instead of the batch executor: "
             "ingest burst, slow consumer, and kill -9 of a real serve "
             "subprocess with a state-equivalence verdict",
    )
    chaos.add_argument(
        "--serve-dir", type=Path, default=None, metavar="DIR",
        help="work directory for the --serve scenarios "
             "(default: a temporary directory)",
    )
    chaos.add_argument(
        "--serve-cluster", action="store_true",
        help="drill the replication cluster: kill -9 the primary "
             "mid-burst, promote a follower, verify zero acked loss + "
             "digest equivalence + epoch fencing",
    )
    _add_metrics_arg(chaos)

    serve = subparsers.add_parser(
        "serve",
        help="run the live ingestion service (WAL + rolling snapshots; "
             "kill -9 recovers value-identically, SIGTERM drains)",
    )
    serve.add_argument(
        "--data-dir", type=Path, required=True, metavar="DIR",
        help="durable state: WAL segments, rolling snapshots, endpoint "
             "file — everything recovery needs",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8321, metavar="N",
        help="bind port; 0 picks an ephemeral port, recorded in the "
             "data dir's endpoint.json (default: 8321)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=4096, metavar="N",
        help="admission queue bound (default: 4096)",
    )
    serve.add_argument(
        "--high-watermark", type=int, default=None, metavar="N",
        help="queue depth at which ingest starts answering 503 "
             "(default: 4/5 of --queue-size)",
    )
    serve.add_argument(
        "--low-watermark", type=int, default=None, metavar="N",
        help="queue depth at which 503s stop again "
             "(default: 1/2 of --queue-size)",
    )
    serve.add_argument(
        "--retry-after", type=float, default=1.0, metavar="SECONDS",
        help="Retry-After hint on refused batches (default: 1.0)",
    )
    serve.add_argument(
        "--snapshot-every", type=int, default=2000, metavar="EVENTS",
        help="rolling snapshot after this many applied records "
             "(default: 2000)",
    )
    serve.add_argument(
        "--snapshot-interval", type=float, default=30.0, metavar="SECONDS",
        help="also snapshot when this much time passed with anything "
             "applied (default: 30)",
    )
    serve.add_argument(
        "--snapshot-keep", type=int, default=2, metavar="N",
        help="rolling snapshots to retain; older ones are fall-backs "
             "when the newest fails verification (default: 2)",
    )
    serve.add_argument(
        "--wal-fsync-every", type=int, default=64, metavar="N",
        help="fsync the WAL every N appends; every append is still "
             "flushed, so only power loss can cost the tail "
             "(default: 64)",
    )
    serve.add_argument(
        "--max-events-per-victim", type=int, default=256, metavar="N",
        help="per-victim query ring bound (default: 256)",
    )
    serve.add_argument(
        "--apply-delay", type=float, default=0.0, metavar="SECONDS",
        help="chaos hook: slow the applier by this much per record "
             "(slow-consumer drills; default: 0)",
    )
    serve.add_argument(
        "--replica-of", default=None, metavar="URL",
        help="run as a read-only follower replicating the primary at "
             "URL's WAL; writes answer 409 with the primary's address",
    )
    serve.add_argument(
        "--follower-id", default=None, metavar="ID",
        help="identity this follower reports to the primary "
             "(default: the data dir's name)",
    )
    serve.add_argument(
        "--poll-interval", type=float, default=0.25, metavar="SECONDS",
        help="replication poll cadence on a follower (default: 0.25)",
    )
    serve.add_argument(
        "--sync-replicas", type=int, default=0, metavar="N",
        help="primary: acknowledge a batch only after N followers "
             "committed it (0 = asynchronous; default: 0)",
    )
    serve.add_argument(
        "--sync-timeout", type=float, default=5.0, metavar="SECONDS",
        help="how long a batch waits for --sync-replicas confirmations "
             "before answering 503 (default: 5)",
    )
    _add_metrics_arg(serve)

    promote = subparsers.add_parser(
        "serve-promote",
        help="promote a running follower to primary (epoch bump; the "
             "old primary is fenced by the new epoch)",
    )
    promote.add_argument(
        "--data-dir", type=Path, default=None, metavar="DIR",
        help="the follower's data dir (its endpoint.json names the "
             "node to promote)",
    )
    promote.add_argument(
        "--url", default=None, metavar="URL",
        help="address of the follower to promote (alternative to "
             "--data-dir)",
    )
    promote.add_argument(
        "--fence", default=None, metavar="URL",
        help="also fence the old primary at URL with the new epoch "
             "(skip if it is already dead)",
    )

    metrics_cmd = subparsers.add_parser(
        "metrics",
        help="print a finished run's metrics (Prometheus text or JSON)",
    )
    metrics_cmd.add_argument(
        "run_dir", type=Path, metavar="RUN_DIR",
        help="run directory holding metrics.json (simulate --metrics)",
    )
    metrics_cmd.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="output format (default: prom)",
    )

    trace_cmd = subparsers.add_parser(
        "trace",
        help="print a finished run's span trace (Chrome trace_event JSON "
             "or raw JSONL)",
    )
    trace_cmd.add_argument(
        "run_dir", type=Path, metavar="RUN_DIR",
        help="run directory holding trace.json (simulate --metrics)",
    )
    trace_cmd.add_argument(
        "--format", choices=("chrome", "jsonl"), default="chrome",
        help="output format (default: chrome)",
    )

    top = subparsers.add_parser(
        "top",
        help="live ops console over a serve cluster: polls each node's "
             "/status (plus the primary's /metrics/history) and renders "
             "one dashboard frame per interval",
    )
    top.add_argument(
        "--url", action="append", default=None, metavar="URL",
        help="node address to watch (repeatable)",
    )
    top.add_argument(
        "--data-dir", action="append", type=Path, default=None,
        metavar="DIR",
        help="node data dir; its endpoint.json names the address "
             "(repeatable, combinable with --url)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll cadence (default: 2.0)",
    )
    top.add_argument(
        "--windows", type=int, default=12, metavar="N",
        help="metrics-history windows to fetch per frame (default: 12)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (CI / scripting)",
    )

    simtest = subparsers.add_parser(
        "simtest",
        help="deterministic cluster simulation: seeded fault-schedule "
             "sweeps with durability/consistency oracles, trace replay "
             "and trace shrinking",
    )
    simtest.add_argument(
        "--seeds", default="0..9", metavar="A..B",
        help="seed range to sweep, inclusive (either 'A..B' or a single "
             "seed; default: 0..9)",
    )
    simtest.add_argument(
        "--nodes", type=int, default=3, metavar="N",
        help="virtual cluster size: one primary plus N-1 followers "
             "(default: 3)",
    )
    simtest.add_argument(
        "--steps", type=int, default=80, metavar="N",
        help="fault-schedule length per seed (default: 80)",
    )
    simtest.add_argument(
        "--out", type=Path, default=Path("simtest-failures"), metavar="DIR",
        help="directory for failing-seed traces (default: "
             "simtest-failures/)",
    )
    simtest.add_argument(
        "--shrink-failures", action="store_true",
        help="also minimize each failing trace (greedy delta debugging) "
             "and write a .min.json next to it",
    )
    simtest.add_argument(
        "--replay", type=Path, default=None, metavar="TRACE",
        help="re-execute a recorded trace instead of sweeping; exits 0 "
             "when the replay reproduces the trace's recorded "
             "violations (an empty list for corpus traces)",
    )
    simtest.add_argument(
        "--shrink", type=Path, default=None, metavar="TRACE",
        help="minimize a failing trace instead of sweeping; writes "
             "TRACE.min.json unless --out names a directory to use",
    )
    return parser


def _preset_config(preset: str, seed: int) -> ScenarioConfig:
    from repro.pipeline.config import ScenarioConfig

    return getattr(ScenarioConfig, preset)().with_seed(seed)


def _config(args: argparse.Namespace) -> ScenarioConfig:
    return _preset_config(args.preset, args.seed)


def _exec_faults(args: argparse.Namespace) -> ExecFaultPlan:
    """The execution-fault plan, after checking the supervision flags.

    Raises :class:`ValueError` naming the bad flag or spec.
    """
    for flag, value in (
        ("--task-deadline", args.task_deadline),
        ("--deadline", args.deadline),
    ):
        if value is not None and not value > 0:
            raise ValueError(f"{flag} must be positive, got {value:g}")
    from repro.faults.exec import ExecFaultPlan

    return ExecFaultPlan.parse(tuple(args.exec_fault or ()))


def _enable_metrics(args: argparse.Namespace) -> Optional[Telemetry]:
    """Install process-wide telemetry when ``--metrics`` was given."""
    if not getattr(args, "metrics", False):
        return None
    from repro.obs import Telemetry, set_telemetry

    telemetry = Telemetry.create()
    set_telemetry(telemetry)
    return telemetry


def _finish_metrics(
    telemetry: Optional[Telemetry], run_dir: Optional[Path]
) -> None:
    """Export telemetry artifacts (run dir) or print the Prometheus text."""
    if telemetry is None:
        return
    if run_dir is not None:
        written = telemetry.write_artifacts(run_dir)
        log.info(
            "telemetry artifacts written",
            run_dir=str(run_dir),
            artifacts=",".join(sorted(written)),
        )
    else:
        print()
        print(telemetry.metrics.render_prometheus(), end="")


def _run_pipeline(
    args: argparse.Namespace,
    config: ScenarioConfig,
    exec_faults: ExecFaultPlan,
    stage_cache: Optional[Path],
    crash_after: Optional[str] = None,
    save_events: Optional[Path] = None,
    meta: Optional[dict] = None,
) -> int:
    """Run the pipeline and print Table 1; returns the exit code.

    A durable run (``args.run_dir``) first records *meta* there, when
    given, and leaves the fused events in its dir.
    """
    from repro.core.report import render_table1
    from repro.exec.deadline import RunDeadlineExceeded
    from repro.exec.interrupt import InterruptGuard, RunInterrupted
    from repro.obs.report import QUALITY_FILE
    from repro.pipeline.datasets import save_events_jsonl
    from repro.pipeline.runner import ResilientPipeline
    from repro.store.checkpoint import CheckpointStore

    run_dir = args.run_dir
    telemetry = _enable_metrics(args)
    # Runs stop at stage boundaries on SIGINT or SIGTERM: checkpoints
    # stay coherent, a run dir stays resumable, and the exit code says
    # which signal it was.
    guard = InterruptGuard().install()
    try:
        if meta is not None:
            CheckpointStore(run_dir).write_json(META_FILE, meta)
        pipeline = ResilientPipeline(
            config,
            run_dir=run_dir,
            crash_after=crash_after,
            task_deadline=args.task_deadline,
            exec_faults=exec_faults,
            deadline=args.deadline,
            interrupt=guard,
            stage_cache=stage_cache,
        )
        result = pipeline.run()
        if run_dir is not None:
            written = save_events_jsonl(
                result.fused.combined.events, run_dir / EVENTS_FILE
            )
            pipeline.store.write_json(
                QUALITY_FILE, result.quality.to_dict()
            )
            log.info(
                "durable run complete",
                run_dir=str(run_dir),
                events=written,
                cached_stages=sum(
                    1 for s in result.quality.stages if s.status == "cached"
                ),
                cache_hit_stages=sum(
                    1 for s in result.quality.stages
                    if s.status == "cache-hit"
                ),
            )
    except RunDeadlineExceeded as exc:
        _finish_metrics(telemetry, run_dir)
        print(f"deadline exceeded: {exc}", file=sys.stderr)
        return EXIT_DEADLINE
    except RunInterrupted as exc:
        _finish_metrics(telemetry, run_dir)
        print(f"interrupted: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        guard.restore()
    print(render_table1(result.fused.summary_rows()))
    if save_events is not None:
        written = save_events_jsonl(result.fused.combined.events, save_events)
        print(f"\nwrote {written} events to {save_events}")
    _finish_metrics(telemetry, run_dir)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.crash_after is not None and args.run_dir is None:
        print("--crash-after requires --run-dir", file=sys.stderr)
        return 2
    try:
        exec_faults = _exec_faults(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run_pipeline(
        args,
        _config(args),
        exec_faults,
        args.stage_cache,
        crash_after=args.crash_after,
        save_events=args.save_events,
        meta=None if args.run_dir is None else {
            "meta_version": META_VERSION,
            "command": "simulate",
            "preset": args.preset,
            "seed": args.seed,
            "stage_cache": (
                str(args.stage_cache)
                if args.stage_cache is not None
                else None
            ),
        },
    )


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.store.checkpoint import CheckpointStore

    if not args.run_dir.is_dir():
        print(f"no such run directory: {args.run_dir}", file=sys.stderr)
        return 2
    try:
        exec_faults = _exec_faults(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = CheckpointStore(args.run_dir)
    meta = store.read_json(META_FILE)
    if meta is None:
        print(
            f"{args.run_dir} is not a durable run directory "
            f"(missing or unreadable {META_FILE})",
            file=sys.stderr,
        )
        return 2
    if meta.get("meta_version") != META_VERSION:
        print(
            f"run was started by an incompatible version "
            f"(meta v{meta.get('meta_version')}, expected v{META_VERSION})",
            file=sys.stderr,
        )
        return 2
    preset = meta.get("preset")
    if preset not in PRESETS:
        print(f"run metadata names unknown preset: {preset!r}",
              file=sys.stderr)
        return 2
    config = _preset_config(preset, int(meta.get("seed", 42)))
    stage_cache = (
        args.stage_cache
        if args.stage_cache is not None
        else (
            Path(meta["stage_cache"])
            if meta.get("stage_cache")
            else None
        )
    )
    log.info(
        "resuming run", run_dir=str(args.run_dir), preset=preset,
        seed=config.seed,
    )
    return _run_pipeline(args, config, exec_faults, stage_cache)


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.pipeline.datasets import (
        MalformedRecordError,
        quarantine_path_for,
        read_events_jsonl,
    )

    if not args.events_file.exists():
        print(f"no such file: {args.events_file}", file=sys.stderr)
        return 2
    quarantine = args.quarantine
    if quarantine is None:
        quarantine = quarantine_path_for(args.events_file, feed=args.feed)
    try:
        _events, report = read_events_jsonl(
            args.events_file,
            strict=args.strict,
            quarantine_path=quarantine,
            feed=args.feed,
        )
    except MalformedRecordError as exc:
        print(f"invalid record: {exc}", file=sys.stderr)
        return 1
    print(f"{report.path}: {report.loaded} valid, "
          f"{report.rejected} quarantined")
    for reason, count in report.reason_counts().items():
        print(f"  {reason:<28} {count}")
    if report.quarantine_path:
        print(f"dead-letter file: {report.quarantine_path}")
    return 0 if report.rejected == 0 else 1


def cmd_report(args: argparse.Namespace) -> int:
    if args.run_dir is not None:
        if not args.run_dir.is_dir():
            print(f"no such run directory: {args.run_dir}", file=sys.stderr)
            return 2
        from repro.obs.report import render_flight_report

        print(render_flight_report(args.run_dir))
        return 0
    from repro.pipeline.fullreport import generate_full_report
    from repro.pipeline.simulation import run_simulation

    result = run_simulation(_config(args))
    report = generate_full_report(result)
    wanted = args.only if args.only else list(REPORT_ORDER)
    unknown = [name for name in wanted if name not in report]
    if unknown:
        print(f"unknown artifact ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for name in wanted:
            (args.out_dir / f"{name}.txt").write_text(
                report[name] + "\n", encoding="utf-8"
            )
        print(f"wrote {len(wanted)} artifacts to {args.out_dir}")
    else:
        for name in wanted:
            print(report[name])
            print()
    return 0


def cmd_headline(args: argparse.Namespace) -> int:
    from repro.pipeline.quality import HeadlineMetrics
    from repro.pipeline.simulation import run_simulation

    result = run_simulation(_config(args))
    metrics = HeadlineMetrics.from_result(result)
    print(f"attacks observed:            {metrics.attacks}")
    print(f"unique targets:              {metrics.unique_targets}")
    print(f"active /24s attacked:        "
          f"{metrics.attacked_slash24_fraction:.1%}  (paper: ~33%)")
    print(f"Web sites on attacked IPs:   "
          f"{metrics.attacked_site_fraction:.1%}  (paper: 64%)")
    print(f"attacked sites migrating:    "
          f"{metrics.migrating_fraction:.2%}  (paper: 4.31%)")
    return 0


def cmd_robustness(args: argparse.Namespace) -> int:
    from repro.faults.plan import FaultPlan
    from repro.pipeline.quality import HeadlineMetrics
    from repro.pipeline.runner import ResilientPipeline
    from repro.pipeline.simulation import run_simulation

    config = _config(args)
    result = run_simulation(config)
    baseline = HeadlineMetrics.from_result(result)
    print("fault-free baseline:")
    print(f"  attacks observed:      {baseline.attacks}")
    print(f"  active /24s attacked:  {baseline.attacked_slash24_fraction:.1%}")
    print(f"  sites on attacked IPs: {baseline.attacked_site_fraction:.1%}")
    print(f"  attacked sites moving: {baseline.migrating_fraction:.2%}")
    if args.plan == "standard":
        plans = [
            (
                "standard mixed fault plan",
                FaultPlan.standard(
                    config.n_days,
                    seed=args.fault_seed,
                    n_honeypots=config.n_honeypots,
                ),
            )
        ]
    else:
        feeds = list(ALL_FEEDS) if args.feed == "all" else [args.feed]
        plans = [
            (
                f"feed forced down: {feed}",
                FaultPlan.feed_down(feed, config.n_days, config.n_honeypots),
            )
            for feed in feeds
        ]
    for title, plan in plans:
        degraded = ResilientPipeline(config, plan=plan).run(baseline)
        print(f"\n--- {title} ---")
        print(degraded.quality.render(timings=args.timings))
    return 0


def _print_verdicts(title: str, results: list, width: int) -> int:
    """Print a drill's verdict lines; returns how many failed."""
    print(f"=== {title} ===")
    for result in results:
        verdict = "PASS" if result.passed else "FAIL"
        print(
            f"{verdict} {result.name:<{width}} [{result.expect}] "
            f"({result.elapsed:.1f}s): {result.detail}"
        )
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} scenarios passed")
    return failed


def cmd_chaos(args: argparse.Namespace) -> int:
    telemetry = _enable_metrics(args)
    if args.serve_cluster or args.serve:
        import tempfile

        from repro.serve import chaos

        work_dir = args.serve_dir
        if work_dir is None:
            kind = "cluster" if args.serve_cluster else "serve"
            work_dir = Path(tempfile.mkdtemp(prefix=f"repro-{kind}-chaos-"))
        if args.serve_cluster:
            results = [
                chaos.run_cluster_failover(
                    work_dir, quick=args.quick,
                    scenario_budget=args.scenario_budget,
                )
            ]
            failed = _print_verdicts("Serve cluster drill", results, 16)
        else:
            results = chaos.run_serve_chaos_drill(
                work_dir,
                quick=args.quick,
                scenario_budget=args.scenario_budget,
            )
            failed = _print_verdicts("Serve chaos drill", results, 14)
    else:
        from repro.pipeline.chaos import run_chaos_drill

        results = run_chaos_drill(
            config=_config(args),
            quick=args.quick,
            scenario_budget=args.scenario_budget,
        )
        failed = _print_verdicts("Chaos drill", results, 14)
    _finish_metrics(telemetry, args.run_dir)
    return 0 if failed == 0 else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.http import run_service
    from repro.serve.service import ServeConfig

    telemetry = _enable_metrics(args)
    config = ServeConfig(
        data_dir=args.data_dir,
        queue_size=args.queue_size,
        high_watermark=args.high_watermark,
        low_watermark=args.low_watermark,
        retry_after=args.retry_after,
        snapshot_every_events=args.snapshot_every,
        snapshot_interval_s=args.snapshot_interval,
        snapshot_keep=args.snapshot_keep,
        wal_fsync_every=args.wal_fsync_every,
        max_events_per_victim=args.max_events_per_victim,
        apply_delay=args.apply_delay,
        replica_of=args.replica_of,
        follower_id=args.follower_id,
        poll_interval_s=args.poll_interval,
        sync_replicas=args.sync_replicas,
        sync_timeout_s=args.sync_timeout,
    )
    try:
        return run_service(
            config,
            host=args.host,
            port=args.port,
            metrics=telemetry.metrics if telemetry is not None else None,
            tracer=telemetry.tracer if telemetry is not None else None,
        )
    finally:
        # The data dir doubles as the run dir: a graceful exit leaves
        # metrics.json next to the snapshots for `repro report`.
        _finish_metrics(telemetry, args.data_dir)


def cmd_serve_promote(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeClientError
    from repro.serve.http import read_endpoint_file

    if args.url:
        url = args.url.rstrip("/")
    elif args.data_dir:
        try:
            info = read_endpoint_file(args.data_dir)
        except (OSError, ValueError) as exc:
            print(
                f"cannot read endpoint file in {args.data_dir}: {exc}",
                file=sys.stderr,
            )
            return 2
        url = f"http://{info['host']}:{info['port']}"
    else:
        print("need --data-dir or --url", file=sys.stderr)
        return 2
    client = ServeClient([url])
    try:
        outcome = client.promote(url)
    except ServeClientError as exc:
        print(f"promotion failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"promoted {url}: role={outcome['role']} epoch={outcome['epoch']} "
        f"seq={outcome['seq']} applied_seq={outcome['applied_seq']}"
    )
    if args.fence:
        response = client.fence(
            args.fence, outcome["epoch"], primary_url=url
        )
        if response.status == 200:
            print(f"fenced {args.fence} at epoch {outcome['epoch']}")
        else:
            print(
                f"fence of {args.fence} answered {response.status}: "
                f"{response.body}",
                file=sys.stderr,
            )
            return 1
    return 0


def _top_urls(args: argparse.Namespace) -> list:
    from repro.serve.http import read_endpoint_file

    urls = [url.rstrip("/") for url in (args.url or [])]
    for data_dir in args.data_dir or []:
        try:
            info = read_endpoint_file(data_dir)
        except (OSError, ValueError) as exc:
            print(
                f"cannot read endpoint file in {data_dir}: {exc}",
                file=sys.stderr,
            )
            continue
        urls.append(f"http://{info['host']}:{info['port']}")
    return urls


def _top_frame(client, urls: list, windows: int) -> str:
    from repro.obs.console import render_dashboard
    from repro.serve.transport import TransportError

    nodes = []
    history = None
    for url in urls:
        try:
            response = client.request_once("GET", "/status", endpoint=url)
            doc = response.body if response.status == 200 else None
            error = None if doc else f"status {response.status}"
        except (TransportError, OSError) as exc:
            doc, error = None, str(exc)
        nodes.append({"url": url, "status": doc, "error": error})
        if doc is not None and history is None and doc.get("role") == "primary":
            try:
                answer = client.request_once(
                    "GET", f"/metrics/history?last={windows}", endpoint=url
                )
                if answer.status == 200:
                    history = answer.body
            except (TransportError, OSError):
                pass
    return render_dashboard(nodes, history)


def cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.serve.client import ServeClient

    urls = _top_urls(args)
    if not urls:
        print("need at least one --url or --data-dir", file=sys.stderr)
        return 2
    client = ServeClient(urls)
    if args.once:
        print(_top_frame(client, urls, args.windows), end="")
        return 0
    try:
        while True:
            # ANSI clear + home: repaint in place like top(1).
            frame = _top_frame(client, urls, args.windows)
            print(f"\x1b[2J\x1b[H{frame}", end="", flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import METRICS_FILE, prometheus_from_snapshot

    path = args.run_dir / METRICS_FILE
    if not path.exists():
        print(
            f"no {METRICS_FILE} in {args.run_dir} "
            "(produce one with 'simulate --run-dir DIR --metrics')",
            file=sys.stderr,
        )
        return 2
    text = path.read_text(encoding="utf-8")
    if args.format == "json":
        print(text, end="")
        return 0
    print(prometheus_from_snapshot(json.loads(text)), end="")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import TRACE_FILE, TRACE_JSONL_FILE

    name = TRACE_FILE if args.format == "chrome" else TRACE_JSONL_FILE
    path = args.run_dir / name
    if not path.exists():
        print(
            f"no {name} in {args.run_dir} "
            "(produce one with 'simulate --run-dir DIR --metrics')",
            file=sys.stderr,
        )
        return 2
    print(path.read_text(encoding="utf-8"), end="")
    return 0


def _parse_seed_range(text: str) -> range:
    if ".." in text:
        first, _, last = text.partition("..")
        start, stop = int(first), int(last)
    else:
        start = stop = int(text)
    if stop < start:
        raise ValueError(f"empty seed range: {text}")
    return range(start, stop + 1)


def cmd_simtest(args: argparse.Namespace) -> int:
    from repro.simtest import (
        default_spec, run_sim, run_trace, trace_to_json,
    )
    from repro.simtest.shrink import shrink_trace

    if args.replay is not None:
        trace = json.loads(args.replay.read_text(encoding="utf-8"))
        result = run_trace(trace)
        recorded = trace.get("violations", [])
        if result["violations"] == recorded:
            print(
                f"replay OK: {len(trace['ops'])} ops reproduced "
                f"{len(recorded)} recorded violation(s)"
            )
            return 0
        print("replay DIVERGED from recorded violations:", file=sys.stderr)
        print(json.dumps(result["violations"], indent=2), file=sys.stderr)
        return 1

    if args.shrink is not None:
        trace = json.loads(args.shrink.read_text(encoding="utf-8"))
        try:
            minimized, runs = shrink_trace(trace)
        except ValueError as exc:
            print(f"cannot shrink: {exc}", file=sys.stderr)
            return 2
        out = args.shrink.with_suffix(".min.json")
        out.write_text(trace_to_json(minimized), encoding="utf-8")
        print(
            f"shrunk {len(trace['ops'])} -> {len(minimized['ops'])} ops "
            f"in {runs} runs: {out}"
        )
        return 0

    try:
        seeds = _parse_seed_range(args.seeds)
    except ValueError as exc:
        print(f"bad --seeds: {exc}", file=sys.stderr)
        return 2
    config = default_spec(nodes=args.nodes, steps=args.steps)
    failures = 0
    for seed in seeds:
        trace = run_sim(seed, config)
        if not trace["violations"]:
            print(f"seed {seed}: ok")
            continue
        failures += 1
        oracles = sorted({v.get("oracle", "?") for v in trace["violations"]})
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"seed-{seed}.json"
        path.write_text(trace_to_json(trace), encoding="utf-8")
        print(f"seed {seed}: FAIL {oracles} -> {path}")
        if args.shrink_failures:
            minimized, runs = shrink_trace(trace)
            mini_path = args.out / f"seed-{seed}.min.json"
            mini_path.write_text(trace_to_json(minimized), encoding="utf-8")
            print(
                f"seed {seed}: shrunk {len(trace['ops'])} -> "
                f"{len(minimized['ops'])} ops in {runs} runs -> {mini_path}"
            )
    total = len(seeds)
    print(f"simtest: {total - failures}/{total} seeds passed")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verbose or args.log_json:
        configure_logging(verbose=args.verbose, json_mode=args.log_json)
    handlers = {
        "simulate": cmd_simulate,
        "resume": cmd_resume,
        "validate": cmd_validate,
        "report": cmd_report,
        "headline": cmd_headline,
        "robustness": cmd_robustness,
        "chaos": cmd_chaos,
        "serve": cmd_serve,
        "serve-promote": cmd_serve_promote,
        "top": cmd_top,
        "metrics": cmd_metrics,
        "trace": cmd_trace,
        "simtest": cmd_simtest,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
