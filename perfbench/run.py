"""The repository's benchmark: batch pipeline and live service, end to end.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline-default --seed 1 --seconds 40
    python3 perfbench/run.py --workload serve-ingest --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --baseline perfbench/baseline.json

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced jobs (or sessions) and
reports per-layer metrics from the traced ones, plus the tracing
overhead. The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name and unit, the environment, and output digests.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from spans import percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"

PIPELINE_WORKLOADS = ("pipeline-default", "pipeline-measurement")
SERVE_WORKLOAD = "serve-ingest"
WORKLOADS = PIPELINE_WORKLOADS + (SERVE_WORKLOAD,)

#: Seconds of ``--seconds`` one untraced pipeline job or serve session
#: stands for. A run makes ``rounds()`` of them, fixed by ``--seconds``
#: alone, so a faster program measures the same scenario seeds, not more
#: of them: at 40 s, six pipeline-default jobs or twenty serve sessions.
#: On a 2-core VM that takes about 30 s or 75 s, with each job's process
#: start and checks and each server's start, drain and data-dir removal.
UNIT_SECONDS = {
    "pipeline-default": 6.5,
    "pipeline-measurement": 8.5,
    "serve-ingest": 2.0,
}
JOB_TIMEOUT_S = 170.0
#: Ingest batches of the untimed warm-up session: enough to load and
#: compile every module the service's write and read paths use.
WARMUP_BATCHES = 32

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ingest_records_per_s": "1/s",
    "ack_p50_ms": "ms",
    "ack_p99_ms": "ms",
}

PIPELINE_LAYERS = (
    "telescope.synth_s", "honeypot.synth_s",
    "telescope.synth_rss_mb", "honeypot.synth_rss_mb",
    "telescope.detect_s", "honeypot.detect_s",
    "telescope.rows", "honeypot.rows",
    "telescope.detect_rows_per_s", "honeypot.detect_rows_per_s",
    "telescope.events", "honeypot.events",
    "telescope.merge_s", "honeypot.merge_s",
    "dns.openintel_s", "dps.scan_s", "dps.migration_s",
    "internet.topology_s", "internet.hosting_s", "dns.zones_s",
    "internet.build_s",
    "attacks.schedule_s", "attacks.count",
    "core.fuse_s", "core.annotate_s", "core.fused_events",
    "pipeline.self_s",
)
SERVE_LAYERS = (
    "serve.wal.fsync_s", "serve.wal.fsync_in_snapshot_s",
    "serve.wal.fsyncs", "serve.wal.records_per_fsync",
    "serve.wal.append_s", "serve.wal.bytes_per_record",
    "serve.snapshot_s", "serve.snapshots", "serve.snapshot.state_dict_s",
    "serve.wal.prune_s",
    "serve.submit_s", "serve.validate_s", "serve.http.overhead_ms",
    "serve.queue.wait_p50_ms", "serve.queue.wait_p99_ms",
    "serve.apply_s", "serve.applied",
    "serve.query_s", "serve.refused",
)
#: Reader latency over the untraced sessions of a traced serve run. It is
#: end to end, but on a shared 2-core VM it spreads about twice as much
#: as the server's CPU time from run to run: too much to hold a bound.
READER_LAYERS = ("serve.read_p50_ms", "serve.read_p99_ms")


def layer_unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_mb", "MB"),
                         ("_s", "s"), ("bytes_per_record", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


clock = time.monotonic


def rounds(workload: str, seconds: float, trace: bool) -> int:
    """Jobs or sessions one run makes; a traced round makes two."""
    count = max(3, round(seconds / UNIT_SECONDS[workload]))
    return max(1, count // 2) if trace else count


# -- statistics ----------------------------------------------------------------


def tail_note(name: str, values: List[float], share: float = 0.99) -> str:
    beyond = len(values) - math.ceil(share * len(values))
    note = f"n={len(values)}, {beyond} beyond p{int(share * 100)}"
    if beyond < 10:
        note += " (fewer than 10: tail is not resolved)"
    return f"{name}: {note}"


# -- environment ---------------------------------------------------------------


def fsync_probe_ms(directory: Path, rounds: int = 64) -> float:
    """Median latency of a bare write + fsync on *directory*'s filesystem."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "fsync-probe"
    samples = []
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        for _ in range(rounds):
            os.write(fd, b"x" * 128)
            started = time.perf_counter()
            os.fsync(fd)
            samples.append((time.perf_counter() - started) * 1000.0)
    finally:
        os.close(fd)
        path.unlink()
    return statistics.median(samples)


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(work: Path) -> dict:
    return {
        "git_sha": git_sha(),
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "fsync_ms": fsync_probe_ms(work),
    }


# -- pipeline workloads ----------------------------------------------------------


def run_job(work: Path, workload: str, seed: int, trace: bool) -> dict:
    """One ``run_simulation`` in a fresh process; its report, or a failure."""
    name = f"job-{seed}-{'traced' if trace else 'plain'}"
    spec_path, out_path = work / f"{name}.spec.json", work / f"{name}.json"
    spec = {"root": str(ROOT), "workload": workload, "seed": seed,
            "trace": trace, "out": str(out_path)}
    with open(work / f"{name}.log", "wb") as log:
        spec["spawned_at"] = clock()
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        try:
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "pipeline_job.py"),
                 str(spec_path)],
                cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                timeout=JOB_TIMEOUT_S,
            )
            code = done.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0 or not out_path.exists():
        return {"seed": seed, "failures": [f"job exited with {code}"]}
    return json.loads(out_path.read_text(encoding="utf-8"))


def run_pipeline(work: Path, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    plain: List[dict] = []
    traced: List[dict] = []
    for index in range(rounds(workload, seconds, trace)):
        job_seed = seed * 1000 + index
        plain.append(run_job(work, workload, job_seed, trace=False))
        if trace:
            traced.append(run_job(work, workload, job_seed, trace=True))
    jobs = plain + traced
    good = [job for job in plain if not job["failures"]]
    outcome = {
        "attempted": len(jobs),
        "failed": sum(1 for job in jobs if job["failures"]),
        "failures": [f for job in jobs for f in job["failures"]],
        "table1_sha256": {
            str(job["seed"]): job.get("table1_sha256") for job in plain
        },
        "jobs": jobs,
    }
    if not good:
        return outcome
    walls = [job["wall_s"] for job in good]
    outcome["notes"] = [
        f"ack is one job's time from process start to result: "
        f"n={len(walls)}, p99 reads as the slowest job",
    ]
    # Each job simulates a different scenario seed, and the work per seed
    # varies (by a third on pipeline-measurement), so a run reports the
    # mean over its fixed set of seeds: the ensemble's cost per job.
    outcome["metrics"] = {
        "wall_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(job["cpu_s"] for job in good),
        "peak_rss_mb": statistics.fmean(job["peak_rss_mb"] for job in good),
        "setup_s": statistics.median(job["setup_s"] for job in good),
        "ingest_records_per_s": sum(job["fused_events"] for job in good)
        / sum(walls),
        "ack_p50_ms": statistics.median(walls) * 1000.0,
        "ack_p99_ms": max(walls) * 1000.0,
    }
    traced_good = [job for job in traced if not job["failures"]]
    if trace and traced_good:
        layers = {
            name: statistics.median(job["layers"][name] for job in traced_good)
            for name in PIPELINE_LAYERS
        }
        layers.update({name: 0.0 for name in SERVE_LAYERS + READER_LAYERS})
        layers["trace.overhead_s"] = statistics.median(
            job["wall_s"] for job in traced_good
        ) - statistics.median(walls)
        outcome["layers"] = layers
    return outcome


# -- serve workload --------------------------------------------------------------


def serve_session(work: Path, name: str, load):
    """One service lifetime in its own process: (session, server run)."""
    from serve_load import ServerProcess, pinned, run_session, split_cpus

    load_cpus, server_cpus = split_cpus()
    data_dir = work / name
    # Start every session with no dirty pages left by the one before,
    # so its fsyncs do not pay for an earlier session's writes.
    os.sync()
    server = ServerProcess(ROOT, data_dir, work / f"{name}.log", server_cpus)
    try:
        with pinned(load_cpus):
            session = run_session(server.port, load)
    except BaseException:
        server.kill()
        raise
    run = server.stop()
    shutil.rmtree(data_dir, ignore_errors=True)
    return session, run


def run_serve(work: Path, seed: int, seconds: float, trace: bool) -> dict:
    from serve_load import make_load

    made = clock()
    load = make_load(seed, work)
    load_note = (f"load: {len(load.bodies)} batches of simulated fused "
                 f"events, made in {clock() - made:.1f} s before timing")
    # A short untimed session first: on a fresh checkout it compiles the
    # service's modules, and it lets the machine settle after making the
    # load. Its checks count, its timings do not.
    warmup, warmup_run = serve_session(
        work, "serve-warmup",
        dataclasses.replace(load, bodies=load.bodies[:WARMUP_BATCHES]),
    )
    sessions, runs, traced = [], [], []
    for index in range(rounds(SERVE_WORKLOAD, seconds, trace)):
        session, run = serve_session(work, f"serve-{index}", load)
        sessions.append(session)
        runs.append(run)
        if trace:
            from serve_trace import traced_session

            # A session makes ~70k spans (one per record validated and
            # applied); keeping the first session's is enough to inspect.
            traced_dir = work / f"serve-traced-{index}"
            spans_path = work / "serve-traced.spans.jsonl" if not index else None
            traced.append(traced_session(traced_dir, load, spans_path))
            shutil.rmtree(traced_dir, ignore_errors=True)
    servers = [warmup_run] + runs
    everything = [warmup] + sessions + [session for session, _ in traced]
    failures = [f"serve exited with {run.exit_code}"
                for run in servers if run.exit_code != 0]
    failures += [f for session in everything for f in session.failures]
    acks = [ms for session in sessions for ms in session.ack_ms]
    reads = [ms for session in sessions for ms in session.read_ms]
    late = [ms for session in sessions for ms in session.late_ms]
    outcome = {
        "attempted": sum(session.attempted for session in everything)
        + len(servers),
        "failed": sum(session.failed for session in everything)
        + sum(1 for run in servers if run.exit_code != 0),
        "failures": failures,
        "sessions": [
            {
                "records_acked": session.acked_records,
                "applied_events": session.applied_events,
                "ingest_s": session.ingest_s,
                "setup_s": run.setup_s,
                "wall_s": run.wall_s,
                "cpu_s": run.cpu_s,
                "peak_rss_mb": run.peak_rss_mb,
                "ack_p50_ms": percentile(session.ack_ms, 0.5),
                "ack_p99_ms": percentile(session.ack_ms, 0.99),
                "read_p50_ms": percentile(session.read_ms, 0.5),
                "read_p99_ms": percentile(session.read_ms, 0.99),
            }
            for session, run in zip(sessions, runs)
        ],
        "reader_ms": {
            "p50": percentile(reads, 0.5), "p99": percentile(reads, 0.99),
        },
        "reader_late_ms": {
            "p50": percentile(late, 0.5), "p99": percentile(late, 0.99),
            "max": max(late),
        },
        "notes": [load_note, tail_note("acks", acks),
                  tail_note("reads", reads)],
        "metrics": {
            "wall_s": statistics.median(run.wall_s for run in runs),
            "cpu_s": statistics.median(run.cpu_s for run in runs),
            "peak_rss_mb": statistics.median(run.peak_rss_mb for run in runs),
            "setup_s": statistics.median(run.setup_s for run in runs),
            "ingest_records_per_s": statistics.median(
                session.acked_records / session.ingest_s for session in sessions
            ),
            "ack_p50_ms": percentile(acks, 0.50),
            "ack_p99_ms": percentile(acks, 0.99),
        },
    }
    if trace:
        layers = {
            name: statistics.median(metrics[name] for _, metrics in traced)
            for name in SERVE_LAYERS
        }
        layers["serve.read_p50_ms"] = outcome["reader_ms"]["p50"]
        layers["serve.read_p99_ms"] = outcome["reader_ms"]["p99"]
        layers.update({name: 0.0 for name in PIPELINE_LAYERS})
        layers["trace.overhead_s"] = statistics.median(
            session.ingest_s for session, _ in traced
        ) - statistics.median(session.ingest_s for session in sessions)
        outcome["layers"] = layers
    return outcome


# -- reporting -------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 env: dict) -> dict:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        if workload == SERVE_WORKLOAD:
            outcome = run_serve(work, seed, seconds, trace)
        else:
            outcome = run_pipeline(work, workload, seed, seconds, trace)
        for spans in work.glob("*.spans.jsonl"):
            shutil.copy(spans, results / f"{workload}-{seed}-{spans.name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome.update(workload=workload, seed=seed, seconds=seconds,
                   trace=int(trace), environment=env)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(outcome, indent=1, sort_keys=True), encoding="utf-8"
    )
    return outcome


def reported_metrics(outcome: dict, trace: bool) -> Dict[str, dict]:
    if trace:
        return {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in sorted(outcome.get("layers", {}).items())
        }
    return {
        name: {"value": outcome["metrics"][name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }


def print_outcome(outcome: dict, trace: bool) -> None:
    print(f"== {outcome['workload']} (seed {outcome['seed']}, "
          f"{'traced' if trace else 'untraced'})")
    print("environment: " + json.dumps(outcome["environment"], sort_keys=True))
    for name, metric in reported_metrics(outcome, trace).items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    ratio = outcome["failed"] / max(1, outcome["attempted"])
    print(f"  {'failed_ratio':32s} {ratio:14.6g} "
          f"({outcome['failed']} of {outcome['attempted']})")
    for note in outcome.get("notes", []):
        print(f"  note: {note}")
    if "reader_ms" in outcome:
        print("  reader latency ms (not bounded; README): "
              + json.dumps(outcome["reader_ms"], sort_keys=True))
        print("  reader generator lateness ms: "
              + json.dumps(outcome["reader_late_ms"], sort_keys=True))
    for seed, digest in sorted(outcome.get("table1_sha256", {}).items()):
        print(f"  table1 sha256 seed {seed}: {digest}")
    for failure in outcome["failures"][:10]:
        print(f"  FAILED: {failure}")


def default_preset_rows(outcome: dict, traced: dict) -> List[str]:
    """The Baseline table's default-preset rows, from one run's numbers."""
    layers = traced["layers"]
    return [
        "| what | measured | how |",
        "| --- | --- | --- |",
        f"| `simulate`, default preset | {outcome['metrics']['wall_s']:.2f} s "
        f"wall, {outcome['metrics']['cpu_s']:.2f} s CPU, peak RSS "
        f"{outcome['metrics']['peak_rss_mb']:.0f} MB | "
        "`perfbench/run.py --workload pipeline-default` |",
        f"| default, inside the two observation stages | synthesis "
        f"{layers['telescope.synth_s']:.2f} s (telescope) + "
        f"{layers['honeypot.synth_s']:.2f} s (honeypot); detect "
        f"{layers['telescope.detect_s']:.2f} + "
        f"{layers['honeypot.detect_s']:.2f} s | "
        "`perfbench/run.py --workload pipeline-default --trace 1` |",
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="with --workload all: also write every "
                             "workload's untraced and traced results here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = environment(WORK)
    if args.workload != "all":
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), env)
        print_outcome(outcome, bool(args.trace))
        if "metrics" not in outcome or (args.trace and "layers" not in outcome):
            print("perfbench: no job succeeded; no metrics", file=sys.stderr)
            return 1
        print(json.dumps({
            "correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": reported_metrics(outcome, bool(args.trace)),
        }))
        return 0
    baseline = {"environment": env, "seconds": args.seconds,
                "seed": args.seed, "workloads": {}}
    for workload in WORKLOADS:
        entry = {}
        for trace in (False, True):
            outcome = run_workload(workload, args.seed, args.seconds, trace,
                                   env)
            print_outcome(outcome, trace)
            entry["traced" if trace else "untraced"] = outcome
        baseline["workloads"][workload] = {
            "failed": sum(o["failed"] for o in entry.values()),
            "attempted": sum(o["attempted"] for o in entry.values()),
            "end_to_end": reported_metrics(entry["untraced"], False),
            "per_layer": reported_metrics(entry["traced"], True),
        }
        if workload == "pipeline-default":
            baseline["default_preset_rows"] = default_preset_rows(
                entry["untraced"], entry["traced"]
            )
    print("\n".join(baseline["default_preset_rows"]))
    if args.baseline is not None:
        args.baseline.write_text(
            json.dumps(baseline, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    failed = sum(w["failed"] for w in baseline["workloads"].values())
    print(json.dumps({"correct": failed == 0, "failed": failed,
                      "workloads": sorted(baseline["workloads"])}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
