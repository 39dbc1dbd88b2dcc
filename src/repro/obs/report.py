"""Flight report: one post-run summary from a run directory's artifacts.

After a durable run with ``--metrics``, the run dir holds machine-readable
telemetry (``metrics.json``, ``profile.json``, ``trace.jsonl``), the
runner's ``quality.json`` and the ``meta.json`` the CLI wrote at launch.
:func:`render_flight_report` fuses whatever subset of those exists into
the table an operator reads first after a chaos drill: per-stage timings
and attempts, retries, worker kills, drop counts and throughput, plus
breaker trips for a run that had breakers (a serve run).
``python -m repro report --run-dir DIR`` prints it.

Everything here reads plain JSON from disk — no live registry needed —
so the report works on a run dir copied off another machine.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs import METRICS_FILE, PROFILE_FILE, TRACE_JSONL_FILE
from repro.obs.timeseries import HISTORY_FILE

#: Slowest ``serve.http`` spans listed in the slow-request section.
SLOW_REQUEST_ROWS = 5

#: The runner's serialized DataQualityReport (written by the CLI).
QUALITY_FILE = "quality.json"
META_FILE = "meta.json"


def _read_json(run_dir: Path, name: str) -> Optional[Dict[str, Any]]:
    """A JSON object from the run dir: ``None`` when the file is missing,
    unreadable, not UTF-8 JSON or something other than an object."""
    path = run_dir / name
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, OSError):
        return None
    return data if isinstance(data, dict) else None


def _read_jsonl(run_dir: Path, name: str) -> Optional[List[Dict[str, Any]]]:
    """One JSON object per line: ``None`` when the file is missing,
    unreadable, not UTF-8 JSON or has a line that is not an object."""
    path = run_dir / name
    if not path.exists():
        return None
    records = []
    try:
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                records.append(json.loads(line))
    except (UnicodeDecodeError, json.JSONDecodeError, OSError):
        return None
    if not all(isinstance(record, dict) for record in records):
        return None
    return records


def load_run_artifacts(run_dir: Union[str, Path]) -> Dict[str, Any]:
    """Every telemetry artifact the run dir has, keyed by kind."""
    run_dir = Path(run_dir)
    return {
        "meta": _read_json(run_dir, META_FILE),
        "metrics": _read_json(run_dir, METRICS_FILE),
        "profile": _read_json(run_dir, PROFILE_FILE),
        "quality": _read_json(run_dir, QUALITY_FILE),
        "trace": _read_jsonl(run_dir, TRACE_JSONL_FILE),
        "history": _read_jsonl(run_dir, HISTORY_FILE),
    }


def _metric_series(
    metrics: Optional[Dict[str, Any]], name: str
) -> List[Dict[str, Any]]:
    if not metrics:
        return []
    family = metrics.get("metrics", {}).get(name)
    return family.get("series", []) if family else []


def _metric_total(metrics: Optional[Dict[str, Any]], name: str,
                  **labels: str) -> float:
    """Sum of a family's series values matching the given labels."""
    total = 0.0
    for series in _metric_series(metrics, name):
        got = series.get("labels", {})
        if all(got.get(k) == v for k, v in labels.items()):
            total += series.get("value", 0)
    return total


def _fmt_count(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.2f}"


def render_flight_report(run_dir: Union[str, Path]) -> str:
    """The post-run summary table (sections appear as artifacts allow)."""
    run_dir = Path(run_dir)
    art = load_run_artifacts(run_dir)
    meta, metrics = art["meta"], art["metrics"]
    profile, quality, trace = art["profile"], art["quality"], art["trace"]
    if not any((metrics, profile, quality, trace)):
        return (
            f"=== Flight report: {run_dir} ===\n"
            "no telemetry artifacts found "
            "(run with --run-dir and --metrics to produce them)"
        )
    lines: List[str] = [f"=== Flight report: {run_dir} ==="]
    if meta:
        lines.append(
            "run: "
            + ", ".join(
                f"{key}={meta[key]}"
                for key in ("command", "preset", "seed")
                if meta.get(key) is not None
            )
        )
    lines.append("")

    # -- stages: status/attempts from quality, cost from profile ------------
    profiles_by_stage: Dict[str, Dict[str, Any]] = {}
    # The stage that last raised the process high-water mark set it.
    peak_stage = None
    for entry in (profile or {}).get("profiles", []):
        if "." not in entry["stage"]:  # layers are listed separately
            profiles_by_stage[entry["stage"]] = entry
            before = entry.get("peak_rss_before_kb")  # absent in older profiles
            if before is not None and entry.get("peak_rss_kb", 0) > before:
                peak_stage = entry["stage"]
    stage_rows = (quality or {}).get("stages", [])
    if stage_rows or profiles_by_stage:
        lines.append(
            f"{'stage':<12} {'status':<9} {'attempts':>8} {'wall_s':>8} "
            f"{'cpu_s':>8} {'peak_mb':>8} {'events':>9} {'ev/s':>10}"
        )
        names = [row["name"] for row in stage_rows] or sorted(
            profiles_by_stage
        )
        rows_by_name = {row["name"]: row for row in stage_rows}
        for name in names:
            row = rows_by_name.get(name, {})
            prof = profiles_by_stage.get(name, {})
            wall = prof.get("wall_s", row.get("elapsed", 0.0)) or 0.0
            lines.append(
                f"{name:<12} {row.get('status', '-'):<9} "
                f"{row.get('attempts', 0):>8} {wall:>8.3f} "
                f"{prof.get('cpu_s', 0.0):>8.3f} "
                f"{prof.get('peak_rss_kb', 0) / 1024:>8.1f} "
                f"{prof.get('events', 0):>9} "
                f"{prof.get('events_per_s', 0.0):>10.1f}"
                + ("  <- set the peak" if name == peak_stage else "")
            )
        lines.append("")

    # -- layers inside stages (synthesize / detect), from profile -----------
    layers = [
        entry
        for entry in (profile or {}).get("profiles", [])
        if "." in entry["stage"]
    ]
    if layers:
        # Victim partitions per stage, from the stage spans' attributes.
        partitions = {
            span["attrs"]["stage"]: span["attrs"]["partitions"]
            for span in trace or []
            if span.get("name") == "stage"
            and "partitions" in span.get("attrs", {})
        }
        lines.append(
            f"{'layer':<22} {'parts':>5} {'wall_s':>8} {'cpu_s':>8} "
            f"{'rows':>10} {'rows/s':>12} {'rss_mb before->after':>22}"
        )
        for entry in layers:
            rss = (
                f"{entry.get('rss_before_kb', 0) / 1024:.1f}->"
                f"{entry.get('rss_after_kb', 0) / 1024:.1f}"
            )
            parts = partitions.get(entry["stage"].split(".")[0], "-")
            lines.append(
                f"{entry['stage']:<22} {parts:>5} {entry['wall_s']:>8.3f} "
                f"{entry.get('cpu_s', 0.0):>8.3f} {entry.get('rows', 0):>10} "
                f"{entry.get('rows_per_s', 0.0):>12.1f} {rss:>22}"
            )
        lines.append("")

    # -- supervision: retries, worker kills, serve breaker trips ------------
    supervision: List[str] = []
    retries = _metric_total(metrics, "pipeline_stage_attempt_failures_total")
    if metrics is not None:
        supervision.append(f"  failed stage attempts (retried): "
                           f"{_fmt_count(retries)}")
    trips = _metric_series(metrics, "breaker_transitions_total")
    opened = sum(
        s["value"] for s in trips
        if s.get("labels", {}).get("to_state") == "open"
    )
    if trips:  # only runs with breakers (serve) have the series
        supervision.append(f"  breaker trips (-> open): {_fmt_count(opened)}")
    refused = _metric_total(metrics, "breaker_refusals_total")
    if refused:
        supervision.append(f"  attempts refused by breakers: "
                           f"{_fmt_count(refused)}")
    kills = _metric_total(metrics, "exec_workers_killed_total")
    crashes = _metric_total(
        metrics, "exec_task_outcomes_total", status="crashed"
    )
    if metrics is not None:
        supervision.append(f"  workers killed by watchdog: "
                           f"{_fmt_count(kills)}")
        supervision.append(f"  worker crashes detected: "
                           f"{_fmt_count(crashes)}")
    if supervision:
        lines.append("supervision:")
        lines.extend(supervision)
        lines.append("")

    # -- data loss: feed drops + quarantine ----------------------------------
    feeds = (quality or {}).get("feeds", [])
    drops = _metric_series(metrics, "records_quarantined_total")
    if feeds or drops:
        lines.append("data loss:")
        for feed in feeds:
            lines.append(
                f"  {feed['feed']:<10} {feed['status']:<9} "
                f"dropped={feed['events_dropped']} "
                f"observed={feed['events_observed']}"
            )
        for series in drops:
            labels = series.get("labels", {})
            lines.append(
                f"  quarantine {labels.get('feed') or '(unnamed)'} "
                f"[{labels.get('reason')}]: "
                f"{_fmt_count(series['value'])} record(s)"
            )
        lines.append("")

    # -- cross-run stage cache ------------------------------------------------
    cache_hits = _metric_total(metrics, "stage_cache_hits_total")
    cache_misses = _metric_total(metrics, "stage_cache_misses_total")
    if cache_hits or cache_misses:
        read_mb = _metric_total(
            metrics, "stage_cache_bytes_read_total"
        ) / 1e6
        written_mb = _metric_total(
            metrics, "stage_cache_bytes_written_total"
        ) / 1e6
        hit_stages = sorted(
            s.get("labels", {}).get("stage", "?")
            for s in _metric_series(metrics, "stage_cache_hits_total")
            if s.get("value")
        )
        line = (
            f"stage cache: {_fmt_count(cache_hits)} hit(s), "
            f"{_fmt_count(cache_misses)} miss(es), "
            f"{read_mb:.2f} MB read, {written_mb:.2f} MB written"
        )
        if hit_stages:
            line += f" [{', '.join(hit_stages)}]"
        lines.append(line)

    # -- storage -------------------------------------------------------------
    saves = _metric_total(metrics, "checkpoint_saves_total")
    if saves:
        mb = _metric_total(metrics, "checkpoint_bytes_written_total") / 1e6
        fsyncs = _metric_total(metrics, "store_fsyncs_total")
        lines.append(
            f"checkpoints: {_fmt_count(saves)} saved, {mb:.2f} MB written, "
            f"{_fmt_count(fsyncs)} fsync(s)"
        )

    # -- live service (serve data dirs double as run dirs) -------------------
    admitted = _metric_total(metrics, "serve_admitted_total")
    wal_appends = _metric_total(metrics, "serve_wal_appends_total")
    if admitted or wal_appends:
        applied = _metric_total(metrics, "serve_applied_total")
        shed = _metric_total(metrics, "serve_shed_total")
        rejected = _metric_total(metrics, "serve_rejected_total")
        lines.append("live service:")
        lines.append(
            f"  admitted {_fmt_count(admitted)}, applied "
            f"{_fmt_count(applied)}, shed {_fmt_count(shed)}, "
            f"rejected {_fmt_count(rejected)}"
        )
        by_feed = {
            s.get("labels", {}).get("feed", "?"): s.get("value", 0)
            for s in _metric_series(metrics, "serve_admitted_total")
        }
        if by_feed:
            lines.append(
                "  admitted by feed: "
                + ", ".join(
                    f"{feed}={_fmt_count(count)}"
                    for feed, count in sorted(by_feed.items())
                )
            )
        depth = _metric_total(metrics, "serve_queue_depth")
        shedding = _metric_total(metrics, "serve_shedding")
        lines.append(
            f"  queue depth at export: {_fmt_count(depth)} "
            f"(shed mode: {'on' if shedding else 'off'})"
        )
        snapshots = _metric_total(metrics, "serve_snapshots_total")
        snapshot_age = _metric_total(metrics, "serve_snapshot_age_seconds")
        wal_mb = _metric_total(metrics, "serve_wal_bytes_total") / 1e6
        fsyncs = _metric_total(metrics, "serve_wal_fsyncs_total")
        lines.append(
            f"  durability: {_fmt_count(snapshots)} snapshot(s) "
            f"(newest {snapshot_age:.1f}s old), "
            f"{_fmt_count(wal_appends)} WAL append(s), "
            f"{wal_mb:.2f} MB, {_fmt_count(fsyncs)} fsync(s)"
        )
        replayed = _metric_total(metrics, "serve_recovery_replayed")
        recovery_s = _metric_total(
            metrics, "serve_recovery_duration_seconds"
        )
        discarded = _metric_total(
            metrics, "serve_snapshots_discarded_total"
        )
        line = (
            f"  last recovery: {_fmt_count(replayed)} WAL record(s) "
            f"replayed in {recovery_s:.3f}s"
        )
        if discarded:
            line += f", {_fmt_count(discarded)} corrupt snapshot(s) skipped"
        lines.append(line)
        stalls = _metric_total(metrics, "serve_watchdog_stalls_total")
        if stalls:
            lines.append(
                f"  watchdog stalls: {_fmt_count(stalls)}"
            )
        lines.append("")

    # -- replication / cluster -----------------------------------------------
    if _metric_series(metrics, "serve_role"):
        role_code = int(_metric_total(metrics, "serve_role"))
        role = {0: "primary", 1: "replica", 2: "fenced"}.get(role_code, "?")
        epoch = int(_metric_total(metrics, "serve_epoch"))
        lines.append("cluster:")
        line = f"  role {role}, epoch {epoch}"
        promotions = _metric_total(metrics, "serve_promotions_total")
        fences = _metric_total(metrics, "serve_fences_total")
        if promotions or fences:
            line += (
                f", {_fmt_count(promotions)} promotion(s), "
                f"{_fmt_count(fences)} fence(s)"
            )
        lines.append(line)
        if _metric_series(metrics, "serve_replication_state"):
            state_code = int(
                _metric_total(metrics, "serve_replication_state")
            )
            state = {
                0: "init", 1: "streaming", 2: "bootstrapping", 3: "error",
            }.get(state_code, "?")
            committed = _metric_total(
                metrics, "serve_replication_committed_seq"
            )
            lag = _metric_total(metrics, "serve_replication_lag_records")
            lines.append(
                f"  shipper: {state}, committed seq "
                f"{_fmt_count(committed)}, lag {_fmt_count(lag)} record(s)"
            )
            polls = _metric_total(metrics, "serve_replication_polls_total")
            errors = _metric_total(metrics, "serve_replication_errors_total")
            fetch_mb = _metric_total(
                metrics, "serve_replication_fetch_bytes_total"
            ) / 1e6
            bootstraps = _metric_total(
                metrics, "serve_replication_bootstraps_total"
            )
            line = (
                f"  {_fmt_count(polls)} poll(s), {_fmt_count(errors)} "
                f"error(s), {fetch_mb:.2f} MB fetched"
            )
            if bootstraps:
                line += f", {_fmt_count(bootstraps)} snapshot bootstrap(s)"
            lines.append(line)
        follower_lags = _metric_series(
            metrics, "serve_replication_follower_lag"
        )
        if follower_lags:
            lines.append(
                "  followers: "
                + ", ".join(
                    f"{s.get('labels', {}).get('follower', '?')} lag "
                    f"{_fmt_count(s.get('value', 0))}"
                    for s in sorted(
                        follower_lags,
                        key=lambda s: s.get("labels", {}).get("follower", ""),
                    )
                )
            )
        sync_refused = _metric_total(metrics, "serve_sync_refused_total")
        if sync_refused:
            lines.append(
                f"  sync-ack refused: {_fmt_count(sync_refused)} record(s)"
            )
        lines.append("")

    # -- cluster health (the flight recorder's telemetry) --------------------
    health: List[str] = []
    wal_segments = _metric_total(metrics, "serve_wal_segments")
    if wal_segments:
        wal_disk_mb = _metric_total(metrics, "serve_wal_disk_bytes") / 1e6
        health.append(
            f"  WAL on disk: {_fmt_count(wal_segments)} segment(s), "
            f"{wal_disk_mb:.2f} MB"
        )
    lag_bytes = _metric_series(metrics, "serve_replication_lag_bytes")
    if lag_bytes:
        commit_age = _metric_total(
            metrics, "serve_replication_last_commit_age_seconds"
        )
        health.append(
            f"  replication byte lag: "
            f"{_fmt_count(_metric_total(metrics, 'serve_replication_lag_bytes'))} B, "
            f"last commit {commit_age:.1f}s ago"
        )
    follower_ages = _metric_series(
        metrics, "serve_replication_follower_age_seconds"
    )
    if follower_ages:
        health.append(
            "  follower freshness: "
            + ", ".join(
                f"{s.get('labels', {}).get('follower', '?')} reported "
                f"{s.get('value', 0):.1f}s ago"
                for s in sorted(
                    follower_ages,
                    key=lambda s: s.get("labels", {}).get("follower", ""),
                )
            )
        )
    http_series = _metric_series(metrics, "serve_http_request_seconds")
    if http_series:
        count = sum(s.get("count", 0) for s in http_series)
        total_s = sum(s.get("sum", 0.0) for s in http_series)
        mean_ms = (total_s / count * 1000) if count else 0.0
        errors = sum(
            s.get("count", 0)
            for s in http_series
            if str(s.get("labels", {}).get("status", "")).startswith("5")
        )
        health.append(
            f"  HTTP: {_fmt_count(count)} request(s), mean {mean_ms:.1f}ms, "
            f"{_fmt_count(errors)} 5xx"
        )
    history = art["history"]
    if history:
        spanned = history[-1].get("ts", 0.0) - history[0].get("ts", 0.0)
        health.append(
            f"  metrics history: {len(history)} window(s) "
            f"covering {spanned:.1f}s"
        )
    if health:
        lines.append("cluster health:")
        lines.extend(health)
        lines.append("")

    # -- slow requests (from the exported serve.http spans) ------------------
    http_spans = [
        span for span in (trace or [])
        if span.get("name") == "serve.http"
    ]
    if http_spans:
        slowest = sorted(
            http_spans,
            key=lambda s: (
                -float(s.get("duration", 0.0)),
                str(s.get("attrs", {}).get("trace_id", "")),
            ),
        )[:SLOW_REQUEST_ROWS]
        lines.append("slowest requests:")
        for span in slowest:
            attrs = span.get("attrs", {})
            lines.append(
                f"  {span.get('duration', 0.0) * 1000:8.1f}ms "
                f"{attrs.get('method', '?')} {attrs.get('endpoint', '?')} "
                f"status={attrs.get('status', '?')} "
                f"node={attrs.get('node', '?')} "
                f"trace={attrs.get('trace_id', '?')}"
            )
        lines.append("")

    # -- trace summary -------------------------------------------------------
    if trace:
        total = sum(span.get("duration", 0.0) for span in trace)
        roots = [s for s in trace if s.get("parent_id") is None]
        root_wall = sum(span.get("duration", 0.0) for span in roots)
        lines.append(
            f"trace: {len(trace)} span(s), {root_wall:.3f}s in "
            f"{len(roots)} root span(s), {total:.3f}s total span time"
        )
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


__all__ = [
    "META_FILE",
    "QUALITY_FILE",
    "load_run_artifacts",
    "render_flight_report",
]
