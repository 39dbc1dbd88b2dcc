"""Chaos drill for the live service: overload, slow consumer, kill -9.

The pipeline chaos drill (:mod:`repro.pipeline.chaos`) proves the batch
executor's failure envelope; this module proves the *service's*: the
three failure modes a long-running ingester actually meets in
production, each with a deterministic verdict.

* ``ingest-burst``  — batches arrive far faster than the applier drains;
  admission must shed (503 refusals and/or drop-oldest) instead of
  growing without bound, the accounting must close exactly
  (accepted = applied + dropped), and a restart from the data dir must
  land on the same state digest — load shedding may not cost recovery
  equivalence;
* ``slow-consumer`` — the applier is artificially slowed; the service
  must enter shed mode, keep answering (no blocked submit), and leave
  shed mode again once drained (watermark hysteresis, both directions);
* ``kill9-recover`` — a real ``python -m repro serve`` subprocess is
  SIGKILLed mid-ingest and restarted; the recovered process must report
  a state digest identical to the victim's last acknowledged state, in
  bounded time;
* ``cluster-failover`` (``chaos --serve-cluster``) — a primary with two
  ``--replica-of`` followers under synchronous-ack ingest is SIGKILLed
  mid-burst; the drill promotes the most-caught-up follower and proves
  **zero acked loss** (the promoted node's replication cursor covers
  every acknowledged sequence), **digest equivalence** (its state digest
  equals a truncated offline replay of the dead primary's own WAL — the
  oracle for "what the acked stream fuses to"), and **epoch fencing**
  (the restarted old primary is fenced by the new epoch, refuses writes
  with a 409 pointing at its successor, and refuses a *stale* fence).

All HTTP in this module goes through
:class:`~repro.serve.client.ServeClient` — the same Retry-After/failover
behavior operators get, not bespoke drill plumbing. Verdicts reuse
:class:`~repro.pipeline.chaos.ScenarioResult` so the CLI renders both
drills the same way.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

from repro.log import get_logger
from repro.pipeline.chaos import ScenarioResult
from repro.exec.retry import RetryPolicy
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.http import ENDPOINT_FILE
from repro.serve.service import LiveIngestService, ServeConfig, WAL_DIR
from repro.serve.state import LiveFusedStore
from repro.serve.wal import KIND_ATTACK, WriteAheadLog

log = get_logger("serve.chaos")

EXPECT_SHED = "deterministic load shedding"
EXPECT_HYSTERESIS = "shed mode entered and left"
EXPECT_EQUIVALENT = "state-equivalent recovery"
EXPECT_FAILOVER = "zero acked loss + fenced old primary"

#: Client retry schedule for drills: bounded and fast, seeded jitter so
#: a failing drill replays the same timing.
_DRILL_RETRY = RetryPolicy(
    max_attempts=4,
    backoff_base=0.05,
    backoff_max=0.5,
    jitter=True,
    jitter_seed=7,
)


def _event(i: int) -> dict:
    """Deterministic fixture event stream (strictly ordered)."""
    return {
        "source": "telescope",
        "target": (10 << 24) + (i % 4096),
        "start_ts": float(i),
        "end_ts": float(i) + 30.0,
        "intensity": 100.0 + (i % 17),
    }


def _restart_digest(data_dir: Path, config: ServeConfig) -> str:
    """State digest a fresh process recovers to from *data_dir*."""
    recovered = LiveIngestService(
        ServeConfig(
            data_dir=data_dir,
            max_events_per_victim=config.max_events_per_victim,
            baseline_days=config.baseline_days,
            alert_factor=config.alert_factor,
        )
    )
    recovered.start()
    try:
        return recovered.store.state_digest()
    finally:
        recovered.stop()


def run_ingest_burst(work_dir: Path, budget: float = 60.0) -> ScenarioResult:
    """Overload a tiny queue; shedding must be exact and recoverable."""
    started = time.monotonic()
    data_dir = work_dir / "burst"
    config = ServeConfig(
        data_dir=data_dir,
        queue_size=64,
        high_watermark=60,
        low_watermark=16,
        snapshot_every_events=50,
        apply_delay=0.002,
    )
    service = LiveIngestService(config)
    service.start()
    sent = accepted = refused = 0
    try:
        for batch_index in range(24):
            batch = [_event(batch_index * 48 + j) for j in range(48)]
            sent += len(batch)
            result = service.submit("telescope", KIND_ATTACK, batch)
            if result.refused:
                refused += len(batch)
            else:
                accepted += result.accepted
        if not service.quiesce(timeout=budget):
            return ScenarioResult(
                "ingest-burst", EXPECT_SHED, False,
                f"queue never drained (depth {service.queue.depth})",
                time.monotonic() - started,
            )
        dropped = sum(service.dropped_by_feed.values())
        applied = service.store.applied_events
        live_digest = service.store.state_digest()
        service.drain(timeout=budget)
    finally:
        service.stop()
    problems = []
    if refused == 0 and dropped == 0:
        problems.append("no shedding under 18x overcommit")
    if accepted != applied + dropped:
        problems.append(
            f"accounting leak: accepted {accepted} != "
            f"applied {applied} + dropped {dropped}"
        )
    recovered_digest = _restart_digest(data_dir, config)
    if recovered_digest != live_digest:
        problems.append("recovered digest differs from live digest")
    elapsed = time.monotonic() - started
    if problems:
        return ScenarioResult(
            "ingest-burst", EXPECT_SHED, False, "; ".join(problems), elapsed
        )
    return ScenarioResult(
        "ingest-burst", EXPECT_SHED, True,
        f"sent {sent}, accepted {accepted}, refused {refused}, "
        f"dropped {dropped}, applied {applied}; restart digest identical",
        elapsed,
    )


def run_slow_consumer(
    work_dir: Path, budget: float = 60.0
) -> ScenarioResult:
    """A slowed applier must trip shed mode, then recover via hysteresis."""
    started = time.monotonic()
    config = ServeConfig(
        data_dir=work_dir / "slow",
        queue_size=32,
        high_watermark=24,
        low_watermark=8,
        snapshot_every_events=500,
        apply_delay=0.01,
        heartbeat_timeout=0.2,
    )
    service = LiveIngestService(config)
    service.start()
    shed_seen = False
    slowest_submit = 0.0
    try:
        for i in range(40):
            batch = [_event(i * 8 + j) for j in range(8)]
            before = time.monotonic()
            service.submit("telescope", KIND_ATTACK, batch)
            slowest_submit = max(slowest_submit, time.monotonic() - before)
            if service.queue.shedding:
                shed_seen = True
        drained = service.quiesce(timeout=budget)
        shed_cleared = not service.queue.shedding
        post = service.submit("telescope", KIND_ATTACK, [_event(10_000)])
        service.drain(timeout=budget)
    finally:
        service.stop()
    problems = []
    if not shed_seen:
        problems.append("never entered shed mode")
    if not drained:
        problems.append("queue never drained")
    if not shed_cleared:
        problems.append("shed mode never cleared after drain")
    if not post.accepted:
        problems.append("submit refused after recovery")
    if slowest_submit > 1.0:
        problems.append(f"a submit blocked for {slowest_submit:.2f}s")
    elapsed = time.monotonic() - started
    if problems:
        return ScenarioResult(
            "slow-consumer", EXPECT_HYSTERESIS, False,
            "; ".join(problems), elapsed,
        )
    return ScenarioResult(
        "slow-consumer", EXPECT_HYSTERESIS, True,
        f"shed mode entered and left; slowest submit {slowest_submit*1000:.0f}ms",
        elapsed,
    )


# -- kill -9 against a real subprocess ----------------------------------------


def wait_for_endpoint(
    data_dir: Path, timeout: float = 20.0
) -> Tuple[str, int]:
    """Block until the service wrote its endpoint file and answers."""
    path = data_dir / ENDPOINT_FILE
    deadline = time.monotonic() + timeout
    probe = RetryPolicy(max_attempts=1)
    while time.monotonic() < deadline:
        if path.exists():
            try:
                info = json.loads(path.read_text(encoding="utf-8"))
                url = f"http://{info['host']}:{info['port']}"
                ServeClient([url], retry=probe, timeout=5.0).get_json(
                    "/healthz"
                )
                return info["host"], info["port"]
            except (ValueError, KeyError, OSError, ServeClientError):
                pass
        time.sleep(0.05)
    raise TimeoutError(f"service at {data_dir} never became ready")


def _node_url(data_dir: Path, timeout: float = 20.0) -> str:
    host, port = wait_for_endpoint(data_dir, timeout=timeout)
    return f"http://{host}:{port}"


def _client(*urls: str, trace_prefix: str = "client") -> ServeClient:
    return ServeClient(
        list(urls), retry=_DRILL_RETRY, timeout=10.0,
        trace_prefix=trace_prefix,
    )


def _spawn_serve(data_dir: Path, extra: Tuple[str, ...] = ()) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--data-dir", str(data_dir),
            "--port", "0",
            "--snapshot-every", "20",
        ]
        + list(extra),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _await_applied(client: ServeClient, url: str, budget: float) -> dict:
    """Poll /stats until the applier caught up with intake."""
    deadline = time.monotonic() + budget
    while True:
        stats = client.stats(endpoint=url)
        if stats["applied_seq"] >= stats["seq"] and stats["queue_depth"] == 0:
            return stats
        if time.monotonic() >= deadline:
            raise TimeoutError("applier never caught up with intake")
        time.sleep(0.05)


def run_kill9_recover(
    work_dir: Path,
    budget: float = 120.0,
    # Not a multiple of the snapshot cadence, so recovery must exercise
    # WAL replay, not just the snapshot load.
    events: int = 130,
    recovery_budget: float = 30.0,
) -> ScenarioResult:
    """SIGKILL a live serve process mid-ingest; the restart must match."""
    started = time.monotonic()
    data_dir = work_dir / "kill9"
    victim = _spawn_serve(data_dir)
    restarted: Optional[subprocess.Popen] = None
    try:
        url = _node_url(data_dir)
        client = _client(url)
        for base in range(0, events, 30):
            batch = [_event(base + j) for j in range(min(30, events - base))]
            response = client.post_json(
                "/ingest/attacks?feed=telescope", {"records": batch},
                endpoint=url,
            )
            if response.status != 202:
                return ScenarioResult(
                    "kill9-recover", EXPECT_EQUIVALENT, False,
                    f"ingest answered {response.status}",
                    time.monotonic() - started,
                )
        _await_applied(client, url, budget / 2)
        before = client.digest(endpoint=url)
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=10)
        # The endpoint file still names the dead process; remove it so
        # readiness below cannot race against the stale port.
        (data_dir / ENDPOINT_FILE).unlink()
        restart_begin = time.monotonic()
        restarted = _spawn_serve(data_dir)
        url = _node_url(data_dir)
        recovery_elapsed = time.monotonic() - restart_begin
        client = _client(url)
        after = client.digest(endpoint=url)
        stats = client.stats(endpoint=url)
        problems = []
        if after["digest"] != before["digest"]:
            problems.append(
                "digest mismatch after kill -9 "
                f"({before['digest'][:12]} != {after['digest'][:12]})"
            )
        if recovery_elapsed > recovery_budget:
            problems.append(
                f"recovery took {recovery_elapsed:.1f}s "
                f"(budget {recovery_budget:.0f}s)"
            )
        elapsed = time.monotonic() - started
        if problems:
            return ScenarioResult(
                "kill9-recover", EXPECT_EQUIVALENT, False,
                "; ".join(problems), elapsed,
            )
        recovery = stats["recovery"]
        return ScenarioResult(
            "kill9-recover", EXPECT_EQUIVALENT, True,
            f"digest identical after SIGKILL; snapshot seq "
            f"{recovery['snapshot_seq']}, replayed {recovery['replayed']}, "
            f"ready again in {recovery_elapsed:.1f}s",
            elapsed,
        )
    except (TimeoutError, OSError, subprocess.SubprocessError) as exc:
        return ScenarioResult(
            "kill9-recover", EXPECT_EQUIVALENT, False,
            f"{type(exc).__name__}: {exc}", time.monotonic() - started,
        )
    finally:
        for proc in (victim, restarted):
            if proc is not None and proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()


# -- cluster failover ----------------------------------------------------------


def _oracle_digest(primary_dir: Path, upto_seq: int) -> str:
    """Digest of a clean, truncated replay of the dead primary's WAL.

    The ground truth for failover: the state the acked stream fuses to
    at ``upto_seq``, computed offline from the victim's intact data dir
    with the same deterministic apply the live nodes use (including the
    whole-log shed set — a tombstone past the cut still sheds records
    under it). A promoted follower that matches this digest provably
    holds the primary's acknowledged history, not an approximation.
    """
    wal = WriteAheadLog(primary_dir / WAL_DIR)
    records, _report = wal.replay(after_seq=0, upto_seq=upto_seq)
    store = LiveFusedStore(
        baseline_days=7, alert_factor=3.0, max_events_per_victim=256
    )
    for record in records:
        try:
            if record.kind == KIND_ATTACK:
                store.apply_attack(record.record)
            else:
                store.apply_dps(record.record)
        except ValueError:
            # Deterministic apply rejection: the live nodes skipped this
            # record identically.
            continue
    return store.state_digest()


def _merge_cluster_trace(work_dir: Path, node_dirs: List[Path]) -> List[str]:
    """Merge per-node ``trace.jsonl`` files; return cross-node trace IDs.

    Reads the flight-recorder spans each surviving node exported at
    graceful shutdown, writes the union to ``cluster-trace.jsonl``, and
    returns the burst-client trace IDs whose spans were recorded on two
    or more distinct nodes — the end-to-end propagation proof: the ID a
    client attached at ingress came back out of another node's WAL
    apply path.
    """
    spans: List[dict] = []
    for node_dir in node_dirs:
        path = node_dir / "trace.jsonl"
        if not path.exists():
            continue
        for line in path.read_text(encoding="utf-8").splitlines():
            if line:
                try:
                    spans.append(json.loads(line))
                except ValueError:
                    continue
    (work_dir / "cluster-trace.jsonl").write_text(
        "".join(
            json.dumps(span, sort_keys=True) + "\n" for span in spans
        ),
        encoding="utf-8",
    )
    nodes_by_trace: dict = {}
    for span in spans:
        attrs = span.get("attrs") or {}
        trace_id = attrs.get("trace_id")
        node = attrs.get("node")
        if isinstance(trace_id, str) and trace_id.startswith("burst-") and node:
            nodes_by_trace.setdefault(trace_id, set()).add(node)
    return sorted(
        trace_id
        for trace_id, nodes in nodes_by_trace.items()
        if len(nodes) >= 2
    )


def _settled_committed(client: ServeClient, url: str, budget: float) -> int:
    """A follower's committed seq once it stops advancing (primary dead)."""
    deadline = time.monotonic() + budget
    last = -1
    while time.monotonic() < deadline:
        rep = client.stats(endpoint=url).get("replication") or {}
        committed = int(rep.get("committed_seq") or 0)
        if committed == last:
            return committed
        last = committed
        time.sleep(0.2)
    return max(0, last)


def run_cluster_failover(
    work_dir: Path, quick: bool = False, scenario_budget: float = 240.0
) -> ScenarioResult:
    """Kill -9 the primary mid-burst; promote; verify loss, digest, fence."""
    started = time.monotonic()
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    primary_dir = work_dir / "cluster-primary"
    follower_dirs = [work_dir / "cluster-f1", work_dir / "cluster-f2"]
    batches = 8 if quick else 24
    batch_size = 25
    # The primary never snapshots: its WAL then spans the whole run from
    # sequence one, which is what makes the offline oracle replay — and
    # the restarted old primary's recovery — cover everything. Sync-ack
    # with one replica means every 202 is committed on a follower before
    # the client hears it: the invariant the kill tries to break.
    primary_flags = (
        "--snapshot-every", "100000", "--snapshot-interval", "100000",
        "--sync-replicas", "1", "--sync-timeout", "20",
        "--retry-after", "0.2",
    )
    procs: List[subprocess.Popen] = []
    try:
        primary_proc = _spawn_serve(primary_dir, primary_flags)
        procs.append(primary_proc)
        primary_url = _node_url(primary_dir)
        follower_procs: List[subprocess.Popen] = []
        for index, follower_dir in enumerate(follower_dirs):
            # --metrics arms the flight recorder: a graceful exit leaves
            # trace.jsonl (with WAL-propagated client trace IDs) and
            # metrics artifacts in each follower's data dir.
            follower_procs.append(
                _spawn_serve(
                    follower_dir,
                    (
                        "--replica-of", primary_url,
                        "--follower-id", f"f{index + 1}",
                        "--poll-interval", "0.05",
                        "--snapshot-every", "100000",
                        "--snapshot-interval", "100000",
                        "--metrics",
                    ),
                )
            )
        procs.extend(follower_procs)
        follower_urls = [_node_url(d) for d in follower_dirs]
        client = _client(primary_url, *follower_urls)
        # Both followers must be registered before the burst, or the
        # first sync-ack batch eats the whole sync timeout.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status = client.replication_status(endpoint=primary_url)
            if len(status.get("followers") or {}) >= len(follower_urls):
                break
            time.sleep(0.1)
        else:
            raise TimeoutError("followers never registered with the primary")

        # Burst from a separate thread, kill -9 mid-flight.
        burst_state = {"acked": 0, "sent": 0, "refused_after_kill": False}

        def _burst() -> None:
            # Distinct trace prefix: the cross-node evidence below must
            # match *this* client's writes, not drill bookkeeping polls.
            sender = _client(primary_url, trace_prefix="burst")
            for batch_index in range(batches):
                batch = [
                    _event(batch_index * batch_size + j)
                    for j in range(batch_size)
                ]
                burst_state["sent"] += len(batch)
                try:
                    response = sender.post_json(
                        "/ingest/attacks?feed=telescope",
                        {"records": batch},
                        endpoint=primary_url,
                    )
                except ServeClientError:
                    # The primary is dead: nothing past this point was
                    # acknowledged, so nothing past this point is owed.
                    burst_state["refused_after_kill"] = True
                    return
                if response.status == 202:
                    burst_state["acked"] = max(
                        burst_state["acked"],
                        int(response.body.get("last_seq") or 0),
                    )

        burst = threading.Thread(target=_burst, name="cluster-burst")
        burst.start()
        kill_threshold = (batches * batch_size) // 3
        while burst.is_alive() and burst_state["acked"] < kill_threshold:
            time.sleep(0.02)
        os.kill(primary_proc.pid, signal.SIGKILL)
        primary_proc.wait(timeout=10)
        burst.join(timeout=scenario_budget / 3)
        acked = burst_state["acked"]

        # Promote the most-caught-up follower (highest settled cursor).
        committed_by_url = {
            url: _settled_committed(client, url, budget=20.0)
            for url in follower_urls
        }
        promoted_url = max(committed_by_url, key=committed_by_url.get)
        standby_url = next(u for u in follower_urls if u != promoted_url)
        if quick:
            client.promote(promoted_url)
        else:
            # Full drill exercises the operator path, not just the API.
            completed = subprocess.run(
                [
                    sys.executable, "-m", "repro", "serve-promote",
                    "--url", promoted_url,
                ],
                capture_output=True, text=True, timeout=60,
            )
            if completed.returncode != 0:
                raise RuntimeError(
                    f"serve-promote failed: {completed.stderr.strip()}"
                )
        health = client.get_json("/healthz", endpoint=promoted_url)
        new_epoch = int(health["epoch"])

        problems: List[str] = []
        if health["role"] != "primary":
            problems.append(f"promoted node's role is {health['role']!r}")
        promoted_stats = client.stats(endpoint=promoted_url)
        promoted_committed = int(
            (promoted_stats.get("replication") or {}).get("committed_seq")
            or 0
        )
        if promoted_committed < acked:
            problems.append(
                f"acked records lost: cursor {promoted_committed} "
                f"< acked {acked}"
            )
        # Digest equivalence against the truncated oracle — checked
        # before any post-failover write can move the promoted state.
        promoted_digest = client.digest(endpoint=promoted_url)
        oracle = _oracle_digest(
            primary_dir, int(promoted_digest["applied_seq"])
        )
        if promoted_digest["digest"] != oracle:
            problems.append(
                "promoted digest diverges from the primary's WAL replay "
                f"({promoted_digest['digest'][:12]} != {oracle[:12]})"
            )
        standby_digest = client.digest(endpoint=standby_url)
        standby_oracle = _oracle_digest(
            primary_dir, int(standby_digest["applied_seq"])
        )
        if standby_digest["digest"] != standby_oracle:
            problems.append("standby follower digest diverges from oracle")
        # The new primary takes writes.
        post = client.post_json(
            "/ingest/attacks?feed=telescope",
            {"records": [_event(batches * batch_size + 1)]},
            endpoint=promoted_url,
        )
        if post.status != 202:
            problems.append(
                f"promoted node refused a write ({post.status})"
            )
        # Resurrect the old primary and fence it: it must refuse writes
        # (pointing at its successor) and refuse a stale-epoch fence.
        (primary_dir / ENDPOINT_FILE).unlink()
        procs.append(_spawn_serve(primary_dir, primary_flags))
        old_url = _node_url(primary_dir)
        fence = client.fence(old_url, new_epoch, primary_url=promoted_url)
        if fence.status != 200:
            problems.append(f"fence answered {fence.status}")
        stale = client.fence(old_url, 1, primary_url=promoted_url)
        if stale.status != 409:
            problems.append(
                f"stale-epoch fence was not refused ({stale.status})"
            )
        fenced_write = client.post_json(
            "/ingest/attacks?feed=telescope",
            {"records": [_event(0)]},
            endpoint=old_url,
        )
        if fenced_write.status != 409:
            problems.append(
                f"fenced primary accepted a write ({fenced_write.status})"
            )
        elif fenced_write.body.get("primary_url") != promoted_url:
            problems.append("fenced 409 does not hint the new primary")
        # Flight-recorder evidence, gathered over HTTP while the
        # followers still serve: one /status document and the rolling
        # metrics history from the new primary.
        promoted_status = client.get_json("/status", endpoint=promoted_url)
        (work_dir / "promoted-status.json").write_text(
            json.dumps(promoted_status, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        history = client.get_json(
            "/metrics/history?last=5", endpoint=promoted_url
        )
        if not history.get("window_count"):
            problems.append("/metrics/history returned no windows")
        lag_gauges = {}
        windows = history.get("windows") or [{}]
        for key, value in (windows[-1].get("gauges") or {}).items():
            if key.startswith("serve_replication_lag"):
                lag_gauges[key] = value
        # Graceful follower shutdown *before* reading artifacts: the
        # flight recorder flushes trace.jsonl and metrics on SIGTERM.
        for proc in follower_procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in follower_procs:
            if proc.poll() is None:
                proc.wait(timeout=30)
        cross_node = _merge_cluster_trace(work_dir, follower_dirs)
        if not cross_node:
            problems.append(
                "no burst trace ID appears in spans on two distinct nodes"
            )
        # Leave a machine-readable verdict where CI can pick it up.
        verdict = {
            "acked_last_seq": acked,
            "sent_records": burst_state["sent"],
            "promoted_url": promoted_url,
            "promoted_committed_seq": promoted_committed,
            "promoted_applied_seq": int(promoted_digest["applied_seq"]),
            "promoted_digest": promoted_digest["digest"],
            "oracle_digest": oracle,
            "new_epoch": new_epoch,
            "history_windows": int(history.get("window_count") or 0),
            "replication_lag_gauges": lag_gauges,
            "follower_lag": promoted_status.get("followers", {}),
            "requests_seen": promoted_status.get("requests", {}).get(
                "total", 0
            ),
            "cross_node_traces": cross_node[:5],
            "problems": problems,
        }
        (work_dir / "cluster-failover-verdict.json").write_text(
            json.dumps(verdict, indent=2) + "\n", encoding="utf-8"
        )
        elapsed = time.monotonic() - started
        if problems:
            return ScenarioResult(
                "cluster-failover", EXPECT_FAILOVER, False,
                "; ".join(problems), elapsed,
            )
        return ScenarioResult(
            "cluster-failover", EXPECT_FAILOVER, True,
            f"acked {acked} seqs; promoted follower cursor "
            f"{promoted_committed} covers them; digest == WAL-replay "
            f"oracle at seq {promoted_digest['applied_seq']}; old primary "
            f"fenced at epoch {new_epoch}, stale fence refused; "
            f"{len(cross_node)} trace IDs span two nodes, "
            f"{verdict['history_windows']} history windows",
            elapsed,
        )
    except (
        TimeoutError, OSError, RuntimeError,
        ServeClientError, subprocess.SubprocessError,
    ) as exc:
        return ScenarioResult(
            "cluster-failover", EXPECT_FAILOVER, False,
            f"{type(exc).__name__}: {exc}", time.monotonic() - started,
        )
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()


def run_serve_chaos_drill(
    work_dir: Path, quick: bool = False, scenario_budget: float = 120.0
) -> List[ScenarioResult]:
    """All serve scenarios; ``quick`` drops the slow-consumer soak."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    results = [run_ingest_burst(work_dir, budget=scenario_budget)]
    if not quick:
        results.append(run_slow_consumer(work_dir, budget=scenario_budget))
    results.append(
        run_kill9_recover(work_dir, budget=scenario_budget)
    )
    for result in results:
        log.info(
            "serve chaos scenario finished",
            scenario=result.name,
            passed=result.passed,
            detail=result.detail,
        )
    return results


__all__ = [
    "EXPECT_EQUIVALENT",
    "EXPECT_FAILOVER",
    "EXPECT_HYSTERESIS",
    "EXPECT_SHED",
    "run_cluster_failover",
    "run_ingest_burst",
    "run_kill9_recover",
    "run_serve_chaos_drill",
    "run_slow_consumer",
    "wait_for_endpoint",
]
