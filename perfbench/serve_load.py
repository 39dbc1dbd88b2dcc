"""Load for the ``serve-ingest`` workload and the sessions that apply it.

One session is one service lifetime with a fixed amount of work:

* a closed-loop writer posts the fused attack events of
  ``LOAD_SCENARIOS`` default-preset simulations, in ``BATCH_RECORDS``
  record batches back to back, waiting for each ack before sending the
  next, alternating the ``telescope`` and ``honeypot`` feeds, one
  connection per request (as ``HttpTransport`` does);
* an open-loop reader sends a fixed mix of ``/attacks?ip``,
  ``/attacks?prefix``, ``/victims`` and ``/summary`` as Poisson arrivals
  at ``READ_RATE`` per second while the writer runs, and times each read
  from when it was due, so a stalled server also delays the reads queued
  behind it.

The load comes from one process with two threads and at most two open
connections. After the writer finishes, the session waits until
``/stats`` shows every acknowledged record applied, which is also the
session's correctness check.

On a machine with two or more CPUs the load generator runs on the first
and the server on the rest (``split_cpus``), so the two never queue for
the same core and a session's timings depend less on where the kernel
happened to place their threads.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

BATCH_RECORDS = 64
#: Simulations whose fused events make a session: about 6,700 events
#: each on the default preset, so two give about 13,000 records.
LOAD_SCENARIOS = 2
#: Reads per second. A chosen rate, not a measured one: a run collects
#: thousands of reads, so the read p99 has tens of samples beyond it,
#: without the reader saturating the two cores.
READ_RATE = 200.0
FEEDS = ("telescope", "honeypot")
DAY_S = 86400.0
TIMEOUT_S = 30.0
LOAD_TIMEOUT_S = 120.0

clock = time.monotonic


@dataclass
class SessionLoad:
    """Pre-encoded request bodies and read paths of one session."""

    bodies: List[Tuple[str, bytes]]
    reads: List[str]
    seed: int


def simulated_records(seed: int, k: int) -> List[dict]:
    """The service's real input: fused events of one seeded simulation.

    ``run_simulation`` on the default preset with scenario seed
    ``seed*1000+k``, each event as ``event_to_dict`` writes it, in
    ``start_ts`` order. Every simulation covers the same window, so the
    k-th is shifted k windows later: the streams concatenated in order of
    k are in ``start_ts`` order too (the live fusion accepts at most a
    day of reordering).
    """
    from pipeline_job import scenario
    from repro.pipeline.datasets import event_to_dict
    from repro.pipeline.simulation import run_simulation

    config = scenario("pipeline-default", seed * 1000 + k)
    events = run_simulation(config).fused.combined
    shift = k * config.n_days * DAY_S
    records = []
    for event in sorted(events, key=lambda event: event.start_ts):
        record = event_to_dict(event)
        record["start_ts"] += shift
        record["end_ts"] += shift
        records.append(record)
    return records


def make_load(seed: int, work: Path) -> SessionLoad:
    """Request bodies and read paths, made before anything is timed.

    The simulations run in child processes, all at once since nothing is
    timed yet: the service's process is spawned from this one, and Linux
    counts the spawner's resident set into the child's ``ru_maxrss``, so
    this process must stay small.

    Each batch holds the next ``BATCH_RECORDS`` records in time order,
    whichever detector found them (a record keeps its own ``source``;
    the feed only names the admission lane). Reads look up victims drawn
    from the records, so a victim is read as often as it is attacked.
    """
    paths = [work / f"load-records-{k}.json" for k in range(LOAD_SCENARIOS)]
    children = [
        subprocess.Popen([sys.executable, __file__, str(seed), str(k), str(path)])
        for k, path in enumerate(paths)
    ]
    try:
        codes = [child.wait(LOAD_TIMEOUT_S) for child in children]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    if any(codes):
        raise RuntimeError(f"making the load failed: exit codes {codes}")
    records = [
        record for path in paths
        for record in json.loads(path.read_text(encoding="utf-8"))
    ]
    bodies = []
    for batch in range(len(records) // BATCH_RECORDS):
        chunk = records[batch * BATCH_RECORDS:(batch + 1) * BATCH_RECORDS]
        bodies.append(
            (
                f"/ingest/attacks?feed={FEEDS[batch % 2]}",
                json.dumps({"records": chunk}).encode("utf-8"),
            )
        )
    rng = random.Random(seed)
    reads = []
    for index in range(256):
        ip = rng.choice(records)["target"]
        base = ip & ~0xFF
        dotted = ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))
        prefix = ".".join(str((base >> shift) & 0xFF) for shift in (24, 16, 8, 0))
        reads.append(
            (
                f"/attacks?ip={dotted}",
                f"/attacks?prefix={prefix}/24",
                f"/victims?prefix={prefix}/24",
                "/summary",
            )[index % 4]
        )
    return SessionLoad(bodies=bodies, reads=reads, seed=seed)


def request(port: int, method: str, path: str, body: Optional[bytes] = None):
    """One exchange on a fresh connection: (status, body bytes)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@dataclass
class SessionResult:
    ack_ms: List[float] = field(default_factory=list)
    read_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    ingest_attempts: int = 0
    ingest_failed: int = 0
    read_attempts: int = 0
    read_failed: int = 0
    acked_records: int = 0
    applied_events: int = -1
    ingest_s: float = 0.0
    failures: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.ingest_attempts + self.read_attempts

    @property
    def failed(self) -> int:
        return self.ingest_failed + self.read_failed + len(self.failures)


def _reader(port: int, load: SessionLoad, stop: threading.Event,
            out: SessionResult) -> None:
    # Poisson arrivals at READ_RATE: a fixed period would lock onto the
    # writer's cycle and sample the same phase of it for seconds at a time.
    gaps = random.Random(load.seed)
    due = clock()
    index = 0
    while True:
        due += gaps.expovariate(READ_RATE)
        wait = due - clock()
        if wait > 0 and stop.wait(wait):
            return
        if stop.is_set():
            return
        sent = clock()
        out.late_ms.append((sent - due) * 1000.0)
        out.read_attempts += 1
        try:
            status, _ = request(port, "GET", load.reads[index % len(load.reads)])
        except OSError:
            status = 0
        out.read_ms.append((clock() - due) * 1000.0)
        if status != 200:
            out.read_failed += 1
        index += 1


def run_session(port: int, load: SessionLoad) -> SessionResult:
    """Drive one session's writer and reader, then wait for apply."""
    out = SessionResult()
    stop = threading.Event()
    reader = threading.Thread(
        target=_reader, args=(port, load, stop, out), name="perfbench-reader"
    )
    began = clock()
    reader.start()
    try:
        for path, body in load.bodies:
            sent = clock()
            out.ingest_attempts += 1
            try:
                status, data = request(port, "POST", path, body)
            except OSError:
                status, data = 0, b""
            out.ack_ms.append((clock() - sent) * 1000.0)
            if status == 202:
                out.acked_records += json.loads(data)["accepted"]
            else:
                out.ingest_failed += 1
        out.ingest_s = clock() - began
    finally:
        stop.set()
        reader.join(TIMEOUT_S)
    deadline = clock() + TIMEOUT_S
    while clock() < deadline:
        status, data = request(port, "GET", "/stats")
        if status == 200:
            out.applied_events = json.loads(data)["summary"]["applied_events"]
            if out.applied_events >= out.acked_records:
                break
        time.sleep(0.01)
    if out.applied_events != out.acked_records:
        out.failures.append(
            f"acked {out.acked_records} records but /stats applied_events "
            f"is {out.applied_events}"
        )
    return out


# -- the service in its own process -----------------------------------------


@dataclass
class ServerRun:
    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


class ServerProcess:
    """``python -m repro serve --data-dir D --port 0`` with default flags."""

    def __init__(self, root: Path, data_dir: Path, log_path: Path,
                 cpus: Optional[Set[int]] = None) -> None:
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(log_path, "ab")
        self.spawned = clock()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--data-dir", str(data_dir), "--port", "0"],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            # Set before exec, so every thread the server starts inherits it.
            preexec_fn=None if cpus is None
            else lambda: os.sched_setaffinity(0, cpus),
        )
        self.port = self._await_healthy(data_dir / "endpoint.json")
        self.healthy = clock()

    def _await_healthy(self, endpoint: Path) -> int:
        deadline = clock() + TIMEOUT_S
        while clock() < deadline:
            if self.proc.poll() is not None:
                self.kill()
                raise RuntimeError(f"serve exited with {self.proc.returncode}")
            try:
                port = json.loads(endpoint.read_text(encoding="utf-8"))["port"]
                if request(port, "GET", "/healthz")[0] == 200:
                    return port
            except (OSError, ValueError, KeyError):
                pass
            time.sleep(0.005)
        self.kill()
        raise RuntimeError("serve did not become healthy")

    def stop(self) -> ServerRun:
        """SIGTERM (graceful drain), then reap with resource usage."""
        self.proc.send_signal(signal.SIGTERM)
        deadline = clock() + TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if clock() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        exited = clock()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._log.close()
        return ServerRun(
            setup_s=self.healthy - self.spawned,
            wall_s=exited - self.spawned,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=self.proc.returncode,
        )

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(TIMEOUT_S)
        self._log.close()


def split_cpus() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """(load generator CPUs, server CPUs), or (None, None) on one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


@contextmanager
def pinned(cpus: Optional[Set[int]]) -> Iterator[None]:
    """Run the calling thread, and threads it starts, on *cpus*."""
    if cpus is None:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    Path(sys.argv[3]).write_text(
        json.dumps(simulated_records(int(sys.argv[1]), int(sys.argv[2]))),
        encoding="utf-8",
    )
