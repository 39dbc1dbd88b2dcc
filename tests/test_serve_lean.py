"""The live service loads only itself: no numpy, no batch pipeline.

``python -m repro serve`` ingests, fuses and queries the fused
attack-event schema; it runs no synthesis, detection or DNS
measurement, so it must not import the layers that do. These tests run
whole serve sessions in subprocesses — ingest past several snapshots
and a WAL prune, every GET endpoint, a SIGTERM drain, restarts that
load the snapshot and replay the WAL — and read from the process itself
which modules it imported. A heavy import deferred to the first request
or to recovery fails them just as one at startup would.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.serve.service import WAL_DIR
from repro.serve.wal import segment_name

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules the live service must never import.
HEAVY = (
    "numpy",
    "repro.pipeline",
    "repro.attacks",
    "repro.telescope",
    "repro.honeypot",
    "repro.internet",
    "repro.dns",
    "repro.dps",
)

#: ``python -c RECORDER LOG ARGS...`` runs ``python -m repro ARGS`` and
#: appends the name of every module it imports to LOG as the import
#: happens, so the record survives a SIGKILL too.
RECORDER = """\
import runpy, sys

LOG = sys.argv.pop(1)


class ImportRecorder:
    def find_spec(self, name, path=None, target=None):
        with open(LOG, "a", encoding="utf-8") as handle:
            handle.write(name + "\\n")
        return None


sys.meta_path.insert(0, ImportRecorder())
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""

SNAPSHOT_EVERY = 200
BATCH = 64


def heavy_imports(log: Path) -> list:
    names = log.read_text(encoding="utf-8").split() if log.exists() else []
    return sorted({
        name for name in names
        if any(name == h or name.startswith(h + ".") for h in HEAVY)
    })


def attack(i: int) -> dict:
    return {
        "source": "telescope" if i % 3 else "honeypot",
        "target": (10 << 24) + i % 200,
        "start_ts": 60.0 * i,
        "end_ts": 60.0 * i + 300.0,
        "intensity": 5.0 + i % 17,
        "ports": [80] if i % 2 else [],
    }


class Server:
    """One recorded ``repro serve`` process on an ephemeral port."""

    def __init__(self, data_dir: Path, log: Path, *extra: str) -> None:
        endpoint = data_dir / "endpoint.json"
        if endpoint.exists():
            endpoint.unlink()
        self.proc = subprocess.Popen(
            [sys.executable, "-c", RECORDER, str(log), "serve",
             "--data-dir", str(data_dir), "--port", "0",
             "--snapshot-every", str(SNAPSHOT_EVERY), *extra],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.port = self._await_healthy(endpoint)

    def _await_healthy(self, endpoint: Path) -> int:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            assert self.proc.poll() is None, self.proc.stderr.read().decode()
            try:
                port = json.loads(endpoint.read_text(encoding="utf-8"))["port"]
                if self.request("GET", "/healthz", port=port)[0] == 200:
                    return port
            except (OSError, ValueError, KeyError):
                pass
            time.sleep(0.02)
        self.proc.kill()
        raise AssertionError("serve did not become healthy")

    def request(self, method: str, path: str, body=None, port=None):
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            f"http://127.0.0.1:{port or self.port}{path}", data=data,
            method=method, headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read().decode("utf-8")

    def get_json(self, path: str) -> dict:
        status, text = self.request("GET", path)
        assert status == 200, (path, text)
        return json.loads(text)

    def ingest(self, first: int, count: int) -> None:
        for start in range(first, first + count, BATCH):
            batch = [attack(i) for i in range(start, min(start + BATCH,
                                                        first + count))]
            status, _ = self.request("POST", "/ingest/attacks", batch)
            assert status == 202

    def ingest_dps(self, count: int) -> None:
        status, _ = self.request("POST", "/ingest/dps", [
            {"domain": f"site{i}.example", "provider": "CloudFlare",
             "day": i} for i in range(count)
        ])
        assert status == 202

    def await_stats(self, done) -> dict:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            stats = self.get_json("/stats")
            if done(stats):
                return stats
            time.sleep(0.02)
        raise AssertionError(f"/stats never settled: {stats}")

    def query_everything(self) -> None:
        for path in (
            "/attacks?ip=10.0.0.7",
            "/attacks?prefix=10.0.0.0/24",
            "/victims?prefix=10.0.0.0/24",
            "/summary",
            "/domains",
            "/domains?domain=site1.example",
            "/stats",
            "/status",
            "/digest",
            "/metrics/history",
            "/healthz",
        ):
            self.get_json(path)
        status, _ = self.request("GET", "/metrics")
        assert status == 200

    def assert_numpy_not_mapped(self) -> None:
        maps = Path(f"/proc/{self.proc.pid}/maps").read_text()
        assert "_multiarray_umath" not in maps

    def terminate(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        assert self.proc.wait(30) == 0, self.proc.stderr.read().decode()
        self.proc.stderr.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait(30)
        self.proc.stderr.close()


@pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                    reason="reads the server's memory map from /proc")
def test_serve_session_never_imports_numpy_or_the_pipeline(tmp_path):
    data_dir = tmp_path / "serve"
    logs = [tmp_path / f"imports-{n}.log" for n in range(3)]

    # Session 1: ingest up to the second base, at ten snapshots (the
    # WAL is then pruned up to the first base; a lone base is never a
    # prune point), query every endpoint, drain on SIGTERM. Each chunk
    # waits for its snapshot, so every rotation lands on a chunk
    # boundary.
    server = Server(data_dir, logs[0], "--metrics")
    try:
        for chunk in range(10):
            server.ingest(chunk * SNAPSHOT_EVERY, SNAPSHOT_EVERY)
            seq = (chunk + 1) * SNAPSHOT_EVERY
            server.await_stats(lambda s: seq in s["snapshot_seqs"])
        server.ingest_dps(5)
        server.await_stats(lambda s: s["applied_seq"] == seq + 5)
        assert not (data_dir / WAL_DIR / segment_name(1)).exists()  # pruned
        server.query_everything()
        metrics = server.request("GET", "/metrics")[1]
        assert "serve_wal_fsync_seconds_count" in metrics
        server.assert_numpy_not_mapped()
    except BaseException:
        server.kill()
        raise
    server.terminate()

    # Session 2: restart from the drain's snapshot, take records the
    # next restart must replay from the WAL, then die without a drain.
    server = Server(data_dir, logs[1])
    try:
        applied = server.get_json("/stats")["applied_seq"]
        server.ingest(10_000, 100)
        server.ingest_dps(5)
        server.await_stats(lambda s: s["applied_seq"] == applied + 105)
    finally:
        server.kill()

    # Session 3: snapshot load plus WAL replay, queries, drain.
    server = Server(data_dir, logs[2])
    try:
        recovery = server.get_json("/stats")["recovery"]
        assert recovery["snapshot_seq"] == applied
        assert recovery["replayed"] == 105
        server.query_everything()
        server.assert_numpy_not_mapped()
    except BaseException:
        server.kill()
        raise
    server.terminate()

    for log in logs:
        assert "repro.serve.http" in log.read_text(encoding="utf-8")
        assert heavy_imports(log) == [], log.name


def test_help_imports_no_numpy(tmp_path):
    log = tmp_path / "imports.log"
    done = subprocess.run(
        [sys.executable, "-c", RECORDER, str(log), "--help"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "serve" in done.stdout
    assert "repro.cli" in log.read_text(encoding="utf-8")
    assert heavy_imports(log) == []
