"""End-to-end crash-recovery drill through the real CLI.

A durable run is hard-killed (``--crash-after``, exit 137, no cleanup)
right after the attacks stage checkpoints; ``repro resume`` must then
produce byte-identical output to the run that was never interrupted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def run_cli(*args, check_rc=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=300,
    )
    if check_rc is not None:
        assert proc.returncode == check_rc, proc.stderr
    return proc


@pytest.fixture(scope="module")
def drill(tmp_path_factory):
    """One uninterrupted run, one killed-then-resumed run, shared."""
    base = tmp_path_factory.mktemp("drill")
    ok_dir = base / "run_ok"
    crash_dir = base / "run_crash"
    ok = run_cli(
        "simulate", "--run-dir", str(ok_dir), check_rc=0
    )
    crashed = run_cli(
        "simulate", "--run-dir", str(crash_dir), "--crash-after", "attacks"
    )
    stages_after_crash = {
        p.name.replace(".manifest.json", "")
        for p in (crash_dir / "checkpoints").glob("*.manifest.json")
    }
    resumed = run_cli(
        "--verbose", "--log-json", "resume", str(crash_dir), check_rc=0
    )
    return {
        "ok_dir": ok_dir,
        "crash_dir": crash_dir,
        "ok": ok,
        "crashed": crashed,
        "stages_after_crash": stages_after_crash,
        "resumed": resumed,
    }


class TestCrashRecovery:
    def test_crash_exits_like_sigkill(self, drill):
        assert drill["crashed"].returncode == 137

    def test_crash_leaves_only_the_completed_prefix(self, drill):
        assert drill["stages_after_crash"] == {"internet", "attacks"}

    def test_resume_matches_uninterrupted_stdout(self, drill):
        assert drill["resumed"].stdout == drill["ok"].stdout
        assert drill["ok"].stdout.strip()  # and it isn't trivially empty

    def test_resume_matches_uninterrupted_events_file(self, drill):
        ok_events = (drill["ok_dir"] / "events.jsonl").read_bytes()
        resumed_events = (drill["crash_dir"] / "events.jsonl").read_bytes()
        assert resumed_events == ok_events

    def test_resume_logs_restored_stages_as_json(self, drill):
        events = []
        for line in drill["resumed"].stderr.splitlines():
            if line.startswith("{"):
                events.append(json.loads(line))
        restored = [
            e["stage"]
            for e in events
            if e["event"] == "stage restored from checkpoint"
        ]
        assert restored == ["internet", "attacks"]

    def test_resume_of_completed_run_is_stable(self, drill):
        again = run_cli("resume", str(drill["ok_dir"]), check_rc=0)
        assert again.stdout == drill["ok"].stdout

    def test_resume_of_run_dir_with_retired_shard_fields(
        self, drill, tmp_path
    ):
        # Run dirs of sharded runs record workers/shards/exec_mode in
        # meta.json and may hold per-shard partial checkpoints. Resume
        # ignores both: the run finishes on the one serial path, and the
        # leftover partial (deliberately wrong here) is never adopted.
        from repro.store import CheckpointStore

        run_dir = tmp_path / "sharded"
        run_cli(
            "simulate", "--run-dir", str(run_dir),
            "--crash-after", "migration", check_rc=137,
        )
        meta_path = run_dir / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta.update(workers=2, shards=3, exec_mode="fork")
        meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2))
        CheckpointStore(run_dir).save("telescope.shard0of3", [])
        run_cli("resume", str(run_dir), check_rc=0)
        assert (run_dir / "events.jsonl").read_bytes() == (
            drill["ok_dir"] / "events.jsonl"
        ).read_bytes()

    @pytest.mark.parametrize("detect_tier", [None, "columnar"])
    def test_resume_of_run_dir_with_retired_codec_fields(
        self, tmp_path, detect_tier
    ):
        # Run dirs written before the per-attack random streams record
        # meta v1, with capture_codec and a detect_tier of null or
        # "columnar". Their checkpoints hold captures from the retired
        # shared streams, so resume refuses them rather than mapping the
        # old fields onto the current options.
        run_dir = tmp_path / "older"
        run_cli(
            "simulate", "--run-dir", str(run_dir),
            "--crash-after", "telescope", check_rc=137,
        )
        (run_dir / "meta.json").write_text(
            json.dumps(
                {
                    "capture_codec": "columnar",
                    "command": "simulate",
                    "detect_tier": detect_tier,
                    "exec_mode": "auto",
                    "meta_version": 1,
                    "preset": "small",
                    "seed": 42,
                    "shards": None,
                    "stage_cache": None,
                    "workers": 1,
                },
                sort_keys=True,
                indent=2,
            )
        )
        proc = run_cli("resume", str(run_dir))
        assert proc.returncode == 2
        assert "incompatible version (meta v1, expected v2)" in proc.stderr
        assert not (run_dir / "events.jsonl").exists()


class TestResumeErrors:
    def test_nonexistent_directory(self, tmp_path):
        proc = run_cli("resume", str(tmp_path / "nope"))
        assert proc.returncode == 2
        assert "no such run directory" in proc.stderr

    def test_directory_without_metadata(self, tmp_path):
        plain = tmp_path / "not_a_run"
        plain.mkdir()
        proc = run_cli("resume", str(plain))
        assert proc.returncode == 2
        assert "not a durable run directory" in proc.stderr

    def test_run_dir_from_an_older_meta_version_is_refused(self, tmp_path):
        # A v1 run dir checkpointed captures drawn from the retired
        # shared random streams; resuming would splice them onto stages
        # drawn from the per-attack streams.
        run_dir = tmp_path / "v1"
        run_cli(
            "simulate", "--run-dir", str(run_dir),
            "--crash-after", "attacks", check_rc=137,
        )
        meta_path = run_dir / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta["meta_version"] == 2
        meta["meta_version"] = 1
        meta_path.write_text(json.dumps(meta))
        proc = run_cli("resume", str(run_dir))
        assert proc.returncode == 2
        assert "incompatible version (meta v1, expected v2)" in proc.stderr
        assert not (run_dir / "events.jsonl").exists()

    def test_crash_after_requires_run_dir(self):
        proc = run_cli("simulate", "--crash-after", "attacks")
        assert proc.returncode == 2
        assert "--crash-after requires --run-dir" in proc.stderr


class TestValidateCommand:
    def _feed(self, tmp_path):
        from repro.core.events import AttackEvent, SOURCE_TELESCOPE
        from repro.pipeline.datasets import save_events_jsonl

        path = tmp_path / "feed.jsonl"
        save_events_jsonl(
            [
                AttackEvent(SOURCE_TELESCOPE, i, 0.0, 1.0, 1.0)
                for i in range(5)
            ],
            path,
        )
        return path

    def test_clean_feed(self, tmp_path):
        path = self._feed(tmp_path)
        proc = run_cli("validate", str(path), check_rc=0)
        assert "5 valid, 0 quarantined" in proc.stdout
        assert not (tmp_path / "feed.jsonl.quarantine.jsonl").exists()

    def test_dirty_feed_quarantined(self, tmp_path):
        path = self._feed(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
            handle.write('{"source": "telescope"}\n')
        proc = run_cli("validate", str(path))
        assert proc.returncode == 1
        assert "5 valid, 2 quarantined" in proc.stdout
        assert "unparseable-json" in proc.stdout
        quarantine = tmp_path / "feed.jsonl.quarantine.jsonl"
        assert "dead-letter file" in proc.stdout
        records = [
            json.loads(line)
            for line in quarantine.read_text().splitlines()
        ]
        assert [r["reason"] for r in records] == [
            "unparseable-json",
            "missing-field:target",
        ]

    def test_strict_mode_fails_fast(self, tmp_path):
        path = self._feed(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        proc = run_cli("validate", "--strict", str(path))
        assert proc.returncode == 1
        assert "invalid record" in proc.stderr

    def test_missing_file(self, tmp_path):
        proc = run_cli("validate", str(tmp_path / "absent.jsonl"))
        assert proc.returncode == 2
