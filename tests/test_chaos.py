"""End-to-end drills for the supervised executor, via the CLI.

These contracts are exercised through real subprocesses (the same way
an operator would hit them):

* a run under ``--task-deadline``, whose observation stages run as
  watched fork children, saves an event data set byte-identical to an
  unsupervised run's for the same seed and config, in memory and
  durable;
* bad supervision input (``--exec-fault`` specs, deadlines) exits 2
  with a message on both ``simulate`` and ``resume``;
* ``--deadline`` aborts cleanly with exit code 124 (distinct from the
  crash drill's 137), leaving a resumable run directory that ``resume``
  completes to byte-identical output;
* ``python -m repro chaos --quick`` passes: hung-worker, worker-crash
  and poison-shard scenarios recover byte-identically or degrade
  visibly, and none of them hangs past its budget.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: Exit codes under test.
EXIT_DEADLINE = 124


def run_cli(*args, timeout=420):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=timeout,
    )


@pytest.fixture(scope="module")
def serial_events(tmp_path_factory):
    """One serial fault-free run's saved events: the byte reference."""
    path = tmp_path_factory.mktemp("serial") / "events.jsonl"
    proc = run_cli("simulate", "--save-events", str(path))
    assert proc.returncode == 0, proc.stderr
    return path.read_bytes()


class TestSupervisedByteIdentity:
    def test_task_deadline_run_is_byte_identical_to_serial(
        self, serial_events, tmp_path
    ):
        supervised = tmp_path / "supervised.jsonl"
        proc = run_cli(
            "simulate",
            "--task-deadline", "600",
            "--save-events", str(supervised),
        )
        assert proc.returncode == 0, proc.stderr
        assert supervised.read_bytes() == serial_events

    def test_durable_task_deadline_run_is_byte_identical(
        self, serial_events, tmp_path
    ):
        run_dir = tmp_path / "run"
        proc = run_cli(
            "simulate", "--task-deadline", "600", "--run-dir", str(run_dir)
        )
        assert proc.returncode == 0, proc.stderr
        assert (run_dir / "events.jsonl").read_bytes() == serial_events


@pytest.fixture(scope="module")
def finished_run_dir(tmp_path_factory):
    """A completed durable run: every stage of a resume is cached."""
    run_dir = tmp_path_factory.mktemp("finished") / "run"
    proc = run_cli("simulate", "--run-dir", str(run_dir))
    assert proc.returncode == 0, proc.stderr
    return run_dir


class TestSupervisionInput:
    @pytest.mark.parametrize("command", ["simulate", "resume"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--exec-fault", "poison:telscope"), "unknown stage 'telscope'"),
            (("--exec-fault", "crash:telescope:x"), "attempts must be"),
            (("--exec-fault", "bogus:telescope"), "unknown exec fault kind"),
            (("--exec-fault", "hung:honeypot:0:1"), "kind:stage[:attempts]"),
            (("--task-deadline", "-1"), "--task-deadline must be positive"),
            (("--deadline", "0"), "--deadline must be positive"),
        ],
        ids=[
            "misspelt-stage",
            "non-integer-attempts",
            "unknown-kind",
            "retired-shard-field",
            "negative-task-deadline",
            "zero-deadline",
        ],
    )
    def test_bad_input_exits_2_with_message(
        self, finished_run_dir, command, flags, message
    ):
        target = (str(finished_run_dir),) if command == "resume" else ()
        # A short timeout: a spec that is wrongly accepted may arm a
        # fault that hangs.
        proc = run_cli(command, *target, *flags, timeout=120)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


class TestRunDeadlineCli:
    def test_deadline_exits_124_and_resume_completes(
        self, serial_events, tmp_path
    ):
        run_dir = tmp_path / "run"
        aborted = run_cli(
            "simulate", "--run-dir", str(run_dir), "--deadline", "0.05"
        )
        assert aborted.returncode == EXIT_DEADLINE, (
            aborted.stdout + aborted.stderr
        )
        assert "deadline exceeded" in aborted.stderr
        assert "resumable" in aborted.stderr
        # The abort was clean: whatever checkpointed stayed on disk, and
        # meta.json still describes the run.
        assert (run_dir / "meta.json").exists()

        resumed = run_cli("resume", str(run_dir))
        assert resumed.returncode == 0, resumed.stderr
        assert (run_dir / "events.jsonl").read_bytes() == serial_events

    def test_deadline_generous_enough_run_succeeds(self, tmp_path):
        run_dir = tmp_path / "run"
        proc = run_cli(
            "simulate", "--run-dir", str(run_dir), "--deadline", "300"
        )
        assert proc.returncode == 0, proc.stderr


class TestChaosDrill:
    def test_quick_drill_passes(self):
        proc = run_cli("chaos", "--quick")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "3/3 scenarios passed" in proc.stdout
        for scenario in ("hung-worker", "worker-crash", "poison-shard"):
            assert f"PASS {scenario}" in proc.stdout
