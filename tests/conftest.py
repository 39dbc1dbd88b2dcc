"""Shared fixtures: one small end-to-end simulation reused across tests."""

from __future__ import annotations

import errno
from contextlib import contextmanager

import pytest

from repro.pipeline import runner
from repro.pipeline.config import ScenarioConfig
from repro.pipeline.simulation import run_simulation
from repro.store import checkpoint


@pytest.fixture(scope="session")
def small_config() -> ScenarioConfig:
    return ScenarioConfig.small()


@pytest.fixture(scope="session")
def sim(small_config):
    """A full small-scenario simulation (built once per test session)."""
    return run_simulation(small_config)


@pytest.fixture(scope="session")
def topology(sim):
    return sim.topology


@pytest.fixture(scope="session")
def ecosystem(sim):
    return sim.ecosystem


@pytest.fixture
def inline_stages(monkeypatch):
    """Compute every stage in the test's process, as on one CPU: for
    tests that observe a stage's calls, sleeps or allocations from here."""
    monkeypatch.setattr(runner, "stage_children_allowed", lambda: False)


@pytest.fixture
def forked_stages(monkeypatch):
    """Run the observation stages as fork children beside the runner,
    whatever the machine."""
    monkeypatch.setattr(runner, "stage_children_allowed", lambda: True)


class _FillingHandle:
    """A payload handle that takes *budget* bytes, then raises ENOSPC."""

    def __init__(self, handle, budget):
        self._handle = handle
        self.budget = budget

    def write(self, data):
        size = memoryview(data).nbytes
        if size > self.budget:
            raise OSError(errno.ENOSPC, "No space left on device (injected)")
        self.budget -= size
        return self._handle.write(data)


@pytest.fixture
def full_checkpoint_disk(monkeypatch):
    """``fill(budget)``: from then on every checkpoint payload write
    accepts *budget* bytes and then fails with ENOSPC, as a disk that
    fills partway through a streamed save."""
    real_writer = checkpoint.atomic_writer

    def fill(budget):
        @contextmanager
        def writer(path, text=False, metrics=None):
            with real_writer(path, text=text, metrics=metrics) as handle:
                yield _FillingHandle(handle, budget)

        monkeypatch.setattr(checkpoint, "atomic_writer", writer)

    return fill
