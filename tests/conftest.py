"""Shared fixtures: one small end-to-end simulation reused across tests."""

from __future__ import annotations

import pytest

from repro.pipeline import runner
from repro.pipeline.config import ScenarioConfig
from repro.pipeline.simulation import run_simulation


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
