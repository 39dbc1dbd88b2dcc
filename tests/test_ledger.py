"""The committed science ledgers must reproduce exactly.

``benchmarks/out/ledger_small.json`` and ``ledger_default.json`` pin the
small and default presets' Table 1 rows, detection-coverage rows,
detection thresholds, DPS adoption per provider, migration totals and
the SHA-256 of every fused event as ``--save-events`` writes them.
Any change that moves one of them — a new random stream, a threshold, a
detector bug — fails here until the ledger is regenerated on purpose
(see :mod:`repro.pipeline.ledger`), so the diff shows up in review.
"""

import hashlib
import json
from pathlib import Path

from repro.pipeline.config import ScenarioConfig
from repro.pipeline.datasets import save_events_jsonl
from repro.pipeline.ledger import render_ledger, science_ledger
from repro.pipeline.simulation import run_simulation

OUT = Path(__file__).resolve().parents[1] / "benchmarks" / "out"
LEDGER = OUT / "ledger_small.json"
DEFAULT_LEDGER = OUT / "ledger_default.json"


def test_small_preset_reproduces_the_committed_ledger(sim):
    committed = json.loads(LEDGER.read_text(encoding="utf-8"))
    ledger = science_ledger(sim)
    assert ledger == committed
    assert render_ledger(ledger) == LEDGER.read_text(encoding="utf-8")


def test_ledger_is_the_small_preset(small_config, sim):
    assert sim.config == small_config
    committed = json.loads(LEDGER.read_text(encoding="utf-8"))
    assert committed["scenario"]["seed"] == small_config.seed
    assert [row["source"] for row in committed["table1"]] == [
        "Network Telescope", "Amplification Honeypot", "Combined"
    ]


def test_default_preset_reproduces_the_committed_ledger():
    ledger = science_ledger(run_simulation(ScenarioConfig.default()))
    assert ledger["scenario"] == json.loads(
        DEFAULT_LEDGER.read_text(encoding="utf-8")
    )["scenario"]
    assert render_ledger(ledger) == DEFAULT_LEDGER.read_text(encoding="utf-8")


def test_ledgers_pin_dps_adoption_and_migration(sim):
    for path in (LEDGER, DEFAULT_LEDGER):
        committed = json.loads(path.read_text(encoding="utf-8"))
        assert sum(committed["dps_adoption"].values()) > 0
        assert committed["migration"]["migrations"] > 0
    ledger = science_ledger(sim)
    assert ledger["dps_adoption"] == sim.dps_usage.provider_site_counts()


def test_events_digest_is_that_of_the_saved_events_file(sim, tmp_path):
    path = tmp_path / "events.jsonl"
    save_events_jsonl(sim.fused.combined.events, path)
    assert science_ledger(sim)["fused_events_sha256"] == (
        hashlib.sha256(path.read_bytes()).hexdigest()
    )
