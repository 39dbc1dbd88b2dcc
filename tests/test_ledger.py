"""The committed small-preset science ledger must reproduce exactly.

``benchmarks/out/ledger_small.json`` pins the small preset's Table 1
rows, detection-coverage rows and detection thresholds. Any change that
moves one of them — a new random stream, a threshold, a detector bug —
fails here until the ledger is regenerated on purpose (see
:mod:`repro.pipeline.ledger`), so the diff shows up in review.
"""

import json
from pathlib import Path

from repro.pipeline.ledger import render_ledger, science_ledger

LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "out" / "ledger_small.json"


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
