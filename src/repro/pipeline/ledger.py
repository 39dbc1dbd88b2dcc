"""The science ledger: numbers a scenario must reproduce exactly.

A ledger records, for one scenario, the paper-facing numbers a code
change is most likely to move without anyone noticing: the Table 1 rows
(events, targets, /24s, /16s, ASNs per source), the detection-coverage
rows of Section 3.1.3 (ground-truth attacks per category and how many
the sensors detected), the detection thresholds that produced them, DPS
adoption (Web sites whose first detected protection is each provider,
the Table 3 counts), the migration model's totals, and a SHA-256 of
every fused event as ``simulate --save-events`` writes them, so drift
in one event's values shows even where every count holds.
A refactor must leave the ledger byte-identical; a change that moves a
number on purpose regenerates it and shows the diff. Regenerate with::

    PYTHONPATH=src python -c "from repro.pipeline.ledger import write_ledger; \\
        write_ledger('benchmarks/out/ledger_small.json')"
    PYTHONPATH=src python -c "from repro.pipeline.ledger import write_ledger; \\
        from repro.pipeline.config import ScenarioConfig; \\
        write_ledger('benchmarks/out/ledger_default.json', ScenarioConfig.default())"

``ledger_paper.json`` is the paper preset's (``ScenarioConfig.paper()``),
written the same way. It takes about half a minute, so tier-1 tests
leave it to CI's ``paper-ledger`` job, which rebuilds and diffs it.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.coverage import detection_coverage
from repro.pipeline.config import ScenarioConfig
from repro.pipeline.datasets import event_lines
from repro.pipeline.simulation import SimulationResult, run_simulation


def science_ledger(result: SimulationResult) -> Dict[str, Any]:
    """The ledger document of one simulation result (JSON-ready)."""
    config = result.config
    return {
        "scenario": asdict(config),
        "thresholds": {
            "telescope": asdict(config.rsdos_config()),
            "honeypot": asdict(config.honeypot_detection_config()),
        },
        "table1": result.fused.summary_rows(),
        "coverage": [
            {
                "category": row.category,
                "ground_truth": row.ground_truth,
                "detected": row.detected,
                "coverage": row.coverage,
            }
            for row in detection_coverage(
                result.ground_truth, result.fused.combined.events
            )
        ],
        "dps_adoption": dict(
            Counter(usage.provider for usage in result.dps_usage.usages)
        ),
        "migration": {
            "preexisting": len(result.ledger.preexisting),
            "migrations": len(result.ledger.migrations),
            "attack_triggered": sum(
                record.trigger_attack_id is not None
                for record in result.ledger.migrations
            ),
            "bgp_diversions": len(result.diversion_log),
        },
        "fused_events_sha256": events_sha256(result.fused.combined.events),
    }


def events_sha256(events) -> str:
    """SHA-256 of the JSON Lines file ``save_events_jsonl`` writes for
    *events*."""
    digest = hashlib.sha256()
    for line in event_lines(events):
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def render_ledger(ledger: Dict[str, Any]) -> str:
    return json.dumps(ledger, indent=2, sort_keys=True) + "\n"


def write_ledger(
    path: Union[str, Path], config: Optional[ScenarioConfig] = None
) -> Dict[str, Any]:
    """Simulate *config* (default: the small preset) and write its ledger."""
    ledger = science_ledger(run_simulation(config or ScenarioConfig.small()))
    Path(path).write_text(render_ledger(ledger), encoding="utf-8")
    return ledger


__all__ = ["events_sha256", "render_ledger", "science_ledger", "write_ledger"]
