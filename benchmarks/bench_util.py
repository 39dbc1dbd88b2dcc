"""Shared machine-readable benchmark output.

Every benchmark that makes a performance claim writes it as JSON under
``benchmarks/out/`` through :func:`write_bench_json`, so revisions can be
compared mechanically instead of by eyeballing rendered text. One schema
for all benches::

    {
      "name":           "store",           # benchmark id (file name stem)
      "params":         {...},             # knobs the number depends on
      "wall_s":         1.234,             # headline wall-clock seconds
      "events_per_s":   5678.9,            # throughput (null: not event-shaped)
      "python_version": "3.11.9",          # interpreter the numbers came from
      "cpu_count":      8                  # host parallelism at measurement
    }

Extra keys are allowed (per-configuration timings, overhead percentages)
but the six schema keys are always present. ``python_version`` and
``cpu_count`` exist so committed baselines are comparable across
environments — a speedup regression on a different interpreter or core
count is a different conversation than one on the same hardware.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Any, Dict, Optional

OUT_DIR = Path(__file__).parent / "out"


def write_bench_json(
    name: str,
    params: Dict[str, Any],
    wall_s: float,
    events_per_s: Optional[float] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write one benchmark result as ``benchmarks/out/<name>.json``."""
    payload: Dict[str, Any] = {
        "name": name,
        "params": params,
        "wall_s": round(float(wall_s), 6),
        "events_per_s": (
            round(float(events_per_s), 3) if events_per_s is not None else None
        ),
        "python_version": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    if extra:
        for key, value in extra.items():
            payload.setdefault(key, value)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


__all__ = ["OUT_DIR", "write_bench_json"]
