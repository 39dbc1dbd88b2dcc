"""The metrics run.py prints are exactly the ones BENCHMARK.json declares."""

import json
from pathlib import Path

import run
from spans import percentile

SPEC = json.loads(
    (Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8")
)


def test_end_to_end_names_and_units_match():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == run.END_TO_END_UNITS


def test_per_layer_names_and_units_match():
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    printed = (run.PIPELINE_LAYERS + run.SERVE_LAYERS + run.READER_LAYERS
               + ("trace.overhead_s",))
    assert sorted(declared) == sorted(printed)
    assert {name: run.layer_unit(name) for name in printed} == declared


def test_declared_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_percentile_is_nearest_rank():
    values = list(range(1000, 0, -1))
    assert percentile(values, 0.5) == 500
    assert percentile(values, 0.99) == 990
    assert percentile([7.0], 0.99) == 7.0
