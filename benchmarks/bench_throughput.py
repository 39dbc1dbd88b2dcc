"""Substrate throughput: reference vs. fast path for each hot loop.

Not a paper table — these benches characterize the reproduction itself.
Each measured substrate runs twice over identical input. Every reference
but the serializer's is a test oracle, not library code:

* ``rsdos``          — the streaming RSDoS detector of ``tests/
                       detection_oracle.py`` over the capture's batch
                       objects vs. the columnar segmentation engine over
                       the capture's columns
* ``honeypot``       — the same pair for AmpPot event extraction
* ``synthesis``      — backscatter and request-log synthesis over the
                       scenario's attacks: the per-attack path (one
                       ``SeedSequence`` per attack, ``tests/
                       synthesis_oracle.py``) vs. the batch-seeded engine
* ``lpm``            — the linear longest-prefix scan of ``tests/
                       detection_oracle.py`` vs. the packed per-length
                       binary search
* ``hosting``        — ``len(sites_on(ip, day))``, a linear interval
                       scan, vs. the packed interval-stabbing counters
* ``serialization``  — one ``write()`` per JSONL line vs. chunked joins

Equivalence is asserted in the same run that is timed: events, lookups
and bytes must match exactly before a speedup is reported, so the bench
doubles as an end-to-end equivalence check. Results land in
``benchmarks/out/throughput.json`` (schema: :mod:`bench_util`, with a
``substrates`` map of reference/fast rates and speedups) and a rendered
``throughput.txt``; ``tools/perf_compare.py`` gates CI on the committed
JSON.

Runs two ways: under pytest alongside the other benches, or standalone
for the CI ``perf-smoke`` job::

    PYTHONPATH=src python benchmarks/bench_throughput.py \
        --profile smoke --name throughput_smoke
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).parent))  # direct execution
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # tests/ oracle
from bench_util import write_bench_json

from repro.honeypot.amppot import AmpPotFleet
from repro.honeypot.detection import detect_columns as detect_honeypot_columns
from repro.pipeline.config import ScenarioConfig
from repro.pipeline.datasets import event_to_dict, save_events_jsonl
from repro.pipeline.simulation import (
    honeypot_capture,
    run_simulation,
    telescope_capture,
)
from repro.store.atomic import atomic_writer
from repro.telescope.backscatter import BackscatterModel
from repro.telescope.rsdos import detect_columns as detect_telescope_columns
from tests import synthesis_oracle
from tests.detection_oracle import HoneypotDetector, RSDoSDetector, lpm_reference

#: Random address / query volumes per profile.
PROFILES = {
    "smoke": {"preset": "small", "lookups": 20_000, "queries": 20_000},
    "full": {"preset": "default", "lookups": 200_000, "queries": 200_000},
}


def _best_of(repeats: int, fn: Callable[[], Any]) -> Tuple[float, Any]:
    """(best wall seconds, last result) over *repeats* runs.

    Collects garbage before every timed run: the exact detectors leave
    cyclic garbage whose deferred gen-2 collection would otherwise
    be billed to whichever substrate happens to allocate next (observed
    as a 3x phantom slowdown on the substrate timed after them).
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _write_reference_jsonl(events, path: Path) -> int:
    """The seed serializer: one ``write()`` per event line."""
    count = 0
    with atomic_writer(path, text=True) as handle:
        for event in events:
            handle.write(json.dumps(event_to_dict(event)) + "\n")
            count += 1
    return count


def measure_substrates(
    config: ScenarioConfig,
    lookups: int = 20_000,
    queries: int = 20_000,
    repeats: int = 1,
) -> Dict[str, Dict[str, Any]]:
    """Time every substrate's reference and fast path on shared input.

    Each substrate entry carries ``reference_per_s``, ``fast_per_s``,
    ``speedup`` (fast/reference) and the unit the rates count. Raises if
    any fast path's output differs from its reference — a speedup over
    wrong answers is not a speedup.
    """
    sim = run_simulation(config)
    substrates: Dict[str, Dict[str, Any]] = {}

    def record(name, unit, units, ref_s, fast_s):
        substrates[name] = {
            "unit": unit,
            "units": units,
            "reference_per_s": round(units / ref_s, 1),
            "fast_per_s": round(units / fast_s, 1),
            "speedup": round(ref_s / fast_s, 3),
        }

    # -- RSDoS: streaming detector vs. columnar engine ---------------------
    capture = telescope_capture(config, sim.ground_truth)
    batches = capture.batches()
    rsdos_config = sim.config.rsdos_config()
    ref_s, streamed = _best_of(
        repeats, lambda: list(RSDoSDetector(rsdos_config).run(batches))
    )
    fast_s, events = _best_of(
        repeats, lambda: detect_telescope_columns(rsdos_config, capture)
    )
    assert events == sorted(
        streamed, key=lambda e: (e.start_ts, e.victim)
    ), "columnar RSDoS diverged from the streaming detector"
    record("rsdos", "rows/s", len(capture), ref_s, fast_s)

    # -- honeypot: streaming detector vs. columnar engine ------------------
    request_log = honeypot_capture(config, sim.ground_truth)
    batches = request_log.batches()
    hp_config = sim.config.honeypot_detection_config()
    ref_s, streamed = _best_of(
        repeats, lambda: list(HoneypotDetector(hp_config).run(batches))
    )
    fast_s, events = _best_of(
        repeats, lambda: detect_honeypot_columns(hp_config, request_log)
    )
    assert events == sorted(
        streamed, key=lambda e: (e.start_ts, e.victim, e.protocol)
    ), "columnar honeypot extraction diverged from the streaming detector"
    record("honeypot", "rows/s", len(request_log), ref_s, fast_s)

    # -- synthesis: per-attack seeding vs. batch-seeded streams --------------
    attacks = sim.ground_truth
    backscatter = BackscatterModel(config.backscatter_config())
    fleet = AmpPotFleet(config.fleet_config())
    ref_s, expected = _best_of(
        repeats,
        lambda: (
            synthesis_oracle.backscatter_columns(backscatter, attacks),
            synthesis_oracle.request_columns(fleet, attacks),
        ),
    )
    fast_s, got = _best_of(
        repeats,
        lambda: (backscatter.columns(attacks), fleet.capture_columns(attacks)),
    )
    assert got == expected, "batched synthesis diverged from the per-attack path"
    record("synthesis", "attacks/s", len(attacks), ref_s, fast_s)

    # -- longest-prefix match ------------------------------------------------
    routing = sim.topology.routing
    reference = lpm_reference(routing)
    rng = random.Random(1)
    addresses = [rng.randrange(1 << 32) for _ in range(lookups)]
    assert [routing.lookup(a) for a in addresses] == [
        reference(a) for a in addresses
    ], "packed LPM diverged from linear reference"
    ref_s, _ = _best_of(
        repeats,
        lambda: sum(1 for a in addresses if reference(a) is not None),
    )
    fast_s, _ = _best_of(
        repeats,
        lambda: sum(1 for a in addresses if routing.lookup(a) is not None),
    )
    record("lpm", "lookups/s", lookups, ref_s, fast_s)

    # -- hosting-index queries -----------------------------------------------
    index = sim.web_index
    rng = random.Random(2)
    targets = [e.target for e in sim.fused.combined.events]
    query_set = [
        (rng.choice(targets), rng.randrange(config.n_days))
        for _ in range(queries)
    ]
    assert [index.count_on(ip, d) for ip, d in query_set] == [
        len(index.sites_on(ip, d)) for ip, d in query_set
    ], "packed hosting index diverged from linear reference"
    ref_s, _ = _best_of(
        repeats,
        lambda: sum(len(index.sites_on(ip, d)) for ip, d in query_set),
    )
    fast_s, _ = _best_of(
        repeats, lambda: sum(index.count_on(ip, d) for ip, d in query_set)
    )
    record("hosting", "queries/s", queries, ref_s, fast_s)

    # -- event serialization -------------------------------------------------
    events = sim.fused.combined.events
    with tempfile.TemporaryDirectory() as tmp:
        ref_path = Path(tmp) / "ref.jsonl"
        fast_path = Path(tmp) / "fast.jsonl"
        ref_s, _ = _best_of(
            repeats, lambda: _write_reference_jsonl(events, ref_path)
        )
        fast_s, _ = _best_of(
            repeats, lambda: save_events_jsonl(events, fast_path)
        )
        assert ref_path.read_bytes() == fast_path.read_bytes(), (
            "chunked serializer is not byte-identical"
        )
    record("serialization", "events/s", len(events), ref_s, fast_s)

    return substrates


def render(substrates: Dict[str, Dict[str, Any]], title: str) -> str:
    lines = [
        title,
        "(reference = test oracle or seed serializer; fast = packed/chunked "
        "path or columnar engine; identical output asserted)",
        "",
        f"{'substrate':<14} {'unit':<10} {'reference/s':>12} "
        f"{'fast/s':>12} {'speedup':>8}",
    ]
    for name, row in substrates.items():
        lines.append(
            f"{name:<14} {row['unit']:<10} {row['reference_per_s']:>12,.0f} "
            f"{row['fast_per_s']:>12,.0f} {row['speedup']:>7.2f}x"
        )
    return "\n".join(lines)


def run_profile(
    profile: str, name: str = "throughput", repeats: int = 1
) -> Dict[str, Any]:
    """Measure one profile and write the JSON + rendered artifacts."""
    spec = PROFILES[profile]
    config = (
        ScenarioConfig.small()
        if spec["preset"] == "small"
        else ScenarioConfig.default()
    )
    start = time.perf_counter()
    substrates = measure_substrates(
        config,
        lookups=spec["lookups"],
        queries=spec["queries"],
        repeats=repeats,
    )
    wall_s = time.perf_counter() - start
    path = write_bench_json(
        name,
        params={
            "profile": profile,
            "preset": spec["preset"],
            "n_days": config.n_days,
            "repeats": repeats,
        },
        wall_s=wall_s,
        extra={"substrates": substrates},
    )
    text = render(
        substrates,
        f"Substrate throughput ({profile} profile, "
        f"{spec['preset']} scenario)",
    )
    path.with_suffix(".txt").write_text(text + "\n", encoding="utf-8")
    return {"substrates": substrates, "wall_s": wall_s, "json": str(path)}


def test_substrate_throughput(benchmark):
    profile = os.environ.get("REPRO_BENCH_PROFILE", "full")
    result = benchmark.pedantic(
        lambda: run_profile(profile), rounds=1, iterations=1
    )
    for name, row in result["substrates"].items():
        benchmark.extra_info[name] = f"{row['speedup']:.2f}x"


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="full",
        help="input scale: 'smoke' (small scenario, CI) or 'full'",
    )
    parser.add_argument(
        "--name", default="throughput",
        help="output stem under benchmarks/out/ (default: throughput)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="take the best of N timings per path (default: 1)",
    )
    args = parser.parse_args(argv)
    result = run_profile(args.profile, name=args.name, repeats=args.repeats)
    sys.stdout.write(
        render(result["substrates"], f"profile={args.profile}") + "\n"
    )
    sys.stdout.write(f"written: {result['json']}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
