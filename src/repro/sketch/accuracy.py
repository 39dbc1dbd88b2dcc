"""Accuracy harness: sketch tier vs exact reference on seeded workloads.

Replays one scenario's captures through both the exact and sketch
detection tiers and reports per-quantity error distributions:

* **count relative error** — per-victim backscatter packets (telescope)
  and per-(victim, protocol) requests (honeypot), sketch estimate vs
  exact column sums, over the exact top-N keys;
* **cardinality error** — HyperLogLog distinct-victim estimate vs the
  exact distinct count;
* **heavy-hitter precision/recall** — sketch top-K key set vs exact
  top-K, plus a :class:`~repro.sketch.spacesaving.SpaceSaving` pass over
  /24 victim prefixes and victim ASes;
* **event-level recall/precision** — victims (telescope) and
  (victim, protocol) pairs (honeypot) surfaced by sketch events vs the
  exact tier's events.

Run as a module for the JSON report and CI gates::

    PYTHONPATH=src python -m repro.sketch.accuracy --preset small \\
        --seed 42 --out accuracy.json \\
        --min-recall 0.95 --max-count-error 0.05

Exit code 1 when a gate fails, so CI can assert the ISSUE thresholds
(heavy-hitter recall >= 0.95, count relative error <= 5%) directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Sequence, Tuple

from repro.honeypot.columnar import RequestColumns
from repro.honeypot.detection import (
    HoneypotDetector,
    detect_sketch as detect_honeypot_sketch,
)
from repro.net.columnar import PacketColumns
from repro.pipeline.config import ScenarioConfig
from repro.pipeline.simulation import (
    build_internet,
    honeypot_capture,
    schedule_attacks,
    telescope_capture,
)
from repro.sketch.spacesaving import SpaceSaving
from repro.telescope.rsdos import (
    RSDoSDetector,
    detect_sketch as detect_telescope_sketch,
)

PRESETS = {
    "small": ScenarioConfig.small,
    "default": ScenarioConfig.default,
    "paper": ScenarioConfig.paper,
}


def _relative_errors(
    exact: Dict[int, int],
    estimate,
    top_n: int,
) -> Dict[str, float]:
    """Error stats for the exact top-``top_n`` keys (largest true counts)."""
    ranked = sorted(exact.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
    errors = [
        abs(estimate(key) - true) / true for key, true in ranked if true > 0
    ]
    if not errors:
        return {"keys": 0, "mean": 0.0, "p95": 0.0, "max": 0.0}
    errors.sort()
    return {
        "keys": len(errors),
        "mean": sum(errors) / len(errors),
        "p95": errors[min(len(errors) - 1, int(0.95 * len(errors)))],
        "max": errors[-1],
    }


def _set_quality(
    reference: set, candidate: set
) -> Dict[str, float]:
    hit = len(reference & candidate)
    return {
        "reference": len(reference),
        "candidate": len(candidate),
        "recall": hit / len(reference) if reference else 1.0,
        "precision": hit / len(candidate) if candidate else 1.0,
    }


def _top_keys(counts: Dict[int, int], k: int) -> set:
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {key for key, _ in ranked[:k]}


def _spacesaving_quality(
    keys: Sequence[int],
    counts: Sequence[int],
    capacity: int,
    top_k: int,
) -> Dict[str, float]:
    """Top-k precision/recall of a SpaceSaving pass vs exact aggregation."""
    exact: Dict[int, int] = {}
    for key, count in zip(keys, counts):
        exact[key] = exact.get(key, 0) + count
    summary = SpaceSaving(capacity=capacity)
    summary.update_columns(keys, counts)
    sketch_top = {key for key, _, _ in summary.top(top_k)}
    return _set_quality(_top_keys(exact, top_k), sketch_top)


def evaluate_telescope(
    config: ScenarioConfig, capture, top_n: int, top_k: int, asn_of=None
) -> Dict:
    """Sketch-vs-exact report for one telescope capture (batch list).

    ``asn_of`` (an address -> origin-ASN callable, e.g.
    ``topology.routing.origin_asn``) enables the AS-level SpaceSaving
    heavy-hitter pass; without it only /24 prefixes are ranked.
    """
    rsdos = config.rsdos_config()
    exact_events = list(RSDoSDetector(rsdos).run(capture))
    summary = detect_telescope_sketch(
        rsdos,
        PacketColumns.from_batches(capture),
        sketch_config=config.sketch_config(),
    )
    sketch_events = summary.events()

    exact_counts: Dict[int, int] = {}
    backscatter_victims: List[int] = []
    backscatter_packets: List[int] = []
    for batch in capture:
        if not batch.is_backscatter:
            continue
        victim, count = batch.src, batch.count
        exact_counts[victim] = exact_counts.get(victim, 0) + count
        backscatter_victims.append(victim)
        backscatter_packets.append(count)

    true_cardinality = len(exact_counts)
    est_cardinality = summary.cardinality()
    report = {
        "events": {"exact": len(exact_events), "sketch": len(sketch_events)},
        "count_relative_error": _relative_errors(
            exact_counts, summary.estimate, top_n
        ),
        "cardinality": {
            "exact": true_cardinality,
            "estimate": est_cardinality,
            "relative_error": (
                abs(est_cardinality - true_cardinality) / true_cardinality
                if true_cardinality
                else 0.0
            ),
        },
        "heavy_hitters": _set_quality(
            _top_keys(exact_counts, top_k),
            {victim for victim, _ in summary.top_victims(top_k)},
        ),
        "event_victims": _set_quality(
            {event.victim for event in exact_events},
            {event.victim for event in sketch_events},
        ),
        "spacesaving_prefixes": _spacesaving_quality(
            [victim >> 8 for victim in backscatter_victims],
            backscatter_packets,
            capacity=max(top_k * 8, 256),
            top_k=top_k,
        ),
        "evictions": summary.sketch.evictions,
    }
    if asn_of is not None:
        report["spacesaving_asns"] = _spacesaving_quality(
            [asn_of(victim) or 0 for victim in backscatter_victims],
            backscatter_packets,
            capacity=max(top_k * 8, 256),
            top_k=top_k,
        )
    return report


def evaluate_honeypot(
    config: ScenarioConfig, request_log, top_n: int, top_k: int
) -> Dict:
    """Sketch-vs-exact report for one request log (batch list)."""
    detection = config.honeypot_detection_config()
    exact_events = list(HoneypotDetector(detection).run(request_log))
    columns = RequestColumns.from_batches(request_log)
    summary = detect_honeypot_sketch(
        detection, columns, sketch_config=config.sketch_config()
    )
    sketch_events = summary.events()

    n_protocols = max(1, len(columns.protocols))
    exact_counts: Dict[int, int] = {}
    for victim, protocol_id, count in zip(
        columns.victims, columns.protocol_ids, columns.counts
    ):
        key = victim * n_protocols + protocol_id
        exact_counts[key] = exact_counts.get(key, 0) + count

    true_cardinality = len(exact_counts)
    est_cardinality = summary.cardinality()
    return {
        "events": {"exact": len(exact_events), "sketch": len(sketch_events)},
        "count_relative_error": _relative_errors(
            exact_counts, summary.sketch.estimate, top_n
        ),
        "cardinality": {
            "exact": true_cardinality,
            "estimate": est_cardinality,
            "relative_error": (
                abs(est_cardinality - true_cardinality) / true_cardinality
                if true_cardinality
                else 0.0
            ),
        },
        "heavy_hitters": _set_quality(
            _top_keys(exact_counts, top_k),
            _top_keys(
                {
                    key: summary.sketch.estimate(key)
                    for key in summary.sketch.heavy
                },
                top_k,
            ),
        ),
        "event_pairs": _set_quality(
            {(event.victim, event.protocol) for event in exact_events},
            {(event.victim, event.protocol) for event in sketch_events},
        ),
        "evictions": summary.sketch.evictions,
    }


def run_harness(
    preset: str = "small",
    seed: int = 42,
    top_n: int = 200,
    top_k: int = 100,
) -> Dict:
    """Full accuracy report for one seeded scenario."""
    config = PRESETS[preset]().with_seed(seed)
    internet = build_internet(config)
    ground_truth = schedule_attacks(config, internet)
    telescope = evaluate_telescope(
        config,
        telescope_capture(config, ground_truth),
        top_n,
        top_k,
        asn_of=internet.topology.routing.origin_asn,
    )
    honeypot = evaluate_honeypot(
        config,
        honeypot_capture(config, ground_truth),
        top_n,
        top_k,
    )
    return {
        "schema": 1,
        "params": {
            "preset": preset,
            "seed": seed,
            "top_n": top_n,
            "top_k": top_k,
        },
        "telescope": telescope,
        "honeypot": honeypot,
    }


def check_gates(
    report: Dict, min_recall: float, max_count_error: float
) -> List[str]:
    """Return human-readable failures for the ISSUE acceptance gates."""
    failures = []
    for feed in ("telescope", "honeypot"):
        section = report[feed]
        recall = section["heavy_hitters"]["recall"]
        if recall < min_recall:
            failures.append(
                f"{feed}: heavy-hitter recall {recall:.3f} < {min_recall}"
            )
        count_error = section["count_relative_error"]["max"]
        if count_error > max_count_error:
            failures.append(
                f"{feed}: count relative error {count_error:.4f} "
                f"> {max_count_error}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="sketch-tier accuracy harness (sketch vs exact replay)"
    )
    parser.add_argument(
        "--preset", choices=sorted(PRESETS), default="small",
        help="scenario scale (default: small)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--top-n", type=int, default=200,
        help="exact top-N keys scored for count relative error",
    )
    parser.add_argument(
        "--top-k", type=int, default=100,
        help="top-K set size for heavy-hitter precision/recall",
    )
    parser.add_argument(
        "--out", type=str, default=None,
        help="write the JSON report here (default: stdout only)",
    )
    parser.add_argument(
        "--min-recall", type=float, default=None,
        help="gate: fail if heavy-hitter recall drops below this",
    )
    parser.add_argument(
        "--max-count-error", type=float, default=None,
        help="gate: fail if max count relative error exceeds this",
    )
    args = parser.parse_args(argv)

    report = run_harness(
        preset=args.preset, seed=args.seed, top_n=args.top_n, top_k=args.top_k
    )
    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    print(rendered)

    if args.min_recall is not None or args.max_count_error is not None:
        failures = check_gates(
            report,
            min_recall=args.min_recall if args.min_recall is not None else 0.0,
            max_count_error=(
                args.max_count_error
                if args.max_count_error is not None
                else float("inf")
            ),
        )
        for failure in failures:
            print(f"GATE FAIL {failure}", file=sys.stderr)
        if failures:
            return 1
        print("accuracy gates passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
