#!/usr/bin/env python3
"""Gate: substrate speedups must not regress against the committed baseline.

Compares two ``bench_throughput`` result files (see
``benchmarks/bench_throughput.py``) substrate by substrate. The compared
quantity is each substrate's **speedup ratio** (fast path over reference
path measured in the same process on the same input), not its absolute
rate — ratios survive the hardware change between the maintainer's
machine that committed the baseline and the CI runner that checks it.

A substrate regresses when::

    candidate_speedup < baseline_speedup / tolerance

Missing substrates in the candidate also fail (a deleted bench is not a
passing bench). Prints a comparison table either way; exits 1 on any
regression.

``--require NAME:FLOOR`` (repeatable) additionally pins an **absolute**
speedup floor on the *baseline* number — e.g. ``rsdos:5.0`` asserts
the committed baseline still claims the columnar RSDoS engine is at
least 5x the streaming detector. The relative rule above tolerates slow CI runners;
the absolute rule guards the committed claim itself from quietly eroding
across baseline refreshes.

Usage::

    python tools/perf_compare.py benchmarks/out/throughput.json \
        candidate.json [--tolerance 1.5] [--require rsdos:5.0]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_substrates(path: Path) -> dict:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"{path}: unreadable bench JSON: {exc}")
    substrates = document.get("substrates")
    if not isinstance(substrates, dict) or not substrates:
        raise SystemExit(f"{path}: no 'substrates' map in bench JSON")
    return substrates


def compare(baseline: dict, candidate: dict, tolerance: float) -> list:
    """(substrate, base speedup, cand speedup, floor, ok) per baseline row."""
    rows = []
    for name in baseline:
        base = float(baseline[name]["speedup"])
        floor = base / tolerance
        entry = candidate.get(name)
        cand = float(entry["speedup"]) if entry else None
        ok = cand is not None and cand >= floor
        rows.append((name, base, cand, floor, ok))
    return rows


def render(rows: list, tolerance: float) -> str:
    lines = [
        f"Substrate speedup vs. committed baseline (tolerance {tolerance}x)",
        "",
        f"{'substrate':<14} {'baseline':>9} {'candidate':>10} "
        f"{'floor':>7}  verdict",
    ]
    for name, base, cand, floor, ok in rows:
        shown = f"{cand:.2f}x" if cand is not None else "missing"
        lines.append(
            f"{name:<14} {base:>8.2f}x {shown:>10} {floor:>6.2f}x  "
            + ("ok" if ok else "REGRESSED")
        )
    return "\n".join(lines)


def parse_requirement(spec: str) -> tuple:
    """``NAME:FLOOR`` -> (name, floor); raises SystemExit on bad specs."""
    name, sep, floor_text = spec.partition(":")
    if not sep or not name:
        raise SystemExit(f"--require {spec!r}: expected NAME:FLOOR")
    try:
        floor = float(floor_text)
    except ValueError:
        raise SystemExit(f"--require {spec!r}: FLOOR must be a number")
    if floor <= 0:
        raise SystemExit(f"--require {spec!r}: FLOOR must be positive")
    return name, floor


def check_requirements(baseline: dict, requirements: list) -> list:
    """Absolute-floor failures against the committed baseline numbers."""
    failures = []
    for name, floor in requirements:
        entry = baseline.get(name)
        if entry is None:
            failures.append(f"{name}: required substrate missing from baseline")
            continue
        speedup = float(entry["speedup"])
        if speedup < floor:
            failures.append(
                f"{name}: baseline speedup {speedup:.2f}x "
                f"below required floor {floor:.2f}x"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed bench JSON")
    parser.add_argument("candidate", type=Path, help="fresh bench JSON")
    parser.add_argument(
        "--tolerance", type=float, default=1.5,
        help="allowed shrink factor on each speedup ratio (default: 1.5)",
    )
    parser.add_argument(
        "--require", action="append", default=[], metavar="NAME:FLOOR",
        help="absolute speedup floor the committed baseline must meet "
             "(repeatable, e.g. rsdos:5.0)",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 1.0:
        parser.error("--tolerance must be >= 1.0")
    requirements = [parse_requirement(spec) for spec in args.require]
    baseline = load_substrates(args.baseline)
    rows = compare(
        baseline,
        load_substrates(args.candidate),
        args.tolerance,
    )
    print(render(rows, args.tolerance))
    failed = False
    regressed = [name for name, _, _, _, ok in rows if not ok]
    if regressed:
        print(
            f"regressed: {', '.join(regressed)}", file=sys.stderr
        )
        failed = True
    for failure in check_requirements(baseline, requirements):
        print(f"requirement failed: {failure}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
