"""Streaming-sketch engine: approximate detection in bounded space.

The second detection tier. Where the exact tier keeps one object per
flow, the sketch tier bounds memory with three classic summaries, each
seeded, mergeable, and fed straight from flat column arrays:

* :class:`CountMinSketch` — per-key packet/request counts (plain and
  conservative-update variants).
* :class:`HyperLogLog` — distinct-key cardinality (how many victims the
  telescope saw, the paper's "millions of targets" headline).
* :class:`SpaceSaving` — heavy hitters: top victims, /24 prefixes, ASes.

:class:`FlowSketch` composes them into the structure the detectors use:
an exact "heavy" table for tracked victims with space-saving eviction
into a count-min spillover, plus a HyperLogLog over every admitted key —
the Elastic-Sketch layout, which keeps the per-row hot path a single
dict operation.

Determinism contract: every structure hashes with the same seeded
64-bit mixer, and ``merge()`` over victim-disjoint shards reproduces the
single-shard result exactly as long as no shard evicted (the pipeline's
default capacities are sized so shipped workloads never do).
"""

from repro.sketch.countmin import CountMinSketch
from repro.sketch.engine import FlowSketch, SketchConfig, export_sketch_metrics
from repro.sketch.hashing import mix64
from repro.sketch.hll import HyperLogLog
from repro.sketch.spacesaving import SpaceSaving

__all__ = [
    "CountMinSketch",
    "FlowSketch",
    "HyperLogLog",
    "SketchConfig",
    "SpaceSaving",
    "export_sketch_metrics",
    "mix64",
]
