"""One pipeline job in a fresh process: the unit the pipeline workloads time.

``python3 perfbench/pipeline_job.py SPEC.json`` runs ``run_simulation``
once for the workload and seed in the spec, checks the output and writes
a JSON report next to the spec. The parent passes the monotonic time at
which it spawned this process, so set-up (interpreter start, imports,
config) and wall time both count from process start, which is what a
user of ``python -m repro simulate`` waits for. ``CLOCK_MONOTONIC`` is
system-wide on Linux, so the two processes' readings compare directly.

With ``"trace": true`` the job installs span wrappers on the pipeline's
public functions first and also reports per-layer self times.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

#: Paper thresholds (PAPER.md section 1) every detected event must meet.
TELESCOPE_MIN_PACKETS = 25
TELESCOPE_MIN_DURATION_S = 60.0
TELESCOPE_MIN_MAX_PPS = 0.5
HONEYPOT_MIN_REQUESTS_EXCLUSIVE = 100
HONEYPOT_MAX_DURATION_S = 86400.0


def scenario(workload: str, seed: int):
    from repro.pipeline.config import ScenarioConfig

    if workload == "pipeline-default":
        return ScenarioConfig.default().with_seed(seed)
    if workload == "pipeline-measurement":
        return ScenarioConfig(
            n_days=731,
            n_domains=80_000,
            direct_per_day=4.0,
            reflection_per_day=0.5,
            telescope_noise=False,
            honeypot_noise=False,
        ).with_seed(seed)
    raise ValueError(f"not a pipeline workload: {workload!r}")


def output_failures(result) -> list:
    """Every way this result breaks the output contract (empty: correct)."""
    failures = []
    if len(result.fused.combined) == 0:
        failures.append("zero fused events")
    for event in result.telescope_events:
        if (
            event.packets < TELESCOPE_MIN_PACKETS
            or event.end_ts - event.start_ts < TELESCOPE_MIN_DURATION_S
            or event.max_ppm / 60.0 < TELESCOPE_MIN_MAX_PPS
        ):
            failures.append(f"telescope event below thresholds: {event}")
            break
    for event in result.honeypot_events:
        if (
            event.requests <= HONEYPOT_MIN_REQUESTS_EXCLUSIVE
            or event.end_ts - event.start_ts > HONEYPOT_MAX_DURATION_S
        ):
            failures.append(f"honeypot event breaks thresholds: {event}")
            break
    return failures


def live_store_failures(result) -> list:
    """Load the fused result into the live query store and compare.

    The store must agree with the batch Table 1 combined row: the
    batch/live cross-path check.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.pipeline.datasets import event_to_dict
    from repro.serve.state import LiveFusedStore

    store = LiveFusedStore(metrics=MetricsRegistry())
    for event in result.fused.combined:
        store.apply_attack(event_to_dict(event))
    failures = []
    live = store.summary()
    batch = result.fused.combined.summary()
    for key in ("events", "targets", "slash24s", "slash16s", "asns"):
        if live[key] != batch[key]:
            failures.append(f"live store {key}={live[key]} != Table 1 {batch[key]}")
    return failures


def install_tracing(recorder, patcher) -> None:
    """Span wrappers on every pipeline layer's public entry points."""
    from repro.core.events import AttackDataset
    from repro.dns.openintel import OpenIntelPlatform
    from repro.dns.zone import ZoneGenerator
    from repro.dps.detection import DPSDetector
    from repro.internet.hosting import HostingEcosystem
    from repro.internet.topology import InternetTopology
    from repro.pipeline import simulation as sim

    def count(counter, measure=len):
        return lambda span, args, kwargs, result: recorder.add(
            counter, measure(result)
        )

    def wrap(owner, name, span_name, **options):
        patcher.wrap(recorder, owner, name, span_name, **options)

    wrap(sim, "run_simulation", "pipeline")
    wrap(sim, "build_internet", "internet.build")
    wrap(InternetTopology, "generate", "internet.topology")
    wrap(HostingEcosystem, "generate", "internet.hosting")
    wrap(ZoneGenerator, "generate", "dns.zones")
    wrap(sim, "schedule_attacks", "attacks.schedule",
         on_result=count("attacks.count"))
    wrap(sim, "run_migration", "dps.migration")
    for feed in ("telescope", "honeypot"):
        short = "honeypots" if feed == "honeypot" else feed
        wrap(sim, f"observe_{short}", f"{feed}.observe")
        wrap(sim, f"{feed}_capture", f"{feed}.synth",
             on_result=count(f"{feed}.rows"), rss=True)
        wrap(sim, f"detect_{feed}_shard", f"{feed}.detect")
        wrap(sim, f"merge_{feed}_shards", f"{feed}.merge",
             on_result=count(f"{feed}.events"))
    wrap(sim, "measure_dns", "dns.measure")
    wrap(OpenIntelPlatform, "measure", "dns.openintel")
    wrap(DPSDetector, "scan", "dps.scan")
    wrap(sim, "fuse_observations", "core.fuse",
         on_result=count("core.fused_events", lambda r: len(r[0].combined)))
    wrap(AttackDataset, "annotated", "core.annotate")


def layer_metrics(recorder) -> dict:
    """Per-layer numbers of one traced job (self times in seconds)."""
    own = recorder.self_time_by_name()
    counts = recorder.counters
    layers = {
        "internet.build_s": own.get("internet.build", 0.0),
        "internet.topology_s": own.get("internet.topology", 0.0),
        "internet.hosting_s": own.get("internet.hosting", 0.0),
        "dns.zones_s": own.get("dns.zones", 0.0),
        "attacks.schedule_s": own.get("attacks.schedule", 0.0),
        "attacks.count": counts.get("attacks.count", 0.0),
        "dps.migration_s": own.get("dps.migration", 0.0),
        "dns.openintel_s": own.get("dns.openintel", 0.0),
        "dps.scan_s": own.get("dps.scan", 0.0),
        "core.fuse_s": own.get("core.fuse", 0.0),
        "core.annotate_s": own.get("core.annotate", 0.0),
        "core.fused_events": counts.get("core.fused_events", 0.0),
        "pipeline.self_s": own.get("pipeline", 0.0),
    }
    for feed in ("telescope", "honeypot"):
        detect_s = own.get(f"{feed}.detect", 0.0)
        rows = counts.get(f"{feed}.rows", 0.0)
        layers[f"{feed}.synth_s"] = own.get(f"{feed}.synth", 0.0)
        layers[f"{feed}.synth_rss_mb"] = sum(
            span.attrs.get("rss_delta_mb", 0.0)
            for span in recorder.by_name(f"{feed}.synth")
        )
        layers[f"{feed}.detect_s"] = detect_s
        layers[f"{feed}.rows"] = rows
        layers[f"{feed}.detect_rows_per_s"] = rows / detect_s if detect_s else 0.0
        layers[f"{feed}.events"] = counts.get(f"{feed}.events", 0.0)
        layers[f"{feed}.merge_s"] = own.get(f"{feed}.merge", 0.0)
    return layers


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from repro.core.report import render_table1
    from repro.pipeline import simulation

    config = scenario(spec["workload"], spec["seed"])
    recorder = patcher = None
    if spec["trace"]:
        from spans import Patcher, SpanRecorder

        recorder, patcher = SpanRecorder(), Patcher()
        install_tracing(recorder, patcher)
    setup_done = time.monotonic()
    result = simulation.run_simulation(config)
    finished = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "seed": spec["seed"],
        "setup_s": setup_done - spec["spawned_at"],
        "wall_s": finished - spec["spawned_at"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "fused_events": len(result.fused.combined),
        "table1_sha256": hashlib.sha256(
            render_table1(result.fused.summary_rows()).encode("utf-8")
        ).hexdigest(),
        "failures": output_failures(result),
    }
    if patcher is not None:
        patcher.restore()
        report["layers"] = layer_metrics(recorder)
        recorder.dump(Path(spec["out"]).with_suffix(".spans.jsonl"))
    report["failures"] += live_store_failures(result)
    Path(spec["out"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
