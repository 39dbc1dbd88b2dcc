"""Unit and integration tests for the unified telemetry layer.

Covers the metrics registry (labeled counters/gauges/histograms and both
exposition formats), the span tracer, the stage profiler, the bundled
:class:`~repro.obs.Telemetry` life cycle, byte-deterministic artifacts
under an injected clock, exact counter values after a deterministic
fault scenario, and the CLI surface (``--metrics`` artifacts, the
``metrics``/``trace`` subcommands and the flight report).
"""

import json
import pickle
import time

import pytest

from repro.cli import main
from repro.core.events import AttackEvent, SOURCE_TELESCOPE
from repro.exec.pool import (
    STATUS_DEADLINE,
    SupervisedPool,
    TaskSpec,
)
from repro.faults.plan import FaultPlan, FaultPlanConfig
from repro.obs import (
    METRICS_FILE,
    PROFILE_FILE,
    TRACE_FILE,
    TRACE_JSONL_FILE,
    Telemetry,
    get_telemetry,
    set_telemetry,
)
from repro.obs.console import render_dashboard
from repro.obs.metrics import (
    MetricsRegistry,
    NULL_REGISTRY,
    get_registry,
    prometheus_from_snapshot,
    set_registry,
)
from repro.obs.profile import NULL_PROFILER, StageProfiler
from repro.obs.timeseries import (
    MetricsHistory,
    RequestLog,
    histogram_quantile,
    series_key,
)
from repro.obs.trace import NULL_TRACER, SpanTracer
from repro.pipeline.datasets import (
    REASON_DUPLICATE,
    REASON_UNPARSEABLE,
    event_to_dict,
    read_events_jsonl,
)
from repro.pipeline.runner import ResilientPipeline, RetryPolicy


class FakeClock:
    """Deterministic clock: advances a fixed step per call."""

    def __init__(self, start: float = 0.0, step: float = 0.001) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@pytest.fixture(autouse=True)
def _reset_global_telemetry():
    """Tests installing process-wide telemetry must not leak it."""
    yield
    set_telemetry(None)


def no_sleep(_delay: float) -> None:
    pass


class TestMetricsRegistry:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits_total", "hits", ("kind",))
        hits.inc(kind="a")
        hits.inc(2, kind="a")
        hits.inc(kind="b")
        assert registry.value("hits_total", kind="a") == 3
        assert registry.value("hits_total", kind="b") == 1
        assert registry.value("hits_total", kind="absent") == 0
        assert registry.value("never_registered") == 0

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c_total").inc(-1)

    def test_label_set_enforced_exactly(self):
        registry = MetricsRegistry()
        c = registry.counter("c_total", "", ("stage",))
        with pytest.raises(ValueError):
            c.inc()  # missing label
        with pytest.raises(ValueError):
            c.inc(stage="x", extra="y")  # surplus label

    def test_reregistration_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("c_total", "", ("stage",))
        again = registry.counter("c_total", "", ("stage",))
        assert first is again
        with pytest.raises(ValueError):
            registry.gauge("c_total", "", ("stage",))  # kind conflict
        with pytest.raises(ValueError):
            registry.counter("c_total", "", ("other",))  # label conflict

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        depth = registry.gauge("queue_depth")
        depth.set(5)
        depth.inc()
        depth.dec(3)
        assert registry.value("queue_depth") == 3

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(1.0, 5.0))
        for value in (0.5, 3.0, 100.0):
            hist.observe(value)
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(103.5)
        series = registry.snapshot()["metrics"]["lat_seconds"]["series"][0]
        assert series["buckets"] == {"1.0": 1.0, "5.0": 2.0}
        assert series["count"] == 3

    def test_snapshot_deterministic_with_fake_clock(self):
        def build():
            registry = MetricsRegistry(clock=FakeClock())
            registry.counter("a_total", "help a", ("k",)).inc(k="v")
            registry.histogram("h_seconds").observe(0.02)
            return registry.to_json()

        assert build() == build()

    def test_prometheus_rendering(self):
        registry = MetricsRegistry(clock=lambda: 0.0)
        registry.counter("hits_total", "hits", ("kind",)).inc(kind="a")
        registry.gauge("depth").set(2)
        registry.histogram("lat_seconds", buckets=(1.0,)).observe(0.5)
        text = registry.render_prometheus()
        assert "# HELP hits_total hits" in text
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{kind="a"} 1' in text
        assert "depth 2" in text
        assert 'lat_seconds_bucket{le="1.0"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text
        assert "lat_seconds_sum 0.5" in text

    def test_prometheus_roundtrips_through_json_snapshot(self):
        """metrics.json re-renders to the same Prometheus text."""
        registry = MetricsRegistry(clock=lambda: 1.0)
        registry.counter("c_total", "c", ("x",)).inc(x='we"ird\nname')
        registry.histogram("h_seconds", buckets=(0.1, 1.0)).observe(0.05)
        reloaded = json.loads(registry.to_json())
        assert prometheus_from_snapshot(reloaded) == (
            registry.render_prometheus()
        )

    def test_null_registry_is_free_and_silent(self):
        handle = NULL_REGISTRY.counter("anything_total", "", ("a", "b"))
        assert handle is NULL_REGISTRY.gauge("other")
        assert handle is NULL_REGISTRY.histogram("third")
        handle.inc(a=1, b=2)
        handle.set(9)
        handle.observe(1.0)
        assert NULL_REGISTRY.value("anything_total", a=1, b=2) == 0
        assert NULL_REGISTRY.render_prometheus() == ""
        assert NULL_REGISTRY.snapshot()["metrics"] == {}
        assert not NULL_REGISTRY.enabled


class TestSpanTracer:
    def test_parent_child_links_and_completion_order(self):
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("outer", stage="x"):
            with tracer.span("inner", attempt=1):
                pass
        inner, outer = tracer.spans
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.start > outer.start
        assert inner.end < outer.end
        assert inner.duration > 0

    def test_error_recorded_and_reraised(self):
        tracer = SpanTracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.attrs["error"] == "RuntimeError: boom"
        assert span.end > span.start

    def test_chrome_export_shape(self):
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("stage", stage="attacks"):
            pass
        doc = tracer.to_chrome()
        (event,) = doc["traceEvents"]
        assert event["ph"] == "X"
        assert event["pid"] == 1
        assert event["tid"] == 0
        assert event["name"] == "stage"
        assert event["args"]["stage"] == "attacks"
        assert event["args"]["span_id"] == 1
        assert event["dur"] > 0
        assert doc["metadata"]["threads"]["0"]

    def test_jsonl_export(self):
        tracer = SpanTracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        lines = tracer.to_jsonl().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert [p["name"] for p in parsed] == ["a", "b"]
        assert all(p["duration"] > 0 for p in parsed)

    def test_null_tracer_noop(self):
        with NULL_TRACER.span("anything", k="v") as span:
            span.set_attr(more="attrs")
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.to_jsonl() == ""
        assert NULL_TRACER.to_chrome()["traceEvents"] == []


class TestStageProfiler:
    def test_profile_records_wall_cpu_rss_events(self):
        profiler = StageProfiler(
            clock=FakeClock(step=1.0),
            cpu_clock=FakeClock(step=0.25),
            rss_fn=lambda: 4096,
        )
        with profiler.profile("attacks") as handle:
            handle.set_events(500)
        (profile,) = profiler.profiles
        assert profile.stage == "attacks"
        assert profile.wall_s == pytest.approx(1.0)
        assert profile.cpu_s == pytest.approx(0.25)
        assert profile.peak_rss_kb == 4096
        assert profile.events == 500
        assert profile.events_per_s == pytest.approx(500.0)

    def test_null_profiler_noop(self):
        with NULL_PROFILER.profile("x") as handle:
            handle.set_events(9)
        assert NULL_PROFILER.snapshot() == {"profiles": []}


class TestObservationLayers:
    """The telescope and honeypot stages split into synthesize + detect."""

    def test_layer_spans_and_profiles_carry_rows_and_rss(self, small_config):
        readings = iter(range(1000, 10**6, 8))
        telemetry = Telemetry.create(
            clock=FakeClock(),
            cpu_clock=FakeClock(step=0.0005),
            rss_fn=lambda: 4096,
            current_rss_fn=lambda: next(readings),
        )
        ResilientPipeline(
            small_config, telemetry=telemetry, sleep=no_sleep
        ).run()
        spans = {s.span_id: s for s in telemetry.tracer.spans}
        names = [p.stage for p in telemetry.profiler.profiles]
        by_name = {p.stage: p for p in telemetry.profiler.profiles}
        for stage in ("telescope", "honeypot"):
            (stage_span,) = [
                s for s in spans.values()
                if s.name == "stage" and s.attrs["stage"] == stage
            ]
            n = stage_span.attrs["partitions"]
            assert n > 1
            layers = [
                s for s in spans.values()
                if s.attrs.get("stage") == stage
                and s.name in ("synthesize", "detect")
            ]
            # One synthesize and one detect span per partition, in order.
            assert [(s.name, s.attrs["partition"]) for s in layers] == [
                (name, index)
                for index in range(n)
                for name in ("synthesize", "detect")
            ]
            for synthesize, detect in zip(layers[::2], layers[1::2]):
                assert detect.attrs["rows"] == synthesize.attrs["rows"]
                # Both are children of the stage's attempt span.
                parent = spans[synthesize.parent_id]
                assert parent.name == "attempt"
                assert parent.attrs["stage"] == stage
                assert parent.parent_id == stage_span.span_id
                assert detect.parent_id == synthesize.parent_id
            rows = sum(s.attrs["rows"] for s in layers[::2])
            assert rows > 0
            for layer in ("synthesize", "detect"):
                # Exactly one profile entry per layer, summed over the
                # partitions.
                assert names.count(f"{stage}.{layer}") == 1
                profile = by_name[f"{stage}.{layer}"]
                assert profile.rows == rows
                assert profile.rows_per_s == pytest.approx(
                    rows / profile.wall_s
                )
                assert profile.peak_rss_kb == 4096
                # Injected probe: each of the 2n layer readings takes one
                # value before and one after, so the first partition's
                # "before" and the last one's "after" are 4n - 3 steps
                # apart.
                assert profile.rss_after_kb == (
                    profile.rss_before_kb + 8 * (4 * n - 3)
                )
            assert (
                by_name[f"{stage}.detect"].rss_before_kb
                == by_name[f"{stage}.synthesize"].rss_before_kb + 16
            )
            assert by_name[stage].rss_before_kb < by_name[
                f"{stage}.synthesize"
            ].rss_before_kb

    def test_layer_readings_fold_into_one_entry_per_stage(self):
        profiler = StageProfiler(
            clock=FakeClock(step=0.5), cpu_clock=FakeClock(step=0.25),
            rss_fn=iter(range(100, 200)).__next__,
        )
        for _ in range(2):  # two runs of the same stage
            with profiler.profile("stage"):
                for rows in (3, 4):
                    with profiler.profile("stage.layer", accumulate=True) as h:
                        h.set_rows(rows)
        names = [p.stage for p in profiler.profiles]
        assert names == ["stage.layer", "stage", "stage.layer", "stage"]
        first = profiler.profiles[0].to_dict()
        assert (first["rows"], first["wall_s"], first["cpu_s"]) == (7, 1.0, 0.5)
        # The one fake probe is read twice as each reading starts (peak,
        # then current) and twice as it ends (peak, then current).
        # Before: the first reading's; after and peak: the last one's.
        assert (first["peak_rss_before_kb"], first["rss_before_kb"]) == (
            102, 103
        )
        assert (first["peak_rss_kb"], first["rss_after_kb"]) == (108, 109)

    def test_one_fake_rss_probe_serves_both_readings(self):
        profiler = StageProfiler(rss_fn=lambda: 7)
        with profiler.profile("x"):
            pass
        (profile,) = profiler.profiles
        assert (profile.rss_before_kb, profile.rss_after_kb) == (7, 7)
        snapshot = profiler.snapshot()["profiles"][0]
        assert snapshot["rss_before_kb"] == snapshot["rss_after_kb"] == 7

    def test_current_rss_reads_the_live_process(self):
        from repro.obs.profile import current_rss_kb, peak_rss_kb

        assert 0 < current_rss_kb() <= peak_rss_kb()
        profiler = StageProfiler()
        with profiler.profile("alloc"):
            block = bytearray(64 * 1024 * 1024)
            block[::4096] = b"x" * len(block[::4096])
        (profile,) = profiler.profiles
        assert profile.rss_after_kb - profile.rss_before_kb > 32 * 1024
        del block

    def test_flight_report_lists_the_layers(self, tmp_path):
        from repro.obs.report import render_flight_report

        run_dir = tmp_path / "run"
        profiler = StageProfiler(
            clock=FakeClock(step=0.5), rss_fn=lambda: 2048
        )
        with profiler.profile("telescope"):
            with profiler.profile("telescope.synthesize") as handle:
                handle.set_rows(1000)
        run_dir.mkdir()
        (run_dir / PROFILE_FILE).write_text(profiler.to_json())
        report = render_flight_report(run_dir)
        assert "telescope.synthesize" in report
        assert "2000.0" in report  # rows/s: 1000 rows over 0.5 s
        assert "2.0->2.0" in report

    def test_flight_report_marks_the_stage_that_last_raised_the_peak(
        self, tmp_path
    ):
        from repro.obs.report import render_flight_report

        # High-water mark as each entry starts and ends: "attacks" and
        # "fusion" raise it, the others do not.
        peaks = iter(
            [100, 100, 100, 300, 300, 300, 300, 300, 300, 400, 400, 400]
        )
        profiler = StageProfiler(
            rss_fn=peaks.__next__, current_rss_fn=lambda: 50
        )
        for stage in ("internet", "attacks", "measurement", "fusion", "x"):
            with profiler.profile(stage):
                if stage == "measurement":
                    with profiler.profile("measurement.crawl", accumulate=True):
                        pass
        entries = {
            entry["stage"]: entry
            for entry in profiler.snapshot()["profiles"]
        }
        assert [
            (entry["peak_rss_before_kb"], entry["peak_rss_kb"])
            for entry in entries.values()
        ] == [(100, 100), (100, 300), (300, 300), (300, 300), (300, 400),
              (400, 400)]
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / PROFILE_FILE).write_text(profiler.to_json())
        marked = [
            line.split()[0]
            for line in render_flight_report(run_dir).splitlines()
            if line.endswith("<- set the peak")
        ]
        assert marked == ["fusion"]
        # Profiles written before the start reading existed mark nothing.
        old = profiler.snapshot()
        for entry in old["profiles"]:
            del entry["peak_rss_before_kb"]
        (run_dir / PROFILE_FILE).write_text(json.dumps(old))
        assert "<- set the peak" not in render_flight_report(run_dir)

    def test_flight_report_prints_stage_partitions(self, tmp_path):
        from repro.obs.report import render_flight_report

        run_dir = tmp_path / "run"
        run_dir.mkdir()
        profiler = StageProfiler(rss_fn=lambda: 2048)
        tracer = SpanTracer()
        with tracer.span("stage", stage="telescope", partitions=7):
            with profiler.profile("telescope"):
                for _ in range(7):
                    with profiler.profile(
                        "telescope.detect", accumulate=True
                    ) as handle:
                        handle.set_rows(10)
        (run_dir / PROFILE_FILE).write_text(profiler.to_json())
        (run_dir / TRACE_JSONL_FILE).write_text(tracer.to_jsonl())
        report = render_flight_report(run_dir)
        assert " parts " in report
        (line,) = [
            line for line in report.splitlines()
            if line.startswith("telescope.detect")
        ]
        assert line.split()[1:2] == ["7"]
        assert line.split()[4] == "70"  # rows summed over partitions


    def test_measurement_and_fusion_split_into_child_layers(
        self, small_config, tmp_path
    ):
        from repro.obs.report import render_flight_report

        telemetry = Telemetry.create(
            clock=FakeClock(), cpu_clock=FakeClock(), rss_fn=lambda: 4096
        )
        result = ResilientPipeline(
            small_config, telemetry=telemetry, sleep=no_sleep
        ).run()
        spans = {s.span_id: s for s in telemetry.tracer.spans}
        names = [p.stage for p in telemetry.profiler.profiles]
        by_name = {p.stage: p for p in telemetry.profiler.profiles}
        n_domains = sum(len(zone.domains) for zone in result.zones)
        n_events = len(result.telescope_events) + len(result.honeypot_events)
        expected_rows = {
            "measurement": {"crawl": n_domains, "classify": n_domains},
            "fusion": {
                "annotate": n_events,
                "fuse": len(result.fused.combined),
                "index": len(result.openintel.hosting_intervals),
            },
        }
        for stage, rows in expected_rows.items():
            layers = [
                s for s in spans.values()
                if s.attrs.get("stage") == stage and s.name in rows
            ]
            # One span per layer, in order, each a child of the stage's
            # attempt span, and one profile entry per layer.
            assert [s.name for s in layers] == list(rows)
            for span in layers:
                assert "partition" not in span.attrs
                assert span.attrs["rows"] == rows[span.name]
                parent = spans[span.parent_id]
                assert (parent.name, parent.attrs["stage"]) == (
                    "attempt", stage
                )
                entry = f"{stage}.{span.name}"
                assert names.count(entry) == 1
                assert by_name[entry].rows == rows[span.name]
        run_dir = tmp_path / "run"
        telemetry.write_artifacts(run_dir)
        report = render_flight_report(run_dir)
        for stage, rows in expected_rows.items():
            for layer in rows:
                (line,) = [
                    line for line in report.splitlines()
                    if line.startswith(f"{stage}.{layer} ")
                ]
                assert line.split()[1] == "-"  # no victim partitions

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[1, 2]", b"\"text\""],
        ids=["not-utf8", "array", "string"],
    )
    def test_flight_report_skips_an_unreadable_artifact(
        self, tmp_path, content
    ):
        from repro.obs.report import META_FILE, render_flight_report

        run_dir = tmp_path / "run"
        run_dir.mkdir()
        profiler = StageProfiler(rss_fn=lambda: 2048)
        with profiler.profile("attacks"):
            pass
        (run_dir / PROFILE_FILE).write_text(profiler.to_json())
        (run_dir / META_FILE).write_bytes(content)
        (run_dir / TRACE_JSONL_FILE).write_bytes(content + b"\n")
        report = render_flight_report(run_dir)
        assert "attacks" in report
        assert "run:" not in report  # meta.json unreadable
        assert "trace:" not in report  # trace.jsonl unreadable
        assert main(["report", "--run-dir", str(run_dir)]) == 0


class TestTelemetryBundle:
    def test_disabled_is_shared_singleton(self):
        assert Telemetry.disabled() is Telemetry.disabled()
        assert not Telemetry.disabled().enabled
        assert get_telemetry() is Telemetry.disabled()

    def test_create_shares_one_clock(self):
        clock = FakeClock()
        telemetry = Telemetry.create(clock=clock)
        assert telemetry.enabled
        assert telemetry.clock is clock
        assert telemetry.metrics._clock is clock
        assert telemetry.tracer._clock is clock
        assert telemetry.profiler._clock is clock

    def test_set_telemetry_installs_shared_registry(self):
        telemetry = Telemetry.create()
        set_telemetry(telemetry)
        assert get_telemetry() is telemetry
        assert get_registry() is telemetry.metrics
        set_telemetry(None)
        assert get_telemetry() is Telemetry.disabled()
        assert get_registry() is NULL_REGISTRY

    def test_write_artifacts(self, tmp_path):
        telemetry = Telemetry.create(
            clock=FakeClock(), cpu_clock=FakeClock(), rss_fn=lambda: 0
        )
        with telemetry.tracer.span("run"):
            telemetry.metrics.counter("c_total").inc()
        written = telemetry.write_artifacts(tmp_path / "run")
        assert sorted(written) == [
            METRICS_FILE, PROFILE_FILE, TRACE_FILE, TRACE_JSONL_FILE
        ]
        for path in written.values():
            assert (tmp_path / "run").joinpath(path.split("/")[-1]).exists()
        chrome = json.loads((tmp_path / "run" / TRACE_FILE).read_text())
        assert chrome["traceEvents"][0]["name"] == "run"


class TestDeterministicArtifacts:
    def _artifacts(self, small_config):
        telemetry = Telemetry.create(
            clock=FakeClock(),
            cpu_clock=FakeClock(step=0.0005),
            rss_fn=lambda: 1024,
        )
        ResilientPipeline(
            small_config, telemetry=telemetry, sleep=no_sleep
        ).run()
        return (
            telemetry.metrics.to_json(),
            telemetry.tracer.to_chrome_json(),
            telemetry.profiler.to_json(),
        )

    def test_two_serial_runs_export_identical_bytes(self, small_config):
        """The acceptance bar: same seed + same injected clock ->
        byte-identical metrics.json and trace.json (serial runs)."""
        first = self._artifacts(small_config)
        second = self._artifacts(small_config)
        assert first[0] == second[0]  # metrics.json
        assert first[1] == second[1]  # trace.json
        assert first[2] == second[2]  # profile.json


class TestExactCountersUnderFaults:
    """A deterministic fault scenario must yield exact counter values."""

    def _run(self, small_config):
        plan = FaultPlan.generate(
            FaultPlanConfig(
                seed=1,
                n_days=small_config.n_days,
                n_honeypots=small_config.n_honeypots,
                telescope_outage_rate=0.0,
                honeypot_churn_rate=0.0,
                openintel_miss_rate=0.0,
                dps_corruption_rate=0.0,
                transient_failures={"honeypot": 3},
            )
        )
        telemetry = Telemetry.create(clock=FakeClock())
        result = ResilientPipeline(
            small_config,
            plan=plan,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            sleep=no_sleep,
            telemetry=telemetry,
        ).run()
        return result, telemetry.metrics

    def test_exact_counter_values(self, small_config):
        result, metrics = self._run(small_config)
        value = metrics.value
        # Three injected failures exhaust the retry budget exactly.
        assert value(
            "pipeline_stage_attempts_total", stage="honeypot"
        ) == 3
        assert value(
            "pipeline_stage_attempt_failures_total", stage="honeypot"
        ) == 3
        assert value(
            "pipeline_stage_outcomes_total",
            stage="honeypot", status="degraded",
        ) == 1
        # Degradation is the stage outcome; the runner keeps no breakers.
        assert not any(
            name.startswith("breaker_")
            for name in metrics.snapshot()["metrics"]
        )
        # Every other stage completed cleanly on the first attempt.
        for stage in ("internet", "attacks", "migration", "telescope",
                      "measurement", "fusion"):
            assert value(
                "pipeline_stage_outcomes_total", stage=stage, status="ok"
            ) == 1, stage
            assert value(
                "pipeline_stage_attempt_failures_total", stage=stage
            ) == 0, stage
        # The quality report agrees with the counters.
        stage = {s.name: s for s in result.quality.stages}["honeypot"]
        assert stage.status == "degraded"
        assert stage.attempts == 3
        # One stage-seconds observation per finished stage.
        seconds = metrics._families["pipeline_stage_seconds"]
        assert seconds.count(stage="honeypot") == 1
        assert seconds.count(stage="fusion") == 1


class TestForkChildTelemetry:
    """A fork child's records come home through since/absorb."""

    def test_metric_increments_add_up(self):
        child = MetricsRegistry()
        tries = child.counter("tries_total", "t", ("stage",))
        depth = child.gauge("depth", "d")
        seconds = child.histogram("seconds", "s", buckets=(1.0, 10.0))
        tries.inc(stage="a")
        seconds.observe(0.5)
        before = child.counts()
        tries.inc(2, stage="a")
        tries.inc(stage="b")
        depth.inc(3)
        seconds.observe(5.0)
        parent = MetricsRegistry()
        parent.counter("tries_total", "t", ("stage",)).inc(stage="a")
        parent.absorb(child.since(before))
        assert parent.value("tries_total", stage="a") == 3
        assert parent.value("tries_total", stage="b") == 1
        assert parent.value("depth") == 3
        histogram = parent._families["seconds"]
        assert histogram.count() == 1 and histogram.sum() == 5.0
        assert child.since(child.counts()) == []

    def test_child_spans_get_fresh_ids_under_the_open_parent(self):
        tracer = SpanTracer()
        with tracer.span("run"):
            mark = tracer.mark()
            with tracer.span("stage"):
                with tracer.span("attempt"):
                    pass
            child_spans = tracer.since(mark)
            tracer.spans = tracer.spans[:mark]  # as if recorded elsewhere
            with tracer.span("migration"):
                pass
            tracer.adopt(child_spans, thread="telescope")
        by_name = {span.name: span for span in tracer.spans}
        ids = [span.span_id for span in tracer.spans]
        assert len(ids) == len(set(ids))
        assert by_name["stage"].parent_id == by_name["run"].span_id
        assert by_name["attempt"].parent_id == by_name["stage"].span_id
        assert by_name["stage"].span_id > by_name["migration"].span_id
        assert by_name["attempt"].thread == "telescope"

    def test_child_profile_entries_stay_one_per_run(self):
        profiler = StageProfiler()
        child = StageProfiler()
        with child.profile("measurement"):
            mark = child.fork_mark()
            with child.profile("measurement.crawl", accumulate=True) as h:
                h.set_rows(10)
            entries = child.since(mark)
        for _run in range(2):
            # Each run's child pickles its entries home once; they are
            # new entries, as the ones recorded here are, not sums.
            with profiler.profile("internet"):
                pass
            profiler.absorb(pickle.loads(pickle.dumps(entries)))
        assert [p.stage for p in profiler.profiles] == [
            "internet", "measurement.crawl"
        ] * 2
        assert [p.rows for p in profiler.profiles[1::2]] == [10, 10]


class TestSupervisedPoolCounters:
    def test_watchdog_kill_is_counted(self):
        registry = MetricsRegistry()
        pool = SupervisedPool(metrics=registry)
        hung = pool.run(
            TaskSpec("hung", lambda: time.sleep(120), deadline=0.2)
        )
        fine = pool.run(TaskSpec("fine", lambda: 42))
        assert hung.status == STATUS_DEADLINE
        assert fine.value == 42
        assert registry.value("exec_tasks_queued_total") == 2
        assert registry.value("exec_tasks_started_total") == 2
        assert registry.value("exec_workers_killed_total") == 1
        assert registry.value(
            "exec_task_outcomes_total", status="deadline"
        ) == 1
        assert registry.value("exec_task_outcomes_total", status="ok") == 1
        assert registry.value("exec_inflight_workers") == 0


class TestQuarantineCounters:
    def _write_feed(self, path):
        event = AttackEvent(SOURCE_TELESCOPE, 123, 0.0, 60.0, 2.5)
        good = json.dumps(event_to_dict(event))
        path.write_text(
            good + "\n" + "{not json}\n" + good + "\n", encoding="utf-8"
        )

    def test_drops_counted_per_feed_and_reason(self, tmp_path):
        path = tmp_path / "telescope.jsonl"
        self._write_feed(path)
        registry = MetricsRegistry()
        set_registry(registry)
        events, report = read_events_jsonl(path, feed="telescope")
        assert len(events) == 1
        assert report.rejected == 2
        assert registry.value(
            "records_quarantined_total",
            feed="telescope", reason=REASON_UNPARSEABLE,
        ) == 1
        assert registry.value(
            "records_quarantined_total",
            feed="telescope", reason=REASON_DUPLICATE,
        ) == 1

    def test_feedless_load_counts_under_unknown(self, tmp_path):
        path = tmp_path / "anon.jsonl"
        self._write_feed(path)
        registry = MetricsRegistry()
        set_registry(registry)
        read_events_jsonl(path)
        assert registry.value(
            "records_quarantined_total",
            feed="unknown", reason=REASON_UNPARSEABLE,
        ) == 1

    def test_disabled_registry_stays_silent(self, tmp_path):
        path = tmp_path / "telescope.jsonl"
        self._write_feed(path)
        events, report = read_events_jsonl(path, feed="telescope")
        assert len(events) == 1  # quarantine works without telemetry
        assert get_registry() is NULL_REGISTRY


class TestCLITelemetry:
    def test_simulate_metrics_writes_artifacts(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main([
            "--preset", "small", "simulate",
            "--run-dir", str(run_dir), "--metrics",
        ])
        assert code == 0
        capsys.readouterr()
        for name in (METRICS_FILE, TRACE_FILE, TRACE_JSONL_FILE,
                     PROFILE_FILE, "quality.json"):
            assert (run_dir / name).exists(), name
        snapshot = json.loads((run_dir / METRICS_FILE).read_text())
        outcomes = snapshot["metrics"]["pipeline_stage_outcomes_total"]
        ok_stages = {
            series["labels"]["stage"]
            for series in outcomes["series"]
            if series["labels"]["status"] == "ok"
        }
        assert "fusion" in ok_stages

        # The flight report renders from the persisted artifacts.
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Flight report" in out
        assert "fusion" in out

        # `metrics` serves Prometheus text and raw JSON from the run dir.
        assert main(["metrics", str(run_dir)]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE pipeline_stage_outcomes_total counter" in prom
        assert main(["metrics", str(run_dir), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["metrics"]

        # `trace` serves both export shapes.
        assert main(["trace", str(run_dir)]) == 0
        chrome = json.loads(capsys.readouterr().out)
        assert any(
            e["name"] == "run" for e in chrome["traceEvents"]
        )
        assert main(["trace", str(run_dir), "--format", "jsonl"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(json.loads(l)["name"] == "stage" for l in lines)

    def test_metrics_command_without_artifact(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path)]) == 2
        assert METRICS_FILE in capsys.readouterr().err

    def test_trace_command_without_artifact(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path)]) == 2
        assert TRACE_FILE in capsys.readouterr().err

    def test_simulate_without_metrics_writes_no_artifacts(
        self, tmp_path, capsys
    ):
        run_dir = tmp_path / "plain"
        assert main([
            "--preset", "small", "simulate", "--run-dir", str(run_dir),
        ]) == 0
        capsys.readouterr()
        assert not (run_dir / METRICS_FILE).exists()
        assert not (run_dir / TRACE_FILE).exists()


class TestHistogramQuantile:
    def test_interpolates_within_the_containing_bucket(self):
        # 10 obs <= 1, 10 more <= 2, 20 more <= 4; the median rank (20)
        # lands exactly at the top of the second bucket.
        assert histogram_quantile((1, 2, 4), (10, 20, 40), 40, 0.5) == 2.0
        # Rank 30 is halfway through the (2, 4] bucket.
        assert histogram_quantile((1, 2, 4), (10, 20, 40), 40, 0.75) == 3.0

    def test_first_bucket_interpolates_from_zero(self):
        assert histogram_quantile((10,), (4,), 4, 0.5) == 5.0

    def test_rank_in_inf_bucket_clamps_to_highest_finite_bound(self):
        # All 10 observations exceed every finite bound.
        assert histogram_quantile((1, 2), (0, 0), 10, 0.9) == 2.0

    def test_empty_histogram_returns_none(self):
        assert histogram_quantile((1, 2), (0, 0), 0, 0.5) is None
        assert histogram_quantile((), (), 5, 0.5) is None

    def test_quantile_out_of_range_raises(self):
        with pytest.raises(ValueError):
            histogram_quantile((1,), (1,), 1, 1.5)
        with pytest.raises(ValueError):
            histogram_quantile((1,), (1,), 1, -0.1)

    def test_series_key_sorts_labels(self):
        assert series_key("m", {}) == "m"
        assert series_key("m", {"b": 2, "a": 1}) == 'm{a="1",b="2"}'


class TestMetricsHistory:
    def test_first_window_has_gauges_but_no_rates(self):
        registry = MetricsRegistry()
        registry.gauge("depth", "").set(7)
        registry.counter("hits_total", "").inc(3)
        history = MetricsHistory(registry, FakeClock(step=1.0))
        window = history.sample()
        assert window["dt"] == 0.0
        assert window["gauges"] == {"depth": 7.0}
        assert window["rates"] == {}

    def test_counter_rates_are_per_second_deltas(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits_total", "", ("kind",))
        history = MetricsHistory(registry, FakeClock(step=2.0))
        history.sample()
        hits.inc(10, kind="a")
        window = history.sample()  # dt == 2.0s
        assert window["rates"] == {'hits_total{kind="a"}': 5.0}
        # No new increments: the next window reports a zero rate.
        assert history.sample()["rates"] == {'hits_total{kind="a"}': 0.0}

    def test_histogram_quantiles_cover_only_the_window(self):
        registry = MetricsRegistry()
        latency = registry.histogram("lat_seconds", "", (), buckets=(1, 2, 4))
        history = MetricsHistory(registry, FakeClock(step=1.0))
        for _ in range(4):
            latency.observe(0.5)
        history.sample()
        # Second window sees only the four new, slower observations.
        for _ in range(4):
            latency.observe(3.0)
        row = history.sample()["quantiles"]["lat_seconds"]
        assert row["count"] == 4.0
        assert 2.0 < row["p50"] <= 4.0

    def test_ring_evicts_oldest_windows(self):
        registry = MetricsRegistry()
        history = MetricsHistory(registry, FakeClock(step=1.0), capacity=3)
        for _ in range(5):
            history.sample()
        windows = history.windows()
        assert len(windows) == 3
        assert [w["ts"] for w in windows] == [3.0, 4.0, 5.0]
        assert [w["ts"] for w in history.windows(last=2)] == [4.0, 5.0]
        assert history.windows(last=0) == []
        doc = history.history_doc(last=2)
        assert doc["window_count"] == 2 and doc["capacity"] == 3

    def test_maybe_sample_respects_the_interval(self):
        registry = MetricsRegistry()
        clock = FakeClock(step=1.0)
        history = MetricsHistory(registry, clock, interval_s=5.0)
        assert history.maybe_sample() is not None  # first call always fires
        assert history.maybe_sample() is None      # 1s later: too soon
        clock.now += 10.0
        assert history.maybe_sample() is not None

    def test_identical_schedules_export_identical_jsonl(self):
        def run():
            registry = MetricsRegistry()
            hits = registry.counter("hits_total", "")
            history = MetricsHistory(registry, FakeClock(step=1.0))
            for i in range(4):
                hits.inc(i + 1)
                history.sample()
            return history.to_jsonl()

        first, second = run(), run()
        assert first == second
        assert [json.loads(line) for line in first.splitlines()]

    def test_rejects_degenerate_configuration(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            MetricsHistory(registry, FakeClock(), capacity=0)
        with pytest.raises(ValueError):
            MetricsHistory(registry, FakeClock(), interval_s=0)


class TestRequestLog:
    def test_recent_ring_evicts_but_total_keeps_counting(self):
        log = RequestLog(FakeClock(step=1.0), capacity=3)
        for i in range(5):
            log.record(f"t-{i:06d}", "/attacks", "GET", 200, 0.01)
        assert log.total == 5
        assert [r["trace_id"] for r in log.recent()] == [
            "t-000002", "t-000003", "t-000004",
        ]
        assert [r["trace_id"] for r in log.recent(last=1)] == ["t-000004"]
        assert log.recent(last=0) == []

    def test_slow_requests_are_captured_separately(self):
        log = RequestLog(FakeClock(step=1.0), slow_threshold_s=0.5)
        log.record("fast", "/healthz", "GET", 200, 0.01)
        slow_entry = log.record("slow", "/ingest/attacks", "POST", 202, 0.9)
        assert [r["trace_id"] for r in log.slow()] == ["slow"]
        assert slow_entry["duration_s"] == 0.9

    def test_extra_attrs_are_sorted_and_none_dropped(self):
        log = RequestLog(FakeClock(step=1.0))
        entry = log.record(
            "t", "/x", "GET", 200, 0.1, node="f1", role=None, zone="a",
        )
        assert entry["node"] == "f1" and entry["zone"] == "a"
        assert "role" not in entry


class TestPrometheusEscaping:
    def test_help_escapes_backslash_and_newline_not_quotes(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", 'path "C:\\tmp"\nsecond line').inc()
        text = prometheus_from_snapshot(registry.snapshot())
        assert (
            '# HELP odd_total path "C:\\\\tmp"\\nsecond line' in text
        )
        assert "\nsecond line" not in text.replace("\\nsecond", "")

    def test_label_values_escape_quotes_backslashes_newlines(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", "", ("path",)).inc(
            path='a"b\\c\nd'
        )
        text = prometheus_from_snapshot(registry.snapshot())
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_round_trips_through_metrics_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("odd_total", "line1\nline2").inc()
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(registry.snapshot()), encoding="utf-8")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert prometheus_from_snapshot(loaded) == prometheus_from_snapshot(
            registry.snapshot()
        )


class TestConsoleRenderer:
    @staticmethod
    def _status(node, role="primary", **overrides):
        doc = {
            "node": node,
            "role": role,
            "epoch": 3,
            "seq": 120,
            "applied_seq": 120,
            "queue_depth": 0,
            "shedding": False,
            "draining": False,
            "degraded": False,
            "uptime_s": 42.5,
            "wal": {"segments": 2, "bytes": 2048, "oldest_seq": 1},
            "snapshots": {"seqs": [100], "newest_age_s": 7.0},
            "followers": {},
            "requests": {"total": 9, "slow_threshold_s": 0.5, "slow": []},
        }
        doc.update(overrides)
        return doc

    def test_renders_nodes_replication_and_down_peers(self):
        nodes = [
            {
                "url": "http://p:1",
                "status": self._status(
                    "p",
                    followers={
                        "f1": {"committed_seq": 118, "seq_lag": 2,
                               "age_s": 0.4},
                    },
                ),
                "error": None,
            },
            {"url": "http://f2:1", "status": None,
             "error": "connection refused"},
        ]
        frame = render_dashboard(nodes)
        assert frame.startswith("repro cluster console — 1/2 nodes up")
        assert "p -> f1: committed=118 lag=2 age=0.4s" in frame
        assert "DOWN" in frame and "connection refused" in frame
        assert frame == render_dashboard(nodes)  # pure: same bytes out

    def test_renders_slow_requests_and_history(self):
        slow = [{
            "trace_id": "burst-000007", "endpoint": "/ingest/attacks",
            "method": "POST", "status": 202, "duration_s": 0.8,
            "node": "p",
        }]
        nodes = [{
            "url": "http://p:1",
            "status": self._status(
                "p",
                degraded=True,
                requests={"total": 9, "slow_threshold_s": 0.5,
                          "slow": slow},
            ),
            "error": None,
        }]
        history = {
            "interval_s": 5.0, "capacity": 240, "window_count": 1,
            "windows": [{
                "ts": 10.0, "dt": 5.0,
                "gauges": {},
                "rates": {"serve_wal_appends_total": 12.5},
                "quantiles": {
                    "serve_http_request_seconds": {
                        "count": 4.0, "p50": 0.02, "p99": 0.5,
                    },
                },
            }],
        }
        frame = render_dashboard(nodes, history)
        assert "800.0ms POST /ingest/attacks" in frame
        assert "trace=burst-000007" in frame
        assert "degraded" in frame
        assert "12.5/s  serve_wal_appends_total" in frame
        assert "p50=20.0ms" in frame and "p99=500.0ms" in frame
