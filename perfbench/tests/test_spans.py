"""Span accounting and attribute restoration of the traced runs.

Run with ``python3 -m pytest perfbench/tests``.
"""

import threading

import pytest

import pipeline_job
import serve_trace
from spans import Patcher, SpanRecorder


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def at(clock: FakeClock, when: float) -> None:
    clock.now = when


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    parent = rec.open("parent")
    at(clock, 1.0)
    child = rec.open("child")
    at(clock, 2.0)
    grandchild = rec.open("grandchild")
    at(clock, 2.5)
    rec.close(grandchild)
    at(clock, 4.0)
    rec.close(child)
    at(clock, 5.0)
    second = rec.open("child")
    at(clock, 6.0)
    rec.close(second)
    at(clock, 10.0)
    rec.close(parent)
    assert grandchild.parent == child.span_id
    assert child.parent == parent.span_id
    own = rec.self_time_by_name()
    assert own["parent"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own["child"] == pytest.approx((3.0 - 0.5) + 1.0)
    assert own["grandchild"] == pytest.approx(0.5)


def test_overlapping_children_are_not_subtracted_twice():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    parent = rec.open("parent")
    for start, end in ((1.0, 5.0), (3.0, 8.0), (9.0, 12.0)):
        at(clock, start)
        child = rec.open("child", parent=parent.span_id)
        at(clock, end)
        rec.close(child)
    at(clock, 10.0)
    rec.close(parent)
    # Union of [1,5], [3,8] and [9,12] clipped to [0,10] covers 8 seconds.
    assert rec.self_times()[parent.span_id] == pytest.approx(2.0)


def test_children_from_other_threads_take_the_named_parent():
    rec = SpanRecorder()
    parent = rec.open("parent")

    def work():
        rec.close(rec.open("worker", parent=parent.span_id))
        rec.close(rec.open("orphan"))

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(5.0)
    assert not thread.is_alive()
    rec.close(parent)
    worker, orphan = rec.by_name("worker")[0], rec.by_name("orphan")[0]
    assert worker.parent == parent.span_id
    assert orphan.parent is None


def test_exception_inside_wrapped_call_closes_span_and_propagates():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def boom():
        at(clock, 2.0)
        raise KeyError("x")

    wrapped = rec.wrap(boom, "boom")
    outer = rec.open("outer")
    with pytest.raises(KeyError):
        wrapped()
    after = rec.open("after")
    rec.close(after)
    rec.close(outer)
    failed = rec.by_name("boom")[0]
    assert failed.error == "KeyError"
    assert failed.duration == pytest.approx(2.0)
    assert failed.parent == outer.span_id
    assert after.parent == outer.span_id


def test_on_result_attaches_counts():
    rec = SpanRecorder()

    def on_result(span, args, kwargs, result):
        rec.add("items", len(result))

    wrapped = rec.wrap(lambda n: list(range(n)), "make", on_result=on_result)
    wrapped(3)
    wrapped(4)
    assert rec.counters["items"] == 7
    assert len(rec.by_name("make")) == 2


class Widget:
    calls = 0

    def method(self):
        return "method"

    @classmethod
    def build(cls):
        return cls

    @staticmethod
    def helper():
        return "helper"


def test_patcher_restores_class_instance_and_static_attributes():
    rec = SpanRecorder()
    widget = Widget()
    before = dict(vars(Widget))
    with Patcher() as patcher:
        patcher.wrap(rec, Widget, "build", "build")
        patcher.wrap(rec, Widget, "helper", "helper")
        patcher.wrap(rec, widget, "method", "method")
        assert Widget.build() is Widget
        assert widget.build() is Widget
        assert Widget.helper() == "helper"
        assert widget.method() == "method"
    assert dict(vars(Widget)) == before
    assert "method" not in vars(widget)
    assert [s.name for s in rec.spans] == ["build", "build", "helper", "method"]


def test_patcher_restores_after_an_exception():
    rec = SpanRecorder()
    original = Widget.__dict__["helper"]
    with pytest.raises(RuntimeError):
        with Patcher() as patcher:
            patcher.wrap(rec, Widget, "helper", "helper")
            raise RuntimeError("stop")
    assert Widget.__dict__["helper"] is original


def _public_state(*owners):
    return [dict(vars(owner)) for owner in owners]


def test_pipeline_tracing_leaves_repro_unpatched():
    from repro.core.events import AttackDataset
    from repro.dns.openintel import OpenIntelPlatform
    from repro.dns.zone import ZoneGenerator
    from repro.dps.detection import DPSDetector
    from repro.internet.hosting import HostingEcosystem
    from repro.internet.topology import InternetTopology
    from repro.pipeline import simulation

    owners = (simulation, AttackDataset, OpenIntelPlatform, ZoneGenerator,
              DPSDetector, HostingEcosystem, InternetTopology)
    before = _public_state(*owners)
    rec, patcher = SpanRecorder(), Patcher()
    pipeline_job.install_tracing(rec, patcher)
    assert simulation.run_simulation is not before[0]["run_simulation"]
    patcher.restore()
    assert _public_state(*owners) == before


def test_serve_tracing_leaves_service_unpatched(tmp_path):
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import service as service_module
    from repro.serve.service import LiveIngestService, ServeConfig

    service = LiveIngestService(
        ServeConfig(data_dir=tmp_path), metrics=MetricsRegistry()
    )
    instances = (service, service.wal, service.wal.disk, service.snapshots,
                 service.store, service.queue)
    before = _public_state(service_module, *instances)
    rec, patcher = SpanRecorder(), Patcher()
    serve_trace.install(rec, patcher, service, service_module)
    assert "submit" in vars(service)
    patcher.restore()
    assert _public_state(service_module, *instances) == before
    service.wal.close()


def test_fsync_time_is_split_by_snapshot_overlap():
    from serve_load import SessionResult

    clock = FakeClock()
    rec = SpanRecorder(clock)
    for name, start, end in (
        ("serve.snapshot", 10.0, 20.0),
        ("serve.wal.fsync", 1.0, 1.5),
        ("serve.wal.fsync", 15.0, 18.0),
        ("serve.wal.fsync", 19.5, 21.0),
    ):
        at(clock, start)
        span = rec.open(name)
        at(clock, end)
        rec.close(span)
    layers = serve_trace.layer_metrics(rec, [0.001], SessionResult(), refused=0)
    assert layers["serve.wal.fsync_s"] == pytest.approx(5.0)
    assert layers["serve.wal.fsync_in_snapshot_s"] == pytest.approx(4.5)
    assert layers["serve.wal.fsyncs"] == 3
