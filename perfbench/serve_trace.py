"""Traced ``serve-ingest`` session: the service hosted in this process.

Hosting ``LiveIngestService`` and ``ServeHTTPServer`` in-process lets
the benchmark wrap the instance methods of the WAL, its disk, the
snapshot manager, the admission queue and the fused store. The same
session load as the untraced run goes over real HTTP; the difference in
ingest time against the subprocess run is the tracing overhead (which
here includes sharing one interpreter lock with the load generator).
"""

from __future__ import annotations

import statistics
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from serve_load import TIMEOUT_S, SessionLoad, SessionResult, run_session
from spans import Patcher, SpanRecorder, percentile

#: Store reads that answer the query endpoints.
QUERY_METHODS = ("events_for_ip", "events_for_prefix", "victims_in_prefix", "summary")
#: Snapshot work that WAL fsyncs are checked for overlapping.
SNAPSHOT_SPANS = ("serve.snapshot", "serve.snapshot.state_dict", "serve.wal.prune")


def install(recorder: SpanRecorder, patcher: Patcher, service,
            service_module) -> List[float]:
    """Wrap the service's layers; returns the list queue waits land in."""

    def wrap(owner, name, span_name, **options):
        patcher.wrap(recorder, owner, name, span_name, **options)

    wrap(service, "submit", "serve.submit")
    wrap(service_module, "validate_event_dict", "serve.validate")
    wrap(service.wal, "append", "serve.wal.append")
    wrap(service.wal, "prune", "serve.wal.prune")
    wrap(service.wal.disk, "fsync", "serve.wal.fsync")
    wrap(service.snapshots, "save", "serve.snapshot")
    wrap(service.store, "state_dict", "serve.snapshot.state_dict")
    wrap(service.store, "apply_attack", "serve.apply")
    for name in QUERY_METHODS:
        wrap(service.store, name, "serve.query")

    disk_append = service.wal.disk.append

    def counted_append(handle, data):
        recorder.add("serve.wal.bytes", len(data))
        recorder.add("serve.wal.records")
        return disk_append(handle, data)

    patcher.patch(service.wal.disk, "append", counted_append)

    pushed: Dict[int, float] = {}
    waits: List[float] = []
    push, take = service.queue.push, service.queue.take

    def timed_push(entries):
        now = recorder.clock()
        for entry in entries:
            pushed[entry.seq] = now
        return push(entries)

    def timed_take(*args, **kwargs):
        batch = take(*args, **kwargs)
        now = recorder.clock()
        for entry in batch:
            queued = pushed.pop(entry.seq, None)
            if queued is not None:
                waits.append(now - queued)
        return batch

    patcher.patch(service.queue, "push", timed_push)
    patcher.patch(service.queue, "take", timed_take)
    return waits


def layer_metrics(recorder: SpanRecorder, waits: List[float],
                  session: SessionResult, refused: int) -> dict:
    """Per-layer numbers of one traced session.

    Every ``_s`` value is self time, except ``serve.submit_s``, which is
    the inclusive time spent in ``submit`` so that ``serve.http.overhead_ms``
    (mean client ack minus mean submit) splits the ack in two.
    """
    own = recorder.self_time_by_name()
    submits = recorder.by_name("serve.submit")
    fsyncs = len(recorder.by_name("serve.wal.fsync"))
    records = recorder.counters.get("serve.wal.records", 0.0)
    submit_ms = (
        statistics.fmean(span.duration for span in submits) * 1000.0
        if submits else 0.0
    )
    ack_ms = statistics.fmean(session.ack_ms) if session.ack_ms else 0.0
    busy = [(span.start, span.end) for name in SNAPSHOT_SPANS
            for span in recorder.by_name(name)]
    fsync_in_snapshot = sum(
        span.duration for span in recorder.by_name("serve.wal.fsync")
        if any(start < span.end and span.start < end for start, end in busy)
    )
    return {
        "serve.submit_s": sum(span.duration for span in submits),
        "serve.validate_s": own.get("serve.validate", 0.0),
        "serve.http.overhead_ms": ack_ms - submit_ms,
        "serve.wal.append_s": own.get("serve.wal.append", 0.0),
        "serve.wal.fsync_s": own.get("serve.wal.fsync", 0.0),
        "serve.wal.fsync_in_snapshot_s": fsync_in_snapshot,
        "serve.wal.fsyncs": float(fsyncs),
        "serve.wal.records_per_fsync": records / fsyncs if fsyncs else 0.0,
        "serve.wal.bytes_per_record": (
            recorder.counters.get("serve.wal.bytes", 0.0) / records
            if records else 0.0
        ),
        "serve.wal.prune_s": own.get("serve.wal.prune", 0.0),
        "serve.snapshot_s": own.get("serve.snapshot", 0.0),
        "serve.snapshots": float(len(recorder.by_name("serve.snapshot"))),
        "serve.snapshot.state_dict_s": own.get("serve.snapshot.state_dict", 0.0),
        "serve.queue.wait_p50_ms": percentile(waits, 0.5) * 1000.0,
        "serve.queue.wait_p99_ms": percentile(waits, 0.99) * 1000.0,
        "serve.apply_s": own.get("serve.apply", 0.0),
        "serve.applied": float(len(recorder.by_name("serve.apply"))),
        "serve.query_s": own.get("serve.query", 0.0),
        "serve.refused": float(refused),
    }


def traced_session(data_dir: Path, load: SessionLoad,
                   spans_path: Optional[Path]) -> Tuple[SessionResult, dict]:
    """One session against an in-process, span-wrapped service."""
    from repro.serve import service as service_module
    from repro.serve.http import ServeHTTPServer
    from repro.serve.service import LiveIngestService, ServeConfig

    recorder, patcher = SpanRecorder(), Patcher()
    service = LiveIngestService(ServeConfig(data_dir=data_dir))
    service.start()
    try:
        waits = install(recorder, patcher, service, service_module)
        server = ServeHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.1},
            name="perfbench-serve-http",
        )
        thread.start()
        try:
            session = run_session(server.server_address[1], load)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(TIMEOUT_S)
        refused = sum(service.refused_by_feed.values())
        service.drain()
    except BaseException:
        service.stop()
        raise
    finally:
        patcher.restore()
    if spans_path is not None:
        recorder.dump(spans_path)
    return session, layer_metrics(recorder, waits, session, refused)
