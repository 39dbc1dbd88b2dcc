"""The query and ingest API over :class:`LiveIngestService` (stdlib HTTP).

Endpoints::

    GET  /healthz                     liveness + drain flag
    GET  /summary                     live Table-1-style aggregates
    GET  /attacks?ip=A.B.C.D          recent events against one victim
    GET  /attacks?prefix=A.B.C.0/24   ... against any victim in a /24 or /16
    GET  /victims?prefix=A.B.C.0/24   victim IPs seen in a prefix
    GET  /domains?domain=example.com  latest DPS status for one domain
    GET  /domains                     DPS coverage counts
    GET  /stats                       operational stats (queue, shed, recovery)
    GET  /digest                      state digest (the equivalence oracle)
    GET  /metrics                     Prometheus text exposition
    GET  /metrics/history[?last=N]    rolling flight-recorder windows
    GET  /status                      one-document topology + health snapshot
    POST /ingest/attacks?feed=F       ingest attack events (202 / 503 / 409)
    POST /ingest/dps                  ingest DPS status records (202 / 503 / 409)

Replication (cluster wiring; see :mod:`repro.serve.replication`)::

    GET  /replication/status          shipping state + stable frontier
                                      (?follower=ID&committed=N piggybacks
                                      the follower's cursor for sync acks)
    GET  /replication/segment?first=N&offset=M[&limit=K]
                                      raw WAL segment bytes (octet-stream,
                                      X-Repro-Epoch / X-Repro-Role headers)
    GET  /replication/snapshot        newest snapshot payload (bootstrap)
    POST /promote                     follower takes over as primary
    POST /replication/fence           {"epoch": E, "primary_url": U} — step
                                      down before a newer epoch (409: stale)

Ingest bodies are JSON: either a bare array of records or
``{"records": [...]}``. A refused batch answers **503** with a
``Retry-After`` header — the admission queue is above its high
watermark, a feed's circuit breaker is open, or the service is draining
— and the client is expected to back off and resend; nothing refused was
logged, so nothing refused is owed durability. A write sent to a replica
or fenced node answers **409** with ``primary_url`` naming where writes
go — read-only enforcement, not backpressure, so retrying here is
pointless and redirecting is right.

Every request carries a trace ID: an incoming ``X-Repro-Trace-Id``
header is honored (so a client's ID follows its write into the WAL and
across replication), otherwise the node mints one. The ID is echoed in
the response header, recorded in the service's bounded request log
(with a slow-request capture ring), timed into the
``serve_http_request_seconds`` histogram, and — when tracing is on —
attached to a ``serve.http`` span.

The server is a ``ThreadingHTTPServer``: handler threads only validate
and append (WAL + queue), the single applier thread owns all state
mutation, and reads hit indexes guarded by the GIL plus the store's
atomic-append discipline. ``run_service`` is the process entrypoint the
CLI uses: it binds, writes ``endpoint.json`` (host, port, pid) into the
data dir so drills and tests can discover an ephemeral port, installs
SIGTERM/SIGINT handlers that drain gracefully, and exits 0.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.log import get_logger
from repro.net.addressing import parse_ipv4
from repro.obs.timeseries import HISTORY_FILE
from repro.serve.replication import write_json_atomic
from repro.serve.service import (
    ATTACK_FEEDS,
    FEED_DPS,
    LiveIngestService,
    ServeConfig,
)
from repro.serve.wal import KIND_ATTACK, KIND_DPS

log = get_logger("serve.http")

#: File the running service writes its bound address into (discovery for
#: drills and tests that start the service on an ephemeral port).
ENDPOINT_FILE = "endpoint.json"

MAX_BODY_BYTES = 8 * 1024 * 1024


def _parse_prefix(text: str) -> Tuple[int, int]:
    """``A.B.C.0/24`` -> (base address, length); /24 and /16 only."""
    if "/" not in text:
        raise ValueError("prefix must look like A.B.C.0/24")
    base_text, _, length_text = text.partition("/")
    length = int(length_text)
    if length not in (24, 16):
        raise ValueError("prefix queries support /24 and /16 only")
    return parse_ipv4(base_text), length


class ServeRequestHandler(BaseHTTPRequestHandler):
    """Routes requests to the service; JSON in, JSON out."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Buffered: handle_one_request flushes each response in one write
    # after the handler returns, so the request-log entry _instrumented
    # records exists before the client sees the answer, and headers and
    # body never go out as two writes, which on a keep-alive connection
    # meet Nagle plus the client's delayed ACK (~40 ms per request).
    wbufsize = -1

    @property
    def service(self) -> LiveIngestService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing -------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        log.debug("http", request=format % args)

    def send_response(self, code: int, message: Optional[str] = None) -> None:
        # First (and only) place every handler passes through on its way
        # out: remember the status for the request log and echo the
        # trace ID so callers can correlate their request with spans.
        self._status_code = code
        super().send_response(code, message)
        trace_id = getattr(self, "_trace_id", None)
        if trace_id:
            self.send_header("X-Repro-Trace-Id", trace_id)

    def _instrumented(self, method: str, route) -> None:
        """Wrap one request in trace/span/request-log/latency plumbing."""
        service = self.service
        endpoint = urlparse(self.path).path
        incoming = self.headers.get("X-Repro-Trace-Id")
        self._trace_id = incoming if incoming else service.mint_trace_id()
        self._status_code = 0
        started = service._clock()
        with service.tracer.span(
            "serve.http",
            trace_id=self._trace_id,
            endpoint=endpoint,
            method=method,
            node=service.node_name,
            role=service.cluster.role,
            epoch=service.cluster.epoch,
        ) as span:
            route()
            span.set_attr(status=self._status_code)
        duration_s = service._clock() - started
        service.requests.record(
            self._trace_id,
            endpoint,
            method,
            self._status_code,
            duration_s,
            node=service.node_name,
            role=service.cluster.role,
        )
        self.server.request_seconds.observe(  # type: ignore[attr-defined]
            duration_s,
            endpoint=endpoint,
            method=method,
            status=str(self._status_code),
        )

    def _send_json(
        self,
        status: int,
        body: dict,
        retry_after: Optional[float] = None,
        close: bool = False,
    ) -> None:
        payload = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:g}")
        if close:
            # Used when the request body was left unread: on a
            # keep-alive connection those bytes would otherwise be
            # parsed as the next request.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(payload)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_bytes(self, payload: bytes) -> None:
        """Raw bytes with cluster headers (the WAL segment fetch path)."""
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("X-Repro-Epoch", str(self.service.cluster.epoch))
        self.send_header("X-Repro-Role", self.service.cluster.role)
        self.end_headers()
        self.wfile.write(payload)

    def _read_json_object(self) -> Optional[dict]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(400, {"error": "JSON body required"}, close=True)
            return None
        try:
            data = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send_json(400, {"error": "body is not valid JSON"})
            return None
        if not isinstance(data, dict):
            self._send_json(400, {"error": "expected a JSON object"})
            return None
        return data

    def _read_records(self) -> Optional[list]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > MAX_BODY_BYTES:
            # The body (oversized, or pending with no declared length)
            # stays unread, so this connection cannot be reused.
            self._send_json(
                400, {"error": "body required (JSON records)"}, close=True
            )
            return None
        try:
            data = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send_json(400, {"error": "body is not valid JSON"})
            return None
        if isinstance(data, dict) and isinstance(data.get("records"), list):
            return data["records"]
        if isinstance(data, list):
            return data
        self._send_json(
            400, {"error": 'expected a JSON array or {"records": [...]}'}
        )
        return None

    def _query(self) -> dict:
        return {
            key: values[-1]
            for key, values in parse_qs(urlparse(self.path).query).items()
        }

    def _limit(self, query: dict, default: int = 50) -> int:
        try:
            return max(1, min(1000, int(query.get("limit", default))))
        except ValueError:
            return default

    # -- GET ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        self._instrumented("GET", self._route_get)

    def _route_get(self) -> None:
        path = urlparse(self.path).path
        query = self._query()
        try:
            if path == "/healthz":
                self._get_healthz()
            elif path == "/summary":
                self._send_json(200, self.service.store.summary())
            elif path == "/attacks":
                self._get_attacks(query)
            elif path == "/victims":
                base, length = _parse_prefix(query.get("prefix", ""))
                victims = self.service.store.victims_in_prefix(base, length)
                self._send_json(
                    200,
                    {
                        "prefix": query["prefix"],
                        "count": len(victims),
                        "victims": victims,
                    },
                )
            elif path == "/domains":
                self._get_domains(query)
            elif path == "/stats":
                self._send_json(200, self.service.stats())
            elif path == "/digest":
                self._send_json(
                    200,
                    {
                        "digest": self.service.store.state_digest(),
                        "applied_seq": self.service._applied_seq,
                    },
                )
            elif path == "/metrics":
                self._send_text(
                    200,
                    self.service.metrics.render_prometheus(),
                    "text/plain; version=0.0.4",
                )
            elif path == "/metrics/history":
                self._get_metrics_history(query)
            elif path == "/status":
                self._send_json(200, self.service.status_doc())
            elif path == "/replication/status":
                self._get_replication_status(query)
            elif path == "/replication/segment":
                self._get_segment(query)
            elif path == "/replication/snapshot":
                self._get_snapshot()
            else:
                self._send_json(404, {"error": f"no such endpoint: {path}"})
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})

    def _get_healthz(self) -> None:
        service = self.service
        seg_count, wal_bytes = service._update_wal_gauges()
        self._send_json(
            200,
            {
                "ok": True,
                "draining": service._draining.is_set(),
                "degraded": service.degraded,
                "role": service.cluster.role,
                "epoch": service.cluster.epoch,
                "primary_url": service.cluster.primary_url,
                "wal_segments": seg_count,
                "wal_bytes": wal_bytes,
                "snapshot_age_s": round(
                    service._clock() - service._last_snapshot_at, 3
                ),
            },
        )

    def _get_metrics_history(self, query: dict) -> None:
        last: Optional[int] = None
        if "last" in query:
            try:
                last = max(0, int(query["last"]))
            except ValueError:
                raise ValueError("?last= must be an integer")
        self._send_json(200, self.service.history.history_doc(last))

    def _get_attacks(self, query: dict) -> None:
        limit = self._limit(query)
        if "ip" in query:
            victim = parse_ipv4(query["ip"])
            events = self.service.store.events_for_ip(victim, limit=limit)
            self._send_json(
                200, {"ip": query["ip"], "count": len(events), "events": events}
            )
        elif "prefix" in query:
            base, length = _parse_prefix(query["prefix"])
            events = self.service.store.events_for_prefix(
                base, length, limit=limit
            )
            self._send_json(
                200,
                {
                    "prefix": query["prefix"],
                    "count": len(events),
                    "events": events,
                },
            )
        else:
            raise ValueError("need ?ip= or ?prefix=")

    def _get_domains(self, query: dict) -> None:
        store = self.service.store
        if "domain" in query:
            status = store.domain_status(query["domain"])
            if status is None:
                self._send_json(
                    404, {"error": f"domain not seen: {query['domain']}"}
                )
            else:
                self._send_json(200, status)
        else:
            self._send_json(
                200,
                {
                    "domains": len(store._dps),
                    "protected": store.protected_domains(),
                },
            )

    # -- replication ----------------------------------------------------------

    def _get_replication_status(self, query: dict) -> None:
        follower = query.get("follower")
        committed: Optional[int] = None
        if "committed" in query:
            try:
                committed = int(query["committed"])
            except ValueError:
                raise ValueError("?committed= must be an integer")
        self._send_json(
            200, self.service.replication_status(follower, committed)
        )

    def _get_segment(self, query: dict) -> None:
        try:
            first = int(query["first"])
            offset = int(query.get("offset", 0))
            limit = int(query.get("limit", 1 << 20))
        except (KeyError, ValueError):
            raise ValueError("need ?first=N&offset=M[&limit=K]")
        limit = max(1, min(limit, 8 << 20))
        chunk = self.service.wal.read_chunk(first, offset, limit)
        if chunk is None:
            # Pruned (or never existed): the follower's next status poll
            # sees the new oldest_seq and bootstraps if it must.
            self._send_json(
                404, {"error": f"no WAL segment starting at seq {first}"}
            )
            return
        self._send_bytes(chunk)

    def _get_snapshot(self) -> None:
        loaded = self.service.snapshots.load_newest_valid()
        if not loaded.found:
            self._send_json(404, {"error": "no valid snapshot yet"})
            return
        self._send_json(200, loaded.payload)

    # -- POST -----------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802
        self._instrumented("POST", self._route_post)

    def _route_post(self) -> None:
        path = urlparse(self.path).path
        query = self._query()
        if path == "/promote":
            self._send_json(200, self.service.promote())
        elif path == "/replication/fence":
            self._post_fence()
        elif path == "/ingest/attacks":
            feed = query.get("feed", ATTACK_FEEDS[0])
            if feed not in ATTACK_FEEDS:
                self._send_json(
                    400,
                    {
                        "error": f"unknown feed {feed!r} "
                        f"(feeds: {', '.join(ATTACK_FEEDS)})"
                    },
                )
                return
            self._ingest(feed, KIND_ATTACK)
        elif path == "/ingest/dps":
            self._ingest(FEED_DPS, KIND_DPS)
        else:
            self._send_json(404, {"error": f"no such endpoint: {path}"})

    def _post_fence(self) -> None:
        body = self._read_json_object()
        if body is None:
            return
        epoch = body.get("epoch")
        if not isinstance(epoch, int) or isinstance(epoch, bool):
            self._send_json(400, {"error": '"epoch" must be an integer'})
            return
        primary_url = body.get("primary_url")
        if primary_url is not None and not isinstance(primary_url, str):
            self._send_json(400, {"error": '"primary_url" must be a string'})
            return
        if self.service.fence(epoch, primary_url):
            self._send_json(
                200,
                {
                    "fenced": True,
                    "role": self.service.cluster.role,
                    "epoch": self.service.cluster.epoch,
                },
            )
        else:
            self._send_json(
                409,
                {
                    "fenced": False,
                    "error": "stale epoch",
                    "epoch": self.service.cluster.epoch,
                },
            )

    def _ingest(self, feed: str, kind: str) -> None:
        records = self._read_records()
        if records is None:
            return
        result = self.service.submit(feed, kind, records, trace=self._trace_id)
        status = result.http_status()
        self._send_json(
            status,
            result.to_dict(),
            retry_after=result.retry_after if status == 503 else None,
        )


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the service for its handlers."""

    daemon_threads = True

    def __init__(self, address, service: LiveIngestService) -> None:
        super().__init__(address, ServeRequestHandler)
        self.service = service
        self.request_seconds = service.metrics.histogram(
            "serve_http_request_seconds",
            "HTTP request wall time by endpoint/method/status",
            ("endpoint", "method", "status"),
        )


def write_endpoint_file(
    data_dir: Path, host: str, port: int, pid: int
) -> Path:
    # Atomic (temp + rename): drill poll loops and cluster peers read
    # this file while it is being (re)written and must never see a torn
    # prefix of the old and new address.
    return write_json_atomic(
        Path(data_dir) / ENDPOINT_FILE,
        {"host": host, "port": port, "pid": pid},
    )


def read_endpoint_file(data_dir: Path) -> dict:
    return json.loads(
        (Path(data_dir) / ENDPOINT_FILE).read_text(encoding="utf-8")
    )


def run_service(
    config: ServeConfig,
    host: str = "127.0.0.1",
    port: int = 0,
    metrics=None,
    tracer=None,
    install_signals: bool = True,
    ready_event: Optional[threading.Event] = None,
) -> int:
    """Boot the service, serve until SIGTERM/SIGINT, drain, exit 0.

    Binding before recovery would let queries race an unrecovered store,
    so the order is: recover + start applier, bind, write the endpoint
    file, serve. On signal the HTTP listener closes first (no new work),
    then the service drains (backlog applied, final snapshot, WAL
    flushed) — the graceful half of the crash-safety story; the
    ungraceful half is the WAL.
    """
    import os

    service = LiveIngestService(config, metrics=metrics, tracer=tracer)
    info = service.start()
    server = ServeHTTPServer((host, port), service)
    bound_host, bound_port = server.server_address[:2]
    write_endpoint_file(service.data_dir, bound_host, bound_port, os.getpid())
    stop = threading.Event()

    def _handle(signum, frame) -> None:
        log.info("signal received; draining", signal=signum)
        stop.set()

    if install_signals:
        signal.signal(signal.SIGTERM, _handle)
        signal.signal(signal.SIGINT, _handle)
    server_thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.1},
        name="repro-serve-http",
        daemon=True,
    )
    server_thread.start()
    log.info(
        "serving",
        host=bound_host,
        port=bound_port,
        recovered=not info.fresh_start,
        replayed=info.replayed,
    )
    if ready_event is not None:
        ready_event.set()
    try:
        while not stop.wait(0.2):
            pass
    finally:
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=2.0)
        service.drain()
        try:
            # Final flight-recorder window + persisted history, so even a
            # short-lived node leaves a non-empty JSONL behind.
            service.history.sample()
            (service.data_dir / HISTORY_FILE).write_text(
                service.history.to_jsonl(), encoding="utf-8"
            )
        except OSError:
            pass
    return 0


__all__ = [
    "ENDPOINT_FILE",
    "ServeHTTPServer",
    "ServeRequestHandler",
    "read_endpoint_file",
    "run_service",
    "write_endpoint_file",
]
