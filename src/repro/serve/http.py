"""The query and ingest API over :class:`LiveIngestService`.

One route table, one socket-free request path, thin HTTP framing.

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

:func:`handle` is the whole request path without a socket: method,
request target, headers and body bytes in, a
:class:`~repro.serve.transport.TransportResponse` out. ``ROUTES`` is
the one route table. The HTTP handler and the simulation transport
(:mod:`repro.simtest.transport`) both call :func:`handle`, so the
simulated cluster answers exactly as the deployed one does.

Every request carries a trace ID: an incoming ``X-Repro-Trace-Id``
header is honored (so a client's ID follows its write into the WAL and
across replication), otherwise the node mints one. The ID is echoed in
the response header, recorded in the service's bounded request log
(with a slow-request capture ring), timed into the
``serve_http_request_seconds`` histogram, and — when tracing is on —
attached to a ``serve.http`` span.

:class:`ServeRequestHandler` only frames. It reads the declared body of
every request before routing, so no unread body is ever parsed as the
next request on a keep-alive connection. A request without
``Content-Length`` has an empty body (RFC 9112 §6.3). A length that is
not an integer from 0 to ``MAX_BODY_BYTES``, or a ``Transfer-Encoding``,
cannot be framed: the answer is 400 with ``Connection: close``.

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
from typing import Callable, Dict, NamedTuple, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

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
from repro.serve.transport import TransportResponse
from repro.serve.wal import KIND_ATTACK, KIND_DPS

log = get_logger("serve.http")

#: File the running service writes its bound address into (discovery for
#: drills and tests that start the service on an ephemeral port).
ENDPOINT_FILE = "endpoint.json"

MAX_BODY_BYTES = 8 * 1024 * 1024

TRACE_HEADER = "X-Repro-Trace-Id"

FRAMING_ERROR = (
    f"Content-Length must be an integer from 0 to {MAX_BODY_BYTES} "
    "and Transfer-Encoding is not supported"
)


class Request(NamedTuple):
    """What a route sees of one request."""

    service: LiveIngestService
    query: Dict[str, str]
    body: bytes
    trace_id: str


def _content_length(headers) -> Optional[int]:
    """The declared body length: 0 when absent, None when unframeable."""
    if headers is None:
        return 0
    if headers.get("Transfer-Encoding") is not None:
        return None
    text = headers.get("Content-Length")
    if text is None:
        return 0
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        return None
    length = int(text)
    return length if length <= MAX_BODY_BYTES else None


def _json(status: int, body) -> TransportResponse:
    return TransportResponse(
        status,
        json.dumps(body, sort_keys=True).encode("utf-8"),
        {"Content-Type": "application/json"},
    )


def _json_body(request: Request, missing: str):
    if not request.body:
        raise ValueError(missing)
    try:
        return json.loads(request.body.decode("utf-8"))
    except ValueError:
        raise ValueError("body is not valid JSON") from None


def _parse_prefix(text: str) -> Tuple[int, int]:
    """``A.B.C.0/24`` -> (base address, length); /24 and /16 only."""
    if "/" not in text:
        raise ValueError("prefix must look like A.B.C.0/24")
    base_text, _, length_text = text.partition("/")
    length = int(length_text)
    if length not in (24, 16):
        raise ValueError("prefix queries support /24 and /16 only")
    return parse_ipv4(base_text), length


def _int_param(query: dict, name: str) -> Optional[int]:
    if name not in query:
        return None
    try:
        return int(query[name])
    except ValueError:
        raise ValueError(f"?{name}= must be an integer") from None


def _limit(query: dict, default: int = 50) -> int:
    try:
        return max(1, min(1000, int(query.get("limit", default))))
    except ValueError:
        return default


# -- GET ----------------------------------------------------------------------


def _get_healthz(request: Request) -> TransportResponse:
    service = request.service
    seg_count, wal_bytes = service._update_wal_gauges()
    return _json(
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


def _get_summary(request: Request) -> TransportResponse:
    return _json(200, request.service.store.summary())


def _get_attacks(request: Request) -> TransportResponse:
    query, store = request.query, request.service.store
    limit = _limit(query)
    if "ip" in query:
        events = store.events_for_ip(parse_ipv4(query["ip"]), limit=limit)
        return _json(
            200, {"ip": query["ip"], "count": len(events), "events": events}
        )
    if "prefix" in query:
        base, length = _parse_prefix(query["prefix"])
        events = store.events_for_prefix(base, length, limit=limit)
        return _json(
            200,
            {
                "prefix": query["prefix"],
                "count": len(events),
                "events": events,
            },
        )
    raise ValueError("need ?ip= or ?prefix=")


def _get_victims(request: Request) -> TransportResponse:
    query = request.query
    base, length = _parse_prefix(query.get("prefix", ""))
    victims = request.service.store.victims_in_prefix(base, length)
    return _json(
        200,
        {"prefix": query["prefix"], "count": len(victims), "victims": victims},
    )


def _get_domains(request: Request) -> TransportResponse:
    query, store = request.query, request.service.store
    if "domain" not in query:
        return _json(
            200,
            {
                "domains": len(store._dps),
                "protected": store.protected_domains(),
            },
        )
    status = store.domain_status(query["domain"])
    if status is None:
        return _json(404, {"error": f"domain not seen: {query['domain']}"})
    return _json(200, status)


def _get_stats(request: Request) -> TransportResponse:
    return _json(200, request.service.stats())


def _get_digest(request: Request) -> TransportResponse:
    service = request.service
    return _json(
        200,
        {
            "digest": service.store.state_digest(),
            "applied_seq": service.applied_seq,
        },
    )


def _get_metrics(request: Request) -> TransportResponse:
    return TransportResponse(
        200,
        request.service.metrics.render_prometheus().encode("utf-8"),
        {"Content-Type": "text/plain; version=0.0.4"},
    )


def _get_metrics_history(request: Request) -> TransportResponse:
    last = _int_param(request.query, "last")
    return _json(
        200,
        request.service.history.history_doc(
            None if last is None else max(0, last)
        ),
    )


def _get_status(request: Request) -> TransportResponse:
    return _json(200, request.service.status_doc())


def _get_replication_status(request: Request) -> TransportResponse:
    committed = _int_param(request.query, "committed")
    return _json(
        200,
        request.service.replication_status(
            request.query.get("follower"), committed
        ),
    )


def _get_segment(request: Request) -> TransportResponse:
    query, service = request.query, request.service
    try:
        first = int(query["first"])
        offset = int(query.get("offset", 0))
        limit = int(query.get("limit", 1 << 20))
    except (KeyError, ValueError):
        raise ValueError("need ?first=N&offset=M[&limit=K]") from None
    chunk = service.wal.read_chunk(first, offset, max(1, min(limit, 8 << 20)))
    if chunk is None:
        # Pruned (or never existed): the follower's next status poll
        # sees the new oldest_seq and bootstraps if it must.
        return _json(404, {"error": f"no WAL segment starting at seq {first}"})
    return TransportResponse(
        200,
        chunk,
        {
            "Content-Type": "application/octet-stream",
            "X-Repro-Epoch": str(service.cluster.epoch),
            "X-Repro-Role": service.cluster.role,
        },
    )


def _get_snapshot(request: Request) -> TransportResponse:
    loaded = request.service.snapshots.load_newest_valid()
    if not loaded.found:
        return _json(404, {"error": "no valid snapshot yet"})
    return _json(200, loaded.payload)


# -- POST ---------------------------------------------------------------------


def _post_promote(request: Request) -> TransportResponse:
    return _json(200, request.service.promote())


def _post_fence(request: Request) -> TransportResponse:
    body = _json_body(request, "JSON body required")
    if not isinstance(body, dict):
        raise ValueError("expected a JSON object")
    epoch = body.get("epoch")
    if not isinstance(epoch, int) or isinstance(epoch, bool):
        raise ValueError('"epoch" must be an integer')
    primary_url = body.get("primary_url")
    if primary_url is not None and not isinstance(primary_url, str):
        raise ValueError('"primary_url" must be a string')
    service = request.service
    if service.fence(epoch, primary_url):
        return _json(
            200,
            {
                "fenced": True,
                "role": service.cluster.role,
                "epoch": service.cluster.epoch,
            },
        )
    return _json(
        409,
        {
            "fenced": False,
            "error": "stale epoch",
            "epoch": service.cluster.epoch,
        },
    )


def _ingest(request: Request, feed: str, kind: str) -> TransportResponse:
    data = _json_body(request, "body required (JSON records)")
    if isinstance(data, dict) and isinstance(data.get("records"), list):
        records = data["records"]
    elif isinstance(data, list):
        records = data
    else:
        raise ValueError('expected a JSON array or {"records": [...]}')
    result = request.service.submit(
        feed, kind, records, trace=request.trace_id
    )
    response = _json(result.http_status(), result.to_dict())
    if response.status == 503:
        response.headers["Retry-After"] = f"{result.retry_after:g}"
    return response


def _post_ingest_attacks(request: Request) -> TransportResponse:
    feed = request.query.get("feed", ATTACK_FEEDS[0])
    if feed not in ATTACK_FEEDS:
        raise ValueError(
            f"unknown feed {feed!r} (feeds: {', '.join(ATTACK_FEEDS)})"
        )
    return _ingest(request, feed, KIND_ATTACK)


def _post_ingest_dps(request: Request) -> TransportResponse:
    return _ingest(request, FEED_DPS, KIND_DPS)


#: The one route table: (method, path) -> route. A route answers a
#: response or raises ``ValueError``, which becomes a 400 naming it.
ROUTES: Dict[Tuple[str, str], Callable[[Request], TransportResponse]] = {
    ("GET", "/healthz"): _get_healthz,
    ("GET", "/summary"): _get_summary,
    ("GET", "/attacks"): _get_attacks,
    ("GET", "/victims"): _get_victims,
    ("GET", "/domains"): _get_domains,
    ("GET", "/stats"): _get_stats,
    ("GET", "/digest"): _get_digest,
    ("GET", "/metrics"): _get_metrics,
    ("GET", "/metrics/history"): _get_metrics_history,
    ("GET", "/status"): _get_status,
    ("GET", "/replication/status"): _get_replication_status,
    ("GET", "/replication/segment"): _get_segment,
    ("GET", "/replication/snapshot"): _get_snapshot,
    ("POST", "/promote"): _post_promote,
    ("POST", "/replication/fence"): _post_fence,
    ("POST", "/ingest/attacks"): _post_ingest_attacks,
    ("POST", "/ingest/dps"): _post_ingest_dps,
}


def _route(
    service: LiveIngestService,
    method: str,
    endpoint: str,
    query_text: str,
    headers,
    body: bytes,
    trace_id: str,
) -> TransportResponse:
    if _content_length(headers) is None or len(body) > MAX_BODY_BYTES:
        response = _json(400, {"error": FRAMING_ERROR})
        response.headers["Connection"] = "close"
        return response
    route = ROUTES.get((method, endpoint))
    if route is None:
        return _json(404, {"error": f"no such endpoint: {endpoint}"})
    query = {key: values[-1] for key, values in parse_qs(query_text).items()}
    try:
        return route(Request(service, query, body, trace_id))
    except ValueError as exc:
        return _json(400, {"error": str(exc)})


def handle(
    service: LiveIngestService,
    method: str,
    target: str,
    headers,
    body: bytes,
) -> TransportResponse:
    """Answer one request: trace, span, request log, latency, route.

    *target* is the request target (path plus query string); *headers*
    is any mapping with ``get`` (``None`` for none); *body* is the whole
    request body.
    """
    request_seconds = service.metrics.histogram(
        "serve_http_request_seconds",
        "HTTP request wall time by endpoint/method/status",
        ("endpoint", "method", "status"),
    )
    parsed = urlsplit(target)
    endpoint = parsed.path
    incoming = headers.get(TRACE_HEADER) if headers is not None else None
    trace_id = incoming if incoming else service.mint_trace_id()
    started = service._clock()
    with service.tracer.span(
        "serve.http",
        trace_id=trace_id,
        endpoint=endpoint,
        method=method,
        node=service.node_name,
        role=service.cluster.role,
        epoch=service.cluster.epoch,
    ) as span:
        response = _route(
            service, method, endpoint, parsed.query, headers, body, trace_id
        )
        span.set_attr(status=response.status)
    duration_s = service._clock() - started
    service.requests.record(
        trace_id,
        endpoint,
        method,
        response.status,
        duration_s,
        node=service.node_name,
        role=service.cluster.role,
    )
    request_seconds.observe(
        duration_s,
        endpoint=endpoint,
        method=method,
        status=str(response.status),
    )
    response.headers[TRACE_HEADER] = trace_id
    return response


class ServeRequestHandler(BaseHTTPRequestHandler):
    """Framing only: read the declared body, :func:`handle`, write."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # Buffered: handle_one_request flushes each response in one write
    # after the handler returns, so the request-log entry handle()
    # records exists before the client sees the answer, and headers and
    # body never go out as two writes, which on a keep-alive connection
    # meet Nagle plus the client's delayed ACK (~40 ms per request).
    wbufsize = -1

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        log.debug("http", request=format % args)

    def _serve(self) -> None:
        length = _content_length(self.headers)
        body = self.rfile.read(length) if length else b""
        response = handle(
            self.server.service,  # type: ignore[attr-defined]
            self.command,
            self.path,
            self.headers,
            body,
        )
        self.send_response(response.status)
        for name, value in response.headers.items():
            # send_header("Connection", "close") also ends keep-alive.
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(response.data)))
        self.end_headers()
        if self.command != "HEAD":  # a HEAD reply is headers only
            self.wfile.write(response.data)

    def __getattr__(self, name: str):
        # handle_one_request dispatches to do_<METHOD>: every method is
        # answered by handle(), so one the route table lacks gets its
        # JSON 404, trace ID and request-log entry like any other.
        if name.startswith("do_"):
            return self._serve
        raise AttributeError(name)


class ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the service for its handlers."""

    daemon_threads = True

    def __init__(self, address, service: LiveIngestService) -> None:
        super().__init__(address, ServeRequestHandler)
        self.service = service


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
    "MAX_BODY_BYTES",
    "ROUTES",
    "ServeHTTPServer",
    "ServeRequestHandler",
    "handle",
    "read_endpoint_file",
    "run_service",
    "write_endpoint_file",
]
