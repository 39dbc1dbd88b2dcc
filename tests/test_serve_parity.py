"""The simulation transport answers every request as the HTTP server does.

Each row of ``REQUESTS`` goes once through a real ``ServeHTTPServer``
(a socket, ``http.client``) and once through ``SimTransport``, each
against its own service built to the same state under the same fixed
clock. Status, content type, body and every ``X-Repro-*``, ``Retry-After``
and ``Connection`` header must agree, so the deterministic simulation
checks the request path that ships rather than a copy of it. The table
covers every endpoint in :mod:`repro.serve.http`, valid and malformed.
"""

import http.client
import json
import re
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import http as serve_http
from repro.serve.http import ServeHTTPServer
from repro.serve.service import LiveIngestService, ServeConfig
from repro.serve.wal import KIND_ATTACK, KIND_DPS
from repro.simtest import SimTransport

TRACE = "parity-000001"
#: Headers compared besides every ``X-Repro-*`` one.
COMPARED = ("content-type", "retry-after", "connection")


def attack(i):
    return {
        "source": "telescope",
        "target": (10 << 24) + i,
        "start_ts": float(i),
        "end_ts": float(i) + 30.0,
        "intensity": 50.0,
    }


def records(body):
    return json.dumps(body).encode("utf-8")


ATTACKS = records([attack(i) for i in range(100, 103)])
DPS = records({"records": [{"domain": "y.com", "provider": "p", "day": 1}]})

#: (id, method, target, body or None, extra headers, setup).
#: ``setup`` names a state change made on both services before the
#: request: ``fenced`` fences the node, ``full`` fills its queue.
REQUESTS = [
    ("healthz", "GET", "/healthz", None, {}, None),
    ("summary", "GET", "/summary", None, {}, None),
    ("attacks-ip", "GET", "/attacks?ip=10.0.0.3", None, {}, None),
    ("attacks-prefix", "GET", "/attacks?prefix=10.0.0.0/24&limit=2",
     None, {}, None),
    ("attacks-slash8", "GET", "/attacks?prefix=10.0.0.0/8", None, {}, None),
    ("attacks-bad-ip", "GET", "/attacks?ip=10.0.0", None, {}, None),
    ("attacks-no-query", "GET", "/attacks", None, {}, None),
    ("victims", "GET", "/victims?prefix=10.0.0.0/16", None, {}, None),
    ("victims-no-prefix", "GET", "/victims", None, {}, None),
    ("domains", "GET", "/domains", None, {}, None),
    ("domain", "GET", "/domains?domain=x.com", None, {}, None),
    ("domain-unseen", "GET", "/domains?domain=never.example", None, {}, None),
    ("stats", "GET", "/stats", None, {}, None),
    ("digest", "GET", "/digest", None, {}, None),
    ("metrics", "GET", "/metrics", None, {}, None),
    ("history", "GET", "/metrics/history", None, {}, None),
    ("history-last", "GET", "/metrics/history?last=1", None, {}, None),
    ("history-bad-last", "GET", "/metrics/history?last=x", None, {}, None),
    ("status", "GET", "/status", None, {}, None),
    ("replication-status", "GET", "/replication/status", None, {}, None),
    ("replication-status-cursor", "GET",
     "/replication/status?follower=f1&committed=2", None, {}, None),
    ("replication-status-bad-cursor", "GET",
     "/replication/status?committed=x", None, {}, None),
    ("segment", "GET", "/replication/segment?first=1&offset=0&limit=64",
     None, {}, None),
    ("segment-missing", "GET", "/replication/segment?first=999", None, {},
     None),
    ("segment-no-first", "GET", "/replication/segment", None, {}, None),
    ("segment-bad-offset", "GET", "/replication/segment?first=1&offset=x",
     None, {}, None),
    ("snapshot", "GET", "/replication/snapshot", None, {}, None),
    ("unknown-get", "GET", "/no/such", None, {}, None),
    ("post-only-path-by-get", "GET", "/promote", None, {}, None),
    ("put-healthz", "PUT", "/healthz", None, {}, None),
    ("delete-ingest", "DELETE", "/ingest/attacks", ATTACKS, {}, None),
    ("ingest", "POST", "/ingest/attacks?feed=telescope", ATTACKS, {}, None),
    ("ingest-default-feed", "POST", "/ingest/attacks", ATTACKS, {}, None),
    ("ingest-honeypot", "POST", "/ingest/attacks?feed=honeypot",
     records([dict(attack(7), source="honeypot")]), {}, None),
    ("ingest-dps-feed-as-attack", "POST", "/ingest/attacks?feed=dps",
     ATTACKS, {}, None),
    ("ingest-unknown-feed", "POST", "/ingest/attacks?feed=nope", ATTACKS,
     {}, None),
    ("ingest-bad-json", "POST", "/ingest/attacks", b"not json", {}, None),
    ("ingest-not-utf8", "POST", "/ingest/attacks", b"\xff\xfe", {}, None),
    ("ingest-object-without-records", "POST", "/ingest/attacks",
     records({"events": []}), {}, None),
    ("ingest-scalar", "POST", "/ingest/attacks", records(7), {}, None),
    ("ingest-no-body", "POST", "/ingest/attacks", None, {}, None),
    ("ingest-rejected-only", "POST", "/ingest/attacks",
     records([{"source": "telescope"}]), {}, None),
    ("ingest-to-fenced", "POST", "/ingest/attacks", ATTACKS, {}, "fenced"),
    ("ingest-shed", "POST", "/ingest/attacks", ATTACKS, {}, "full"),
    ("ingest-dps", "POST", "/ingest/dps", DPS, {}, None),
    ("ingest-dps-bad-json", "POST", "/ingest/dps", b"{", {}, None),
    ("ingest-dps-no-body", "POST", "/ingest/dps", None, {}, None),
    ("promote-primary", "POST", "/promote", None, {}, None),
    ("promote-with-body", "POST", "/promote", b"hello", {}, None),
    ("promote-fenced", "POST", "/promote", None, {}, "fenced"),
    ("fence", "POST", "/replication/fence",
     records({"epoch": 5, "primary_url": "http://other:1"}), {}, None),
    ("fence-stale", "POST", "/replication/fence", records({"epoch": 1}),
     {}, None),
    ("fence-bad-json", "POST", "/replication/fence", b"{epoch", {}, None),
    ("fence-array", "POST", "/replication/fence", records([5]), {}, None),
    ("fence-bool-epoch", "POST", "/replication/fence",
     records({"epoch": True}), {}, None),
    ("fence-url-not-string", "POST", "/replication/fence",
     records({"epoch": 5, "primary_url": 9}), {}, None),
    ("fence-no-body", "POST", "/replication/fence", None, {}, None),
    ("unknown-post", "POST", "/no/such", b"{}", {}, None),
    ("length-not-a-number", "POST", "/ingest/attacks", None,
     {"Content-Length": "abc"}, None),
    ("length-negative", "POST", "/ingest/attacks", None,
     {"Content-Length": "-1"}, None),
    ("length-oversized", "POST", "/ingest/attacks", None,
     {"Content-Length": str(64 << 20)}, None),
    ("chunked", "POST", "/ingest/dps", None,
     {"Transfer-Encoding": "chunked"}, None),
]


class FixedClock:
    def __call__(self):
        return 1000.0


def build(data_dir, setup):
    """A primary with attacks, a DPS record and a snapshot applied."""
    service = LiveIngestService(
        ServeConfig(
            data_dir=data_dir,
            manual_drive=True,
            snapshot_every_events=4,
            queue_size=64,
        ),
        metrics=MetricsRegistry(),
        clock=FixedClock(),
    )
    service.start()
    service.submit(
        "telescope", KIND_ATTACK, [attack(i) for i in range(6)], trace="seed"
    )
    service.submit(
        "dps", KIND_DPS, [{"domain": "x.com", "provider": "p", "day": 0}],
        trace="seed",
    )
    service.tick_apply()
    if setup == "fenced":
        assert service.fence(2, "http://successor:1")
    elif setup == "full":
        service.submit(
            "telescope", KIND_ATTACK, [attack(i) for i in range(50, 110)],
            trace="seed",
        )
    return service


def over_http(port, method, target, body, headers):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.putrequest(
            method, target, skip_host=True, skip_accept_encoding=True
        )
        for name, value in headers.items():
            connection.putheader(name, value)
        connection.endheaders(body)
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def over_sim(service, method, target, body, headers):
    transport = SimTransport(seed=1)
    transport.register("node", lambda: service)
    response = transport.bind("client").exchange(
        method, transport.url_of("node") + target, body=body, headers=headers
    )
    return response.status, response.headers, response.data


def answer(status, headers, data):
    """The parts of a response the two paths must agree on."""
    lowered = {name.lower(): value for name, value in headers.items()}
    kept = {
        name: value for name, value in lowered.items()
        if name in COMPARED or name.startswith("x-repro-")
    }
    if lowered.get("content-type") == "application/json":
        data = json.loads(data)
    elif lowered.get("content-type", "").startswith("text/plain"):
        # The exposition's series, without values: fsync timings come
        # from the real clock, not the injected one.
        data = [line.rpartition(b" ")[0] for line in data.splitlines()]
    return {"status": status, "headers": kept, "body": data}


@pytest.mark.parametrize(
    "method,target,body,extra,setup",
    [row[1:] for row in REQUESTS],
    ids=[row[0] for row in REQUESTS],
)
def test_http_and_simulation_answer_alike(
    tmp_path, method, target, body, extra, setup
):
    headers = {"X-Repro-Trace-Id": TRACE}
    if body is not None:
        headers["Content-Length"] = str(len(body))
    headers.update(extra)
    served = build(tmp_path / "http", setup)
    simulated = build(tmp_path / "sim", setup)
    server = ServeHTTPServer(("127.0.0.1", 0), served)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01},
        daemon=True,
    )
    thread.start()
    try:
        over_socket = answer(*over_http(
            server.server_address[1], method, target, body, headers
        ))
    finally:
        server.shutdown()
        server.server_close()
        served.stop()
    try:
        in_sim = answer(*over_sim(simulated, method, target, body, headers))
    finally:
        simulated.stop()
    assert in_sim == over_socket
    assert over_socket["headers"]["x-repro-trace-id"] == TRACE
    # Both paths logged the request under the fixed trace ID.
    for service in (served, simulated):
        entry = service.requests.recent()[-1]
        assert entry["trace_id"] == TRACE
        assert entry["status"] == over_socket["status"]


def test_table_covers_every_route():
    documented = set(
        re.findall(r"^ +(GET|POST) +(/[\w/]+)", serve_http.__doc__, re.M)
    )
    assert documented == set(serve_http.ROUTES)
    covered = {
        (method, target.split("?")[0])
        for _id, method, target, _body, _extra, _setup in REQUESTS
    }
    assert set(serve_http.ROUTES) <= covered
