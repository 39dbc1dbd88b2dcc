"""HTTP API tests for the live service, plus the real kill -9 drill.

The in-process tests bind a ``ServeHTTPServer`` on an ephemeral port and
exercise every endpoint, the 503 + Retry-After shed path and the error
paths. The subprocess test runs the same drill CI's serve-smoke job
runs: boot ``python -m repro serve``, ingest, SIGKILL, restart, assert
the recovered digest matches.
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.chaos import run_kill9_recover
from repro.serve.http import (
    MAX_BODY_BYTES,
    ServeHTTPServer,
    read_endpoint_file,
)
from repro.serve.service import LiveIngestService, ServeConfig
from repro.serve.wal import KIND_ATTACK


def attack(i):
    return {
        "source": "telescope",
        "target": (10 << 24) + i,
        "start_ts": float(i),
        "end_ts": float(i) + 30.0,
        "intensity": 50.0,
    }


@pytest.fixture()
def served(tmp_path):
    service = LiveIngestService(
        ServeConfig(data_dir=tmp_path / "serve", snapshot_every_events=100),
        metrics=MetricsRegistry(),
    )
    service.start()
    server = ServeHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def get(port, path):
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10
        ) as response:
            return response.status, json.loads(response.read()), response
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error


def post(port, path, body, raw=False):
    data = body if raw else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read()), response
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error


def raw_exchange(port, data):
    """Send raw bytes on one connection and read until the server closes.

    Returns ``(status, headers, body)`` for every response, in order;
    header names are lower-cased.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    return raw_parse(received)


def raw_parse(received):
    """Split received bytes into ``(status, headers, body)`` responses."""
    responses = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        responses.append(
            (int(status_line.split()[1]), headers, rest[:length])
        )
        received = rest[length:]
    return responses


class TestIngestAndQuery:
    def test_full_roundtrip(self, served):
        service, port = served
        status, body, _r = post(
            port, "/ingest/attacks?feed=telescope",
            [attack(i) for i in range(6)],
        )
        assert status == 202 and body["accepted"] == 6
        status, body, _r = post(
            port, "/ingest/dps",
            {"records": [{"domain": "x.com", "provider": "p", "day": 0}]},
        )
        assert status == 202 and body["accepted"] == 1
        assert service.quiesce(timeout=10)

        status, body, _r = get(port, "/healthz")
        assert status == 200 and body["ok"] is True

        status, body, _r = get(port, "/summary")
        assert body["applied_events"] == 6 and body["dps_domains"] == 1

        status, body, _r = get(port, "/attacks?ip=10.0.0.3")
        assert status == 200 and body["count"] == 1
        assert body["events"][0]["target"] == (10 << 24) + 3

        status, body, _r = get(port, "/attacks?prefix=10.0.0.0/24&limit=4")
        assert status == 200 and body["count"] == 4

        status, body, _r = get(port, "/victims?prefix=10.0.0.0/16")
        assert body["count"] == 6

        status, body, _r = get(port, "/domains?domain=x.com")
        assert status == 200 and body["provider"] == "p"
        status, body, _r = get(port, "/domains")
        assert body == {"domains": 1, "protected": 1}

        status, body, _r = get(port, "/stats")
        assert body["accepted"] == {"dps": 1, "telescope": 6}

        status, body, _r = get(port, "/digest")
        assert body["digest"] == service.store.state_digest()

    def test_metrics_exposition(self, served):
        _service, port = served
        post(port, "/ingest/attacks", [attack(1)])
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ) as response:
            text = response.read().decode()
        assert "# TYPE serve_queue_depth gauge" in text
        assert "serve_wal_appends_total" in text

    def test_rejected_only_batch_is_400(self, served):
        _service, port = served
        status, body, _r = post(
            port, "/ingest/attacks", [{"source": "telescope"}]
        )
        assert status == 400
        assert body["reasons"] == {"missing-field:target": 1}

    def test_bad_json_and_unknown_paths(self, served):
        _service, port = served
        status, body, _r = post(port, "/ingest/attacks", b"not json", raw=True)
        assert status == 400
        status, body, _r = post(port, "/ingest/attacks?feed=nope", [attack(1)])
        assert status == 400 and "unknown feed" in body["error"]
        status, _body, _r = get(port, "/no/such")
        assert status == 404
        status, body, _r = get(port, "/attacks")
        assert status == 400 and "ip=" in body["error"]
        status, _body, _r = get(port, "/attacks?prefix=10.0.0.0/8")
        assert status == 400
        status, _body, _r = get(port, "/domains?domain=never-seen.example")
        assert status == 404

    def test_keep_alive_requests_do_not_stall(self, served):
        # A response sent as two writes (headers, then body) meets Nagle
        # and the client's delayed ACK on a reused connection: ~44 ms per
        # request. One write per response leaves only the real work.
        _service, port = served
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            started = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 20 * 0.044 / 4


class TestShedding:
    def test_503_with_retry_after(self, tmp_path):
        service = LiveIngestService(
            ServeConfig(
                data_dir=tmp_path / "serve",
                queue_size=16,
                high_watermark=8,
                low_watermark=2,
                retry_after=2.5,
                apply_delay=0.05,
            ),
            metrics=MetricsRegistry(),
        )
        service.start()
        server = ServeHTTPServer(("127.0.0.1", 0), service)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            saw_503 = None
            for base in range(0, 64, 8):
                status, body, response = post(
                    port, "/ingest/attacks",
                    [attack(base + j) for j in range(8)],
                )
                if status == 503:
                    saw_503 = (body, response)
                    break
            assert saw_503 is not None, "overload never answered 503"
            body, response = saw_503
            assert response.headers["Retry-After"] == "2.5"
            assert body["retry_after"] == 2.5
        finally:
            server.shutdown()
            server.server_close()
            service.stop()


class TestKill9Subprocess:
    def test_kill9_then_recover_state_equivalent(self, tmp_path):
        result = run_kill9_recover(tmp_path, events=50, recovery_budget=30.0)
        assert result.passed, result.detail
        endpoint = read_endpoint_file(tmp_path / "kill9")
        assert endpoint["host"] == "127.0.0.1"


class TestFlightRecorderEndpoints:
    def test_status_document(self, served):
        service, port = served
        post(port, "/ingest/attacks", [attack(i) for i in range(4)])
        assert service.quiesce(timeout=10)
        status, body, _r = get(port, "/status")
        assert status == 200
        assert body["node"] == service.node_name
        assert body["role"] == "primary"
        assert body["seq"] >= 1 and body["applied_seq"] == body["seq"]
        assert body["wal"]["segments"] >= 1 and body["wal"]["bytes"] > 0
        assert body["degraded"] is False and body["draining"] is False
        # The /status request itself is already in the request log.
        assert body["requests"]["total"] >= 1
        recent = body["requests"]["recent"]
        assert any(r["endpoint"] == "/ingest/attacks" for r in recent)
        assert all("trace_id" in r and "duration_s" in r for r in recent)

    def test_metrics_history_endpoint(self, served):
        service, port = served
        post(port, "/ingest/attacks", [attack(1)])
        assert service.quiesce(timeout=10)
        # The watch loop samples on a wall-clock interval; drive the
        # recorder directly so the test stays fast and deterministic.
        service.history.sample()
        service.history.sample()
        status, body, _r = get(port, "/metrics/history")
        assert status == 200
        assert body["window_count"] >= 2
        assert body["windows"][-1]["gauges"]["serve_queue_depth"] == 0.0
        status, body, _r = get(port, "/metrics/history?last=1")
        assert status == 200 and body["window_count"] == 1
        status, _body, _r = get(port, "/metrics/history?last=bogus")
        assert status == 400

    def test_healthz_reports_wal_and_snapshot_freshness(self, served):
        service, port = served
        post(port, "/ingest/attacks", [attack(1)])
        assert service.quiesce(timeout=10)
        status, body, _r = get(port, "/healthz")
        assert status == 200
        assert body["wal_segments"] >= 1
        assert body["wal_bytes"] > 0
        assert body["snapshot_age_s"] >= 0
        assert body["degraded"] is False

    def test_incoming_trace_id_is_honored_and_echoed(self, served):
        service, port = served
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/ingest/attacks",
            data=json.dumps([attack(1)]).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "X-Repro-Trace-Id": "client-000042",
            },
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 202
            assert response.headers["X-Repro-Trace-Id"] == "client-000042"
        assert service.quiesce(timeout=10)
        entries = [
            r for r in service.requests.recent()
            if r["endpoint"] == "/ingest/attacks"
        ]
        assert entries and entries[-1]["trace_id"] == "client-000042"
        # The WAL record carries the trace too, so a follower replaying
        # it can attribute the write back to the originating request.
        records, _report = service.wal.replay()
        assert records and records[-1].trace == "client-000042"

    def test_server_mints_trace_ids_when_absent(self, served):
        service, port = served
        _status, _body, response = get(port, "/healthz")
        minted = response.headers["X-Repro-Trace-Id"]
        assert minted.startswith(f"{service.node_name}-")
        _status, _body, second = get(port, "/healthz")
        assert second.headers["X-Repro-Trace-Id"] != minted

    def test_request_latency_histogram_is_labeled(self, served):
        _service, port = served
        get(port, "/healthz")
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ) as response:
            text = response.read().decode()
        assert "# TYPE serve_http_request_seconds histogram" in text
        assert 'endpoint="/healthz"' in text
        assert 'method="GET"' in text and 'status="200"' in text


class TestFraming:
    """Raw-socket requests whose body framing is missing or broken."""

    @pytest.mark.parametrize(
        "length", ["abc", "-1", str(MAX_BODY_BYTES + 1), "1_0"]
    )
    def test_bad_content_length_answers_400_and_closes(self, served, length):
        service, port = served
        responses = raw_exchange(
            port,
            b"POST /ingest/attacks HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + length.encode() + b"\r\n\r\n[]",
        )
        assert len(responses) == 1
        status, headers, body = responses[0]
        assert status == 400
        assert headers["connection"] == "close"
        assert "Content-Length" in json.loads(body)["error"]
        entry = service.requests.recent()[-1]
        assert entry["endpoint"] == "/ingest/attacks"
        assert entry["status"] == 400
        # The server itself is fine: a fresh connection is served.
        status, _body, _r = get(port, "/healthz")
        assert status == 200

    def test_chunked_body_answers_400_and_closes(self, served):
        _service, port = served
        responses = raw_exchange(
            port,
            b"POST /promote HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        )
        assert [(status, headers["connection"])
                for status, headers, _body in responses] == [(400, "close")]

    @pytest.mark.parametrize("path", ["/promote", "/no/such"])
    def test_unread_body_is_not_parsed_as_the_next_request(
        self, served, path
    ):
        _service, port = served
        responses = raw_exchange(
            port,
            b"POST " + path.encode() + b" HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 5\r\n\r\nhello"
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
            b"Connection: close\r\n\r\n",
        )
        assert len(responses) == 2
        assert responses[0][0] == (200 if path == "/promote" else 404)
        status, _headers, body = responses[1]
        assert status == 200 and json.loads(body)["ok"] is True

    @pytest.mark.parametrize(
        "path,error",
        [
            ("/ingest/attacks", "body required (JSON records)"),
            ("/ingest/dps", "body required (JSON records)"),
            ("/replication/fence", "JSON body required"),
        ],
    )
    def test_post_without_content_length_has_an_empty_body(
        self, served, path, error
    ):
        _service, port = served
        responses = raw_exchange(
            port,
            b"POST " + path.encode() + b" HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
            b"Connection: close\r\n\r\n",
        )
        assert [status for status, _h, _b in responses] == [400, 200]
        assert json.loads(responses[0][2]) == {"error": error}
        assert "connection" not in responses[0][1]

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH"])
    def test_unrouted_method_answers_json_404(self, served, method):
        service, port = served
        responses = raw_exchange(
            port,
            method.encode() + b" /healthz HTTP/1.1\r\nHost: x\r\n"
            b"X-Repro-Trace-Id: t-method\r\nConnection: close\r\n\r\n",
        )
        assert len(responses) == 1
        status, headers, body = responses[0]
        assert status == 404
        assert headers["content-type"] == "application/json"
        assert headers["x-repro-trace-id"] == "t-method"
        assert json.loads(body) == {"error": "no such endpoint: /healthz"}
        entry = service.requests.recent()[-1]
        assert (entry["trace_id"], entry["method"], entry["status"]) == (
            "t-method", method, 404,
        )

    def test_head_reply_is_headers_only(self, served):
        _service, port = served
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(
                b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n"
            )
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        head, _, rest = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 404 ")
        assert b"X-Repro-Trace-Id: " in head
        # The next bytes are the GET's answer, not the HEAD's body.
        ((status, _headers, body),) = raw_parse(rest)
        assert status == 200 and json.loads(body)["ok"] is True
