"""Stdlib HTTP client for the serve API: backoff, failover, redirects.

Every caller that talks to the live service — the chaos drills, the
benchmarks, operators' scripts — needs the same three behaviors, so they
live here once instead of as scattered ``urllib`` calls:

* **503 + Retry-After**: an overloaded (or sync-replication-starved)
  node answers 503 with the seconds to wait. The client honors the
  header and adds decorrelated jitter from the existing
  :class:`~repro.exec.retry.RetryPolicy` — seeded, so tests and
  drills replay the same schedule — because a fleet of clients all
  sleeping exactly ``Retry-After`` reconverges as a thundering herd.
* **409 + primary hint**: a replica or fenced node refuses writes and
  names the primary. The client re-aims at the hinted URL and retries
  there — callers keep one endpoint list across a failover.
* **Connection failover**: a dead endpoint (kill -9'd primary) rotates
  the client to the next endpoint in its list; reads work against any
  node, writes land wherever the hints lead.

The client is deliberately small: JSON in, JSON out, no sessions, no
pooling — ``urllib`` opens one connection per request, which is exactly
the behavior the drills want when they kill nodes mid-burst.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.log import get_logger
from repro.exec.retry import RetryPolicy
from repro.serve.transport import HttpTransport, TransportError

log = get_logger("serve.client")

#: Default retry schedule: bounded attempts, decorrelated jitter so
#: concurrent clients spread out, seeded so drills are reproducible.
DEFAULT_RETRY = RetryPolicy(
    max_attempts=8,
    backoff_base=0.05,
    backoff_factor=2.0,
    backoff_max=2.0,
    jitter=True,
    jitter_seed=0,
)


class ServeClientError(Exception):
    """The request could not be completed within the retry budget."""


@dataclass
class ClientResponse:
    """One HTTP exchange: status + parsed JSON body (if any)."""

    status: int
    body: dict = field(default_factory=dict)
    endpoint: str = ""
    #: Trace ID the server echoed (or the one this client sent).
    trace_id: str = ""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class ServeClient:
    """Ingest/query client over a primary/follower endpoint list."""

    def __init__(
        self,
        endpoints: Union[str, Sequence[str]],
        retry: Optional[RetryPolicy] = None,
        timeout: float = 10.0,
        sleep: Callable[[float], None] = time.sleep,
        transport=None,
        trace_prefix: str = "client",
    ) -> None:
        if isinstance(endpoints, str):
            endpoints = [endpoints]
        if not endpoints:
            raise ValueError("need at least one endpoint URL")
        self.endpoints: List[str] = [e.rstrip("/") for e in endpoints]
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.timeout = timeout
        self.transport = (
            transport if transport is not None else HttpTransport()
        )
        self._sleep = sleep
        self._active = 0
        self.trace_prefix = trace_prefix
        self._trace_lock = threading.Lock()
        self._trace_counter = 0
        # Visible counters the drills assert on.
        self.retries = 0
        self.failovers = 0
        self.redirects = 0

    def mint_trace_id(self) -> str:
        """Next trace ID: one per *logical* request, not per attempt."""
        with self._trace_lock:
            self._trace_counter += 1
            return f"{self.trace_prefix}-{self._trace_counter:06d}"

    # -- plumbing -------------------------------------------------------------

    @property
    def active_endpoint(self) -> str:
        return self.endpoints[self._active]

    def _use(self, endpoint: str) -> str:
        """Make *endpoint* the active one, learning it if new."""
        endpoint = endpoint.rstrip("/")
        if endpoint not in self.endpoints:
            self.endpoints.append(endpoint)
        self._active = self.endpoints.index(endpoint)
        return endpoint

    def _rotate(self) -> None:
        self._active = (self._active + 1) % len(self.endpoints)
        self.failovers += 1

    def _exchange(
        self, method: str, endpoint: str, path: str, body: Optional[dict],
        trace: Optional[str] = None,
    ) -> ClientResponse:
        """One HTTP round-trip; HTTP error statuses return, not raise."""
        data = None
        headers = {}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if trace:
            headers["X-Repro-Trace-Id"] = trace
        response = self.transport.exchange(
            method, f"{endpoint}{path}", body=data, headers=headers,
            timeout=self.timeout,
        )
        payload = response.data
        status = response.status
        retry_after = response.header("Retry-After")
        parsed: dict = {}
        if payload:
            try:
                decoded = json.loads(payload.decode("utf-8"))
                if isinstance(decoded, dict):
                    parsed = decoded
            except (ValueError, UnicodeDecodeError):
                parsed = {}
        if retry_after is not None and "retry_after" not in parsed:
            try:
                parsed["retry_after"] = float(retry_after)
            except ValueError:
                pass
        echoed = response.header("X-Repro-Trace-Id")
        return ClientResponse(
            status=status, body=parsed, endpoint=endpoint,
            trace_id=echoed if echoed else (trace or ""),
        )

    def request_once(
        self, method: str, path: str, body: Optional[dict] = None,
        endpoint: Optional[str] = None, trace: Optional[str] = None,
    ) -> ClientResponse:
        """One un-retried exchange: every status returns as-is.

        For callers that *measure* rather than converse — the benchmarks
        time individual requests and count 503s, so retry loops would
        falsify the numbers. Connection errors still raise.
        """
        target = endpoint.rstrip("/") if endpoint else self.active_endpoint
        return self._exchange(method, target, path, body, trace=trace)

    def request(
        self, method: str, path: str, body: Optional[dict] = None,
        endpoint: Optional[str] = None, trace: Optional[str] = None,
    ) -> ClientResponse:
        """Send with backoff/failover until a non-retryable answer.

        Retryable: 503 (sleep ``max(Retry-After, jittered backoff)``),
        409 with a ``primary_url`` hint (re-aim, no sleep), connection
        errors (rotate to the next endpoint, jittered backoff). Anything
        else — including 4xx — returns as-is; pinning *endpoint*
        disables failover and redirects for that call (the drills use it
        to address one specific node).

        One trace ID covers the whole logical request: minted up front
        (or passed in by the caller) and re-sent on every retry,
        redirect, and failover, so the cluster-side spans for all
        attempts correlate.
        """
        pinned = endpoint is not None
        target = endpoint.rstrip("/") if endpoint else self.active_endpoint
        trace = trace if trace is not None else self.mint_trace_id()
        last_error: Optional[str] = None
        attempts = self.retry.max_attempts
        for attempt in range(1, attempts + 1):
            try:
                response = self._exchange(
                    method, target, path, body, trace=trace
                )
            except (TransportError, OSError, TimeoutError) as exc:
                last_error = f"{target}: {exc}"
                if attempt >= attempts:
                    break
                if not pinned:
                    self._rotate()
                    target = self.active_endpoint
                self.retries += 1
                self._sleep(self.retry.delay(attempt))
                continue
            if response.status == 503:
                last_error = f"{target}: 503 {response.body.get('reasons')}"
                if attempt >= attempts:
                    break
                retry_after = float(response.body.get("retry_after") or 0.0)
                self.retries += 1
                self._sleep(max(retry_after, self.retry.delay(attempt)))
                continue
            if (
                response.status == 409
                and not pinned
                and response.body.get("read_only")
                and isinstance(response.body.get("primary_url"), str)
            ):
                hint = response.body["primary_url"]
                last_error = f"{target}: read-only, primary at {hint}"
                if attempt >= attempts:
                    break
                target = self._use(hint)
                self.redirects += 1
                continue
            return response
        raise ServeClientError(
            f"{method} {path} failed after {attempts} attempts "
            f"(last: {last_error})"
        )

    # -- convenience ----------------------------------------------------------

    def get_json(
        self, path: str, endpoint: Optional[str] = None
    ) -> dict:
        response = self.request("GET", path, endpoint=endpoint)
        if not response.ok:
            raise ServeClientError(
                f"GET {path} -> {response.status}: {response.body}"
            )
        return response.body

    def post_json(
        self, path: str, body: Optional[dict] = None,
        endpoint: Optional[str] = None,
    ) -> ClientResponse:
        return self.request("POST", path, body=body, endpoint=endpoint)

    def ingest_attacks(
        self, records: List[dict], feed: str = "telescope"
    ) -> dict:
        response = self.request(
            "POST", f"/ingest/attacks?feed={feed}", body={"records": records}
        )
        if response.status not in (202, 400):
            raise ServeClientError(
                f"ingest -> {response.status}: {response.body}"
            )
        return response.body

    def ingest_dps(self, records: List[dict]) -> dict:
        response = self.request(
            "POST", "/ingest/dps", body={"records": records}
        )
        if response.status not in (202, 400):
            raise ServeClientError(
                f"ingest dps -> {response.status}: {response.body}"
            )
        return response.body

    def stats(self, endpoint: Optional[str] = None) -> dict:
        return self.get_json("/stats", endpoint=endpoint)

    def digest(self, endpoint: Optional[str] = None) -> dict:
        return self.get_json("/digest", endpoint=endpoint)

    def replication_status(self, endpoint: Optional[str] = None) -> dict:
        return self.get_json("/replication/status", endpoint=endpoint)

    def promote(self, endpoint: str) -> dict:
        response = self.post_json("/promote", endpoint=endpoint)
        if not response.ok:
            raise ServeClientError(
                f"promote -> {response.status}: {response.body}"
            )
        self._use(endpoint)
        return response.body

    def fence(
        self, endpoint: str, epoch: int, primary_url: Optional[str] = None
    ) -> ClientResponse:
        return self.post_json(
            "/replication/fence",
            body={"epoch": epoch, "primary_url": primary_url},
            endpoint=endpoint,
        )


__all__ = [
    "ClientResponse",
    "DEFAULT_RETRY",
    "ServeClient",
    "ServeClientError",
]
