"""In-process transport: ``sim://node`` URLs, seeded network faults.

Implements the exchange interface from :mod:`repro.serve.transport`, so
a :class:`~repro.serve.client.ServeClient` and every follower's
:class:`~repro.serve.replication.WalShipper` talk to the virtual cluster
through the same code path they use against real HTTP — except the
"network" here is a seeded RNG that can drop requests, drop responses
(after the side effect happened — the at-least-once hazard), duplicate
deliveries, serve a stale cached reply (reordering; stale epochs), add
latency on the simulated clock, and enforce partitions.

A delivered request is answered by :func:`repro.serve.http.handle`, the
production router the HTTP handler calls too: the simulation checks
the request path that ships. This module keeps only the network: the
fault schedule, the partitions and the reply cache.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, FrozenSet, Optional, Set, Tuple

from repro.serve.http import handle
from repro.serve.transport import TransportError, TransportResponse
from repro.simtest.clock import SimClock

SCHEME = "sim://"


class _BoundTransport:
    """The per-caller view: carries who is calling for partition checks."""

    def __init__(self, transport: "SimTransport", caller: str) -> None:
        self._transport = transport
        self.caller = caller

    def exchange(self, method, url, body=None, headers=None, timeout=10.0):
        return self._transport.exchange_from(
            self.caller, method, url, body=body, headers=headers,
            timeout=timeout,
        )


class SimTransport:
    """The virtual network: routing + seeded fault schedule."""

    def __init__(self, seed: int, clock: Optional[SimClock] = None) -> None:
        self.rng = random.Random(seed ^ 0x5EED)
        self.clock = clock if clock is not None else SimClock()
        self._nodes: Dict[str, Callable[[], Optional[object]]] = {}
        self._partitions: Set[FrozenSet[str]] = set()
        #: Per-exchange fault probabilities.
        self.drop_request_rate = 0.0
        self.drop_response_rate = 0.0
        self.duplicate_rate = 0.0
        self.stale_rate = 0.0
        self.delay_rate = 0.0
        self.delay_s = 0.05
        self._reply_cache: Dict[Tuple[str, str, str], TransportResponse] = {}
        self.exchanges = 0
        self.faults: Dict[str, int] = {}
        #: Observer called as ``on_response(target, method, path,
        #: response)`` after every *delivered* request (duplicates
        #: included) — the harness hooks its write-attribution oracle
        #: here, since every accepted write crosses this chokepoint.
        self.on_response: Optional[Callable] = None

    # -- wiring ---------------------------------------------------------------

    def register(
        self, name: str, get_service: Callable[[], Optional[object]]
    ) -> None:
        """Register a node; *get_service* returns None while crashed."""
        self._nodes[name] = get_service

    def bind(self, caller: str) -> _BoundTransport:
        """A transport whose exchanges originate at *caller*."""
        return _BoundTransport(self, caller)

    def url_of(self, name: str) -> str:
        return f"{SCHEME}{name}"

    # -- faults ---------------------------------------------------------------

    def set_rates(self, *, drop: float = 0.0, dup: float = 0.0,
                  stale: float = 0.0, delay: float = 0.0) -> None:
        """Set per-exchange fault probabilities (drop splits 50/50
        between request-drop and response-drop)."""
        self.drop_request_rate = drop / 2.0
        self.drop_response_rate = drop / 2.0
        self.duplicate_rate = dup
        self.stale_rate = stale
        self.delay_rate = delay

    def partition(self, a: str, b: str) -> None:
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: Optional[str] = None, b: Optional[str] = None) -> None:
        """Heal one pair, or everything when called with no arguments."""
        if a is None and b is None:
            self._partitions.clear()
        else:
            self._partitions.discard(frozenset((a, b)))

    def partitioned(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self._partitions

    def _count(self, fault: str) -> None:
        self.faults[fault] = self.faults.get(fault, 0) + 1

    # -- the exchange ---------------------------------------------------------

    def exchange_from(self, caller: str, method: str, url: str,
                      body: Optional[bytes] = None,
                      headers=None, timeout: float = 10.0
                      ) -> TransportResponse:
        if not url.startswith(SCHEME):
            raise TransportError(f"not a sim url: {url}")
        rest = url[len(SCHEME):]
        target, _, path = rest.partition("/")
        path = "/" + path
        self.exchanges += 1
        # Roll every fault up front, in fixed order, so the number of
        # RNG draws per exchange is constant — determinism survives any
        # control-flow shortcut below.
        roll = self.rng.random
        drop_req = roll() < self.drop_request_rate
        drop_resp = roll() < self.drop_response_rate
        duplicate = roll() < self.duplicate_rate
        stale = roll() < self.stale_rate
        delayed = roll() < self.delay_rate
        if delayed:
            self._count("delay")
            self.clock.advance(self.delay_s)
        get_service = self._nodes.get(target)
        if get_service is None:
            raise TransportError(f"unknown sim node: {target}")
        if self.partitioned(caller, target):
            self._count("partitioned")
            self.clock.advance(min(timeout, 1.0))
            raise TransportError(
                f"{caller} -> {target}: partitioned (simulated)"
            )
        service = get_service()
        if service is None:
            raise TransportError(f"{target}: connection refused (crashed)")
        if drop_req:
            self._count("drop_request")
            self.clock.advance(min(timeout, 1.0))
            raise TransportError(f"{target}: request lost (simulated)")
        cache_key = (target, method, path)
        if stale and cache_key in self._reply_cache:
            # A delayed older reply for this exact request arrives
            # instead of a fresh one — reordering, stale epochs included.
            self._count("stale_reply")
            return self._reply_cache[cache_key]
        response = handle(service, method, path, headers, body or b"")
        if self.on_response is not None:
            self.on_response(target, method, path, response)
        if duplicate:
            # The request was delivered twice; the second delivery's
            # side effects happen, the second response wins.
            self._count("duplicate")
            response = handle(service, method, path, headers, body or b"")
            if self.on_response is not None:
                self.on_response(target, method, path, response)
        self._reply_cache[cache_key] = response
        if drop_resp:
            self._count("drop_response")
            self.clock.advance(min(timeout, 1.0))
            raise TransportError(
                f"{target}: response lost after delivery (simulated)"
            )
        return response


__all__ = ["SCHEME", "SimTransport"]
