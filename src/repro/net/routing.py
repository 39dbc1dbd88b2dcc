"""Longest-prefix-match routing table (Routeviews prefix-to-AS substitute).

The paper annotates every target IP address with its origin AS using CAIDA's
Routeviews prefix-to-AS data set. This module provides the same lookup
semantics over the synthetic BGP table produced by the topology generator.

Lookups run against a flattened binary-search index: one sorted
``array('I')`` of network base addresses per announced prefix length,
probed from the most-specific length down with :func:`bisect.bisect_left`.
IPv4 has at most 33 lengths, and synthetic tables announce only a handful,
so a lookup is a few bisects over contiguous machine-word arrays — much
faster than chasing per-bit trie nodes through the heap, and the index
rebuilds lazily after ``announce``/``withdraw`` churn.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.net.addressing import Prefix, mask_for


@dataclass
class _Level:
    """All announcements of one prefix length, packed for binary search."""

    __slots__ = ("length", "mask", "networks", "entries")

    length: int
    mask: int
    networks: array  # sorted base addresses, array('I')
    entries: List[Tuple[Prefix, int]]  # aligned with networks


class RoutingTable:
    """Prefix-to-AS mapping with longest-prefix-match lookup.

    >>> table = RoutingTable()
    >>> table.announce(Prefix.from_string("10.0.0.0/8"), asn=64500)
    >>> table.announce(Prefix.from_string("10.1.0.0/16"), asn=64501)
    >>> table.origin_asn(Prefix.from_string("10.1.2.0/24").network)
    64501
    """

    def __init__(self) -> None:
        self._announcements: Dict[Prefix, int] = {}
        self._levels: List[_Level] = []
        self._dirty = False

    def __len__(self) -> int:
        return len(self._announcements)

    def announce(self, prefix: Prefix, asn: int) -> None:
        """Install an announcement; a re-announcement replaces the origin."""
        self._announcements[prefix] = asn
        self._dirty = True

    def withdraw(self, prefix: Prefix) -> bool:
        """Remove an announcement. Returns whether it existed."""
        if prefix not in self._announcements:
            return False
        del self._announcements[prefix]
        self._dirty = True
        return True

    def _rebuild(self) -> None:
        """Pack announcements into per-length sorted arrays (most-specific
        first). ``Prefix`` canonicalizes host bits at construction, so the
        base address is usable as a search key without re-masking."""
        by_length: Dict[int, List[Tuple[int, Prefix, int]]] = {}
        for prefix, asn in self._announcements.items():
            by_length.setdefault(prefix.length, []).append(
                (prefix.network, prefix, asn)
            )
        levels = []
        for length in sorted(by_length, reverse=True):
            rows = sorted(by_length[length], key=lambda row: row[0])
            levels.append(
                _Level(
                    length=length,
                    mask=mask_for(length),
                    networks=array("I", (network for network, _, _ in rows)),
                    entries=[(prefix, asn) for _, prefix, asn in rows],
                )
            )
        self._levels = levels
        self._dirty = False

    def lookup(self, address: int) -> Optional[Tuple[Prefix, int]]:
        """Longest-prefix match; returns (prefix, origin ASN) or ``None``."""
        if self._dirty:
            self._rebuild()
        for level in self._levels:
            key = address & level.mask
            networks = level.networks
            index = bisect_left(networks, key)
            if index < len(networks) and networks[index] == key:
                return level.entries[index]
        return None

    def origin_asn(self, address: int) -> Optional[int]:
        """Origin ASN for *address*, or ``None`` if unrouted."""
        match = self.lookup(address)
        return match[1] if match else None

    def announced_prefixes(self) -> Iterator[Tuple[Prefix, int]]:
        """Iterate over all (prefix, asn) announcements, sorted by prefix."""
        for prefix in sorted(self._announcements):
            yield prefix, self._announcements[prefix]

    @classmethod
    def from_announcements(
        cls, announcements: Iterable[Tuple[Prefix, int]]
    ) -> "RoutingTable":
        """Bulk-build a table from (prefix, asn) pairs."""
        table = cls()
        for prefix, asn in announcements:
            table.announce(prefix, asn)
        return table
