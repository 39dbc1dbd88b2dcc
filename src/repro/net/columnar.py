"""The telescope capture as numpy columns.

A capture is millions of count-compressed packet batches. Holding each
as a :class:`~repro.net.packet.PacketBatch` object costs a Python object
per row at synthesis time and a Python call per row at detection time.
:class:`PacketColumns` stores the same rows as one numpy array per field
instead, so backscatter synthesis (:mod:`repro.telescope.backscatter`)
writes whole attacks at once and RSDoS detection
(:func:`repro.telescope.rsdos.detect_columns`) runs as a vectorized
segmentation.

Two fields need a representation change:

* ``src_ports`` is a set per row. The ``port_set`` column holds a code
  instead: a one-port set is its port (0-65535), ``-1`` is the empty
  set, and a set of two or more ports is ``-2 - id`` for its id in the
  capture's small ``port_sets`` table. Telescope noise (one port or
  none per row) never touches the table; only backscatter attacks
  that target several ports add to it, and one attack's rows all share
  one code.
* ``quoted_proto`` is ``None`` for most rows; the column stores -1 for
  "no quoted packet".

The invariants :class:`PacketBatch` enforces per object are checked
column-wide on construction and raise the same ``ValueError``. The
object form stays available: :meth:`PacketColumns.batches` for pcap
export and the tests' streaming oracle detector, and
:meth:`PacketColumns.from_batches` for pcap replay and hand-built
captures.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from repro.net.packet import (
    BACKSCATTER_ICMP_TYPES,
    PROTO_ICMP,
    PROTO_TCP,
    PacketBatch,
    TCP_ACK,
    TCP_RST,
    TCP_SYN,
)

_BACKSCATTER_ICMP = np.array(sorted(BACKSCATTER_ICMP_TYPES), dtype=np.int16)

#: Column name -> dtype, in constructor order.
PACKET_COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("ts", np.float64),
    ("src", np.uint32),
    ("proto", np.uint8),
    ("count", np.int64),
    ("bytes", np.int64),
    ("distinct_dsts", np.int64),
    ("port_set", np.int32),
    ("tcp_flags", np.uint8),
    ("icmp_type", np.int16),
    ("quoted_proto", np.int16),
)


def columns_equal(left, right, names: Sequence[str]) -> bool:
    """Whether two column structs hold identical arrays for *names*."""
    return all(
        np.array_equal(getattr(left, name), getattr(right, name))
        for name in names
    )


#: ``port_set`` code of the empty port set; codes 0..MAX_PORT are
#: one-port sets and codes below -1 index the multi-port table.
NO_PORTS = -1
MAX_PORT = 65535


def encode_port_sets(
    sets: Iterable[Iterable[int]],
) -> Tuple[List[int], Tuple[FrozenSet[int], ...]]:
    """The ``port_set`` code of each of *sets*, and the table of
    multi-port sets the codes index (in first-seen order)."""
    ids: Dict[FrozenSet[int], int] = {}
    codes = []
    for ports in sets:
        ports = frozenset(ports)
        if len(ports) > 1:
            codes.append(-2 - ids.setdefault(ports, len(ids)))
        elif not ports:
            codes.append(NO_PORTS)
        else:
            (port,) = ports
            if not 0 <= port <= MAX_PORT:
                raise ValueError(f"source port {port} outside 0-{MAX_PORT}")
            codes.append(port)
    return codes, tuple(ids)


def decode_port_set(code: int, port_sets) -> FrozenSet[int]:
    """The port set a ``port_set`` *code* stands for."""
    if code >= 0:
        return frozenset((code,))
    if code == NO_PORTS:
        return frozenset()
    return port_sets[-2 - code]


class PacketColumns:
    """A telescope capture: one numpy array per :class:`PacketBatch` field."""

    __slots__ = tuple(name for name, _ in PACKET_COLUMNS) + ("port_sets",)

    def __init__(
        self,
        ts,
        src,
        proto,
        count,
        bytes,
        distinct_dsts,
        port_set,
        tcp_flags,
        icmp_type,
        quoted_proto,
        port_sets: Sequence[FrozenSet[int]] = (),
    ) -> None:
        values = (
            ts, src, proto, count, bytes, distinct_dsts, port_set,
            tcp_flags, icmp_type, quoted_proto,
        )
        n = len(ts)
        for (name, dtype), value in zip(PACKET_COLUMNS, values):
            column = np.asarray(value, dtype=dtype)
            if column.shape != (n,):
                raise ValueError(f"column {name!r} has {column.shape}, not ({n},)")
            setattr(self, name, column)
        #: Multi-port table: ``port_set`` code ``-2 - id`` -> its ports.
        self.port_sets: Tuple[FrozenSet[int], ...] = tuple(port_sets)
        for ports in self.port_sets:
            if len(ports) < 2 or not all(0 <= p <= MAX_PORT for p in ports):
                raise ValueError(f"not a multi-port set: {sorted(ports)}")
        if n:
            if self.count.min() <= 0:
                raise ValueError("batch count must be positive")
            if self.distinct_dsts.min() <= 0:
                raise ValueError("batch must hit at least one destination")
            if self.port_set.max() > MAX_PORT:
                raise ValueError(f"port-set code above port {MAX_PORT}")
            if self.port_set.min() < -1 - len(self.port_sets):
                raise ValueError("port-set code past the multi-port table")

    @classmethod
    def empty(cls) -> "PacketColumns":
        return cls(*([()] * len(PACKET_COLUMNS)))

    def __len__(self) -> int:
        return len(self.ts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PacketColumns):
            return NotImplemented
        return self.port_sets == other.port_sets and columns_equal(
            self, other, [name for name, _ in PACKET_COLUMNS]
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PacketColumns(rows={len(self)}, port_sets={len(self.port_sets)})"

    def take(self, selector) -> "PacketColumns":
        """The rows *selector* picks (boolean mask or index array)."""
        return PacketColumns(
            *(getattr(self, name)[selector] for name, _ in PACKET_COLUMNS),
            port_sets=self.port_sets,
        )

    @classmethod
    def concat(
        cls,
        parts: Sequence["PacketColumns"],
        port_sets: Sequence[FrozenSet[int]],
    ) -> "PacketColumns":
        """Rows of *parts* in order, sharing the table *port_sets*.

        Every part's table must be a prefix of *port_sets* (noise, with
        no table, joins any capture).
        """
        port_sets = tuple(port_sets)
        for part in parts:
            if (
                part.port_sets is not port_sets
                and port_sets[: len(part.port_sets)] != part.port_sets
            ):
                raise ValueError("part indexes another multi-port table")
        return cls(
            *(
                np.concatenate([getattr(part, name) for part in parts])
                for name, _ in PACKET_COLUMNS
            ),
            port_sets=port_sets,
        )

    def time_sorted(self) -> "PacketColumns":
        """Rows in timestamp order; ties keep their current order."""
        return self.take(np.argsort(self.ts, kind="stable"))

    # -- vectorized PacketBatch properties ------------------------------------

    def backscatter(self) -> np.ndarray:
        """Boolean mask: :attr:`PacketBatch.is_backscatter` per row."""
        flags = self.tcp_flags
        syn_ack = (flags & (TCP_SYN | TCP_ACK)) == (TCP_SYN | TCP_ACK)
        tcp = (self.proto == PROTO_TCP) & (syn_ack | ((flags & TCP_RST) != 0))
        icmp = (self.proto == PROTO_ICMP) & np.isin(
            self.icmp_type, _BACKSCATTER_ICMP
        )
        return tcp | icmp

    def attack_proto(self) -> np.ndarray:
        """:attr:`PacketBatch.attack_proto` per row."""
        proto = self.proto.astype(np.int16)
        quoted = (proto == PROTO_ICMP) & (self.quoted_proto >= 0)
        return np.where(quoted, self.quoted_proto, proto)

    # -- object form ----------------------------------------------------------

    def batches(self) -> List[PacketBatch]:
        """The rows as :class:`PacketBatch` objects, in row order."""
        src_ports = {
            code: decode_port_set(code, self.port_sets)
            for code in np.unique(self.port_set).tolist()
        }
        return [
            PacketBatch(
                timestamp=ts,
                src=src,
                proto=proto,
                count=count,
                bytes=size,
                distinct_dsts=dsts,
                src_ports=src_ports[port_set],
                tcp_flags=flags,
                icmp_type=icmp_type,
                quoted_proto=None if quoted < 0 else quoted,
            )
            for (
                ts, src, proto, count, size, dsts, port_set, flags,
                icmp_type, quoted,
            ) in zip(*(getattr(self, name).tolist() for name, _ in PACKET_COLUMNS))
        ]

    @classmethod
    def from_batches(cls, batches: Iterable[PacketBatch]) -> "PacketColumns":
        """Encode batch objects into columns (row order preserved)."""
        batches = list(batches)
        if not batches:
            return cls.empty()
        codes, port_sets = encode_port_sets(b.src_ports for b in batches)
        rows = [
            (
                b.timestamp,
                b.src,
                b.proto,
                b.count,
                b.bytes,
                b.distinct_dsts,
                code,
                b.tcp_flags,
                b.icmp_type,
                -1 if b.quoted_proto is None else b.quoted_proto,
            )
            for b, code in zip(batches, codes)
        ]
        return cls(*zip(*rows), port_sets=port_sets)


__all__ = [
    "MAX_PORT",
    "NO_PORTS",
    "PACKET_COLUMNS",
    "PacketColumns",
    "columns_equal",
    "decode_port_set",
    "encode_port_sets",
]
