"""The honeypot request log as numpy columns.

The honeypot counterpart of :mod:`repro.net.columnar`: one numpy array
per :class:`~repro.honeypot.amppot.RequestBatch` field, so the fleet
model (:meth:`repro.honeypot.amppot.AmpPotFleet.capture_columns`) writes
whole attacks at once and event extraction
(:func:`repro.honeypot.detection.detect_columns`) runs as a vectorized
segmentation. Protocol names are stored as ids into the fixed
:data:`PROTOCOLS` table, so the logs of different partitions and runs share
ids and concatenate without re-interning.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Tuple

import numpy as np

from repro.net.columnar import columns_equal
from repro.net.protocols import REFLECTION_PROTOCOLS

if TYPE_CHECKING:
    # The fleet model builds these columns, so it imports this module.
    from repro.honeypot.amppot import RequestBatch

#: Protocol id -> protocol name, for every reflector protocol AmpPot emulates.
PROTOCOLS: Tuple[str, ...] = tuple(REFLECTION_PROTOCOLS)
_PROTOCOL_IDS = {name: index for index, name in enumerate(PROTOCOLS)}

#: Column name -> dtype, in constructor order.
REQUEST_COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("ts", np.float64),
    ("victim", np.uint32),
    ("honeypot_id", np.int32),
    ("protocol", np.uint8),
    ("count", np.int64),
)


def protocol_id(name: str) -> int:
    """The :data:`PROTOCOLS` id of *name*; ``ValueError`` if unknown."""
    try:
        return _PROTOCOL_IDS[name]
    except KeyError:
        raise ValueError(f"unknown reflector protocol: {name!r}") from None


class RequestColumns:
    """A honeypot request log: one numpy array per :class:`RequestBatch` field."""

    __slots__ = tuple(name for name, _ in REQUEST_COLUMNS)

    def __init__(self, ts, victim, honeypot_id, protocol, count) -> None:
        n = len(ts)
        values = (ts, victim, honeypot_id, protocol, count)
        for (name, dtype), value in zip(REQUEST_COLUMNS, values):
            column = np.asarray(value, dtype=dtype)
            if column.shape != (n,):
                raise ValueError(f"column {name!r} has {column.shape}, not ({n},)")
            setattr(self, name, column)
        if n:
            if self.count.min() <= 0:
                raise ValueError("request batch count must be positive")
            if self.protocol.max() >= len(PROTOCOLS):
                raise ValueError(
                    f"unknown reflector protocol id: {int(self.protocol.max())}"
                )

    @classmethod
    def empty(cls) -> "RequestColumns":
        return cls(*([()] * len(REQUEST_COLUMNS)))

    def __len__(self) -> int:
        return len(self.ts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RequestColumns):
            return NotImplemented
        return columns_equal(self, other, self.__slots__)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"RequestColumns(rows={len(self)})"

    def take(self, selector) -> "RequestColumns":
        """The rows *selector* picks (boolean mask or index array)."""
        return RequestColumns(*(getattr(self, name)[selector] for name in self.__slots__))

    def time_sorted(self) -> "RequestColumns":
        """Rows in timestamp order; ties keep their current order."""
        return self.take(np.argsort(self.ts, kind="stable"))

    def batches(self) -> List[RequestBatch]:
        """The rows as :class:`RequestBatch` objects, in row order."""
        from repro.honeypot.amppot import RequestBatch

        return [
            RequestBatch(
                timestamp=ts,
                victim=victim,
                honeypot_id=honeypot_id,
                protocol=PROTOCOLS[protocol],
                count=count,
            )
            for ts, victim, honeypot_id, protocol, count in zip(
                *(getattr(self, name).tolist() for name in self.__slots__)
            )
        ]

    @classmethod
    def from_batches(cls, batches: Iterable[RequestBatch]) -> "RequestColumns":
        """Encode batch objects into columns (row order preserved)."""
        rows = [
            (b.timestamp, b.victim, b.honeypot_id, protocol_id(b.protocol), b.count)
            for b in batches
        ]
        if not rows:
            return cls.empty()
        return cls(*zip(*rows))


__all__ = ["PROTOCOLS", "REQUEST_COLUMNS", "RequestColumns", "protocol_id"]
