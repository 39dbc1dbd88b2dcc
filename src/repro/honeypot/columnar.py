"""Structure-of-arrays input for the honeypot sketch detection tier.

The honeypot counterpart of :mod:`repro.net.columnar`: the sketch tier
(:func:`repro.honeypot.detection.detect_sketch`) reads five scalar fields
from each :class:`~repro.honeypot.amppot.RequestBatch`.
:class:`RequestColumns` stores those fields as flat ``array`` columns;
protocol strings (a handful of reflection protocols) are interned into a
small lookup table and stored as one byte per row.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Sequence, Tuple

from repro.honeypot.amppot import RequestBatch


class RequestColumns:
    """A honeypot request log, one ``array`` column per field."""

    __slots__ = (
        "timestamps",
        "victims",
        "honeypot_ids",
        "protocol_ids",
        "counts",
        "protocols",
    )

    def __init__(self) -> None:
        self.timestamps = array("d")
        self.victims = array("I")
        self.honeypot_ids = array("I")
        self.protocol_ids = array("B")
        self.counts = array("Q")
        #: Interning table: protocol id -> protocol string.
        self.protocols: Tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.timestamps)

    @classmethod
    def from_batches(
        cls, batches: Iterable[RequestBatch], protocols: Sequence[str] = ()
    ) -> "RequestColumns":
        """Encode a request log into columns (row order preserved).

        The interning table starts from *protocols* and appends any other
        protocol in first-seen order, so encodings that share a starting
        table (the shards of one log) share protocol ids.
        """
        columns = cls()
        timestamps = columns.timestamps
        victims = columns.victims
        honeypot_ids = columns.honeypot_ids
        protocol_ids = columns.protocol_ids
        counts = columns.counts
        table: Dict[str, int] = {name: i for i, name in enumerate(protocols)}
        for batch in batches:
            timestamps.append(batch.timestamp)
            victims.append(batch.victim)
            honeypot_ids.append(batch.honeypot_id)
            protocol_id = table.get(batch.protocol)
            if protocol_id is None:
                protocol_id = len(table)
                table[batch.protocol] = protocol_id
            protocol_ids.append(protocol_id)
            counts.append(batch.count)
        columns.protocols = tuple(table)
        return columns


__all__ = ["RequestColumns"]
