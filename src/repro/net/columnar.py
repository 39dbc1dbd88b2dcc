"""Structure-of-arrays input for the sketch detection tier.

The sketch tier (:func:`repro.telescope.rsdos.detect_sketch`) reads four
quantities per packet batch. :class:`PacketColumns` stores exactly those
as flat columns, so its hot loop indexes machine-typed buffers instead of
touching a Python object per batch: the victim (``srcs``), the
timestamp, the backscatter verdict (:attr:`PacketBatch.is_backscatter`
as 0/1) and ``sketch_packed``.

``sketch_packed`` packs every per-row quantity the sketch accumulates
(tcp count, icmp count, bytes, distinct destinations) into one integer
with 64-bit fields, choosing the tcp/icmp field by the row's response
protocol *here*, where the protocol is already known. The sketch's hot
loop then does a single ``record[2] += packed`` per row — one add
maintains all four running sums at once. Summing is safe because each
field is non-negative and 64 bits wide: overflowing a field into its
neighbor would take 2**64 (~1.8e19) packets or bytes for a single
victim, far beyond any real capture. Non-backscatter rows (which the
sketch skips) pack to 0.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List

from repro.net.packet import PROTO_TCP, PacketBatch

# ``sketch_packed`` field layout (bit offsets of each 64-bit field).
SKETCH_PACKED_TCP_SHIFT = 0
SKETCH_PACKED_ICMP_SHIFT = 64
SKETCH_PACKED_BYTES_SHIFT = 128
SKETCH_PACKED_DSTS_SHIFT = 192
SKETCH_PACKED_FIELD_MASK = (1 << 64) - 1


class PacketColumns:
    """The sketch tier's view of a packet-batch capture, one column per field."""

    __slots__ = ("timestamps", "srcs", "backscatter", "sketch_packed")

    def __init__(self) -> None:
        self.timestamps = array("d")
        self.srcs = array("I")
        self.backscatter = array("B")
        # A plain list: packed values exceed 64 bits, so no array
        # typecode fits.
        self.sketch_packed: List[int] = []

    def __len__(self) -> int:
        return len(self.timestamps)

    @classmethod
    def from_batches(cls, batches: Iterable[PacketBatch]) -> "PacketColumns":
        """Encode a capture into columns (row order preserved)."""
        columns = cls()
        timestamps = columns.timestamps
        srcs = columns.srcs
        backscatter = columns.backscatter
        append_packed = columns.sketch_packed.append
        for batch in batches:
            timestamps.append(batch.timestamp)
            srcs.append(batch.src)
            if batch.is_backscatter:
                backscatter.append(1)
                append_packed(
                    (
                        batch.count
                        << (
                            SKETCH_PACKED_TCP_SHIFT
                            if batch.proto == PROTO_TCP
                            else SKETCH_PACKED_ICMP_SHIFT
                        )
                    )
                    | (batch.bytes << SKETCH_PACKED_BYTES_SHIFT)
                    | (batch.distinct_dsts << SKETCH_PACKED_DSTS_SHIFT)
                )
            else:
                backscatter.append(0)
                append_packed(0)
        return columns


__all__ = [
    "SKETCH_PACKED_TCP_SHIFT",
    "SKETCH_PACKED_ICMP_SHIFT",
    "SKETCH_PACKED_BYTES_SHIFT",
    "SKETCH_PACKED_DSTS_SHIFT",
    "SKETCH_PACKED_FIELD_MASK",
    "PacketColumns",
]
