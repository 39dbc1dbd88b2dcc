"""In-memory disk + snapshot store with seeded failure injection.

:class:`SimDisk` implements the :class:`~repro.serve.disk.LocalDisk`
interface over plain bytearrays and models the two-tier durability the
WAL's contract is written against:

* ``append`` lands bytes in ``data`` — the "reached the OS" tier that
  survives a *process* crash (:meth:`crash_process`);
* ``fsync`` advances ``synced_len`` — the stable-storage tier; a *power*
  crash (:meth:`crash_power`) rolls every file back to ``synced_len``
  plus an op-specified fraction of the unsynced tail, which is exactly
  how real power loss tears a final line mid-byte.

ENOSPC is modeled with :meth:`set_full`: the next append may write a
chosen partial prefix before failing, reproducing the
partial-line-then-error shape a full filesystem produces.

``unlink`` keeps the bytes of every file it removes in
:attr:`SimDisk.unlinked`. The serve code never reads them; the
simulation's oracles do, to replay a node's whole history after its WAL
was pruned.

:class:`MemorySnapshotStore` duck-types the
:class:`~repro.store.checkpoint.CheckpointStore` surface the
:class:`~repro.serve.snapshot.SnapshotManager` needs (``stages`` /
``save`` / ``load`` / ``discard``) with hooks to corrupt chosen
snapshots and to fail saves while the disk is "full".
"""

from __future__ import annotations

import errno
import json
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.store.checkpoint import (
    CheckpointCorruptionError,
    CheckpointMissingError,
)


def _key(path: Union[str, Path]) -> str:
    return str(path)


class _SimFile:
    __slots__ = ("data", "synced_len")

    def __init__(self) -> None:
        self.data = bytearray()
        self.synced_len = 0


class _SimHandle:
    """An append handle: just a name, validity-tracked for close()."""

    __slots__ = ("key", "closed")

    def __init__(self, key: str) -> None:
        self.key = key
        self.closed = False


class SimDisk:
    """Deterministic in-memory filesystem for the WAL seam."""

    def __init__(self) -> None:
        self._files: Dict[str, _SimFile] = {}
        self._dirs: Set[str] = set()
        # ENOSPC injection: while full, appends fail; the first failing
        # append may still land a partial prefix (torn write).
        self._full = False
        self._partial_next: Optional[int] = None
        self.appends = 0
        self.fsyncs = 0
        self.power_cuts = 0
        #: ``(path, bytes)`` of every unlinked file, in unlink order.
        self.unlinked: List[Tuple[str, bytes]] = []

    # -- fault controls --------------------------------------------------------

    def set_full(
        self, full: bool, partial_next_append: Optional[int] = None
    ) -> None:
        """Flip ENOSPC mode; optionally tear the next failing append."""
        self._full = full
        self._partial_next = partial_next_append if full else None

    @property
    def full(self) -> bool:
        return self._full

    def crash_power(
        self, keep_unsynced_fraction: float = 0.0
    ) -> Dict[str, bytes]:
        """Power cut: every file rolls back to its fsynced length.

        ``keep_unsynced_fraction`` of each unsynced tail survives (byte
        count rounded down) — a non-integral cut lands mid-line, which
        is precisely the torn-tail case recovery must repair. Returns
        the bytes each file *lost*, keyed by path.
        """
        if not 0.0 <= keep_unsynced_fraction <= 1.0:
            raise ValueError("keep_unsynced_fraction must be within [0, 1]")
        lost: Dict[str, bytes] = {}
        for key, entry in self._files.items():
            unsynced = len(entry.data) - entry.synced_len
            if unsynced <= 0:
                continue
            keep_extra = int(unsynced * keep_unsynced_fraction)
            cut = entry.synced_len + keep_extra
            if cut < len(entry.data):
                lost[key] = bytes(entry.data[cut:])
                del entry.data[cut:]
            entry.synced_len = len(entry.data)
        self.power_cuts += 1
        return lost

    def crash_process(self) -> None:
        """Process kill: appended (flushed-to-OS) bytes all survive."""
        for entry in self._files.values():
            entry.synced_len = len(entry.data)

    def wipe(self) -> None:
        """Forget everything (re-seeding a diverged node)."""
        self._files.clear()
        self._dirs.clear()
        self.unlinked.clear()
        self._full = False
        self._partial_next = None

    # -- LocalDisk interface ---------------------------------------------------

    def mkdir(self, directory: Union[str, Path]) -> None:
        self._dirs.add(_key(directory))

    def listdir(self, directory: Union[str, Path]) -> List[str]:
        prefix = _key(directory).rstrip("/") + "/"
        names = []
        for key in self._files:
            if key.startswith(prefix) and "/" not in key[len(prefix):]:
                names.append(key[len(prefix):])
        return names

    def size(self, path: Union[str, Path]) -> int:
        return len(self._require(path).data)

    def exists(self, path: Union[str, Path]) -> bool:
        return _key(path) in self._files

    def unlink(self, path: Union[str, Path]) -> None:
        key = _key(path)
        if key not in self._files:
            raise FileNotFoundError(errno.ENOENT, "no such file", key)
        self.unlinked.append((key, bytes(self._files.pop(key).data)))

    def open_append(self, path: Union[str, Path]):
        key = _key(path)
        if key not in self._files:
            self._files[key] = _SimFile()
        return _SimHandle(key)

    def append(self, handle, data: bytes) -> None:
        entry = self._files[handle.key]
        if self._full:
            torn = self._partial_next or 0
            self._partial_next = None
            if torn > 0:
                entry.data.extend(data[:torn])
            raise OSError(errno.ENOSPC, "no space left on device (simulated)")
        entry.data.extend(data)
        self.appends += 1

    def fsync(self, handle) -> None:
        entry = self._files[handle.key]
        entry.synced_len = len(entry.data)
        self.fsyncs += 1

    def close(self, handle) -> None:
        handle.closed = True

    def read_bytes(self, path: Union[str, Path]) -> bytes:
        return bytes(self._require(path).data)

    def read_chunk(
        self, path: Union[str, Path], offset: int, max_bytes: int
    ) -> Optional[bytes]:
        entry = self._files.get(_key(path))
        if entry is None:
            return None
        return bytes(entry.data[offset:offset + max_bytes])

    def truncate(self, path: Union[str, Path], keep_bytes: int) -> None:
        entry = self._require(path)
        del entry.data[keep_bytes:]
        entry.synced_len = len(entry.data)

    def _require(self, path: Union[str, Path]) -> _SimFile:
        entry = self._files.get(_key(path))
        if entry is None:
            raise FileNotFoundError(errno.ENOENT, "no such file", _key(path))
        return entry


class MemorySnapshotStore:
    """Duck-typed CheckpointStore: JSON-frozen stages, injectable faults.

    Payloads are frozen through a JSON round-trip at save time so a
    stored snapshot can never alias live mutable state — the same
    isolation the real store's serialization provides.
    """

    def __init__(self) -> None:
        self._stages: Dict[str, str] = {}
        self._corrupt: Set[str] = set()
        #: While True every save raises ENOSPC (disk-full snapshots).
        self.fail_saves = False
        self.saves = 0

    def stages(self) -> List[str]:
        return sorted(self._stages)

    def save(self, stage: str, payload) -> None:
        if self.fail_saves:
            raise OSError(
                errno.ENOSPC, "no space left on device (simulated)"
            )
        self._stages[stage] = json.dumps(payload, sort_keys=True)
        self._corrupt.discard(stage)
        self.saves += 1

    def load(self, stage: str):
        if stage not in self._stages:
            raise CheckpointMissingError(stage, "no checkpoint (simulated)")
        if stage in self._corrupt:
            raise CheckpointCorruptionError(
                stage, "sha256 mismatch (simulated corruption)"
            )
        return json.loads(self._stages[stage])

    def discard(self, stage: str) -> None:
        self._stages.pop(stage, None)
        self._corrupt.discard(stage)

    # -- fault controls --------------------------------------------------------

    def corrupt(self, stage: str) -> bool:
        """Mark one stored stage corrupt; True if it existed."""
        if stage in self._stages:
            self._corrupt.add(stage)
            return True
        return False

    def corrupt_newest(self, count: int = 1) -> int:
        """Corrupt the *count* newest stages; returns how many."""
        done = 0
        for stage in reversed(self.stages()):
            if done >= count:
                break
            if self.corrupt(stage):
                done += 1
        return done


__all__ = ["MemorySnapshotStore", "SimDisk"]
