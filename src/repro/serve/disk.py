"""The disk seam under the write-ahead log.

:class:`WriteAheadLog` performs every byte of I/O through a *disk*
object instead of calling ``open``/``os.fsync`` directly. The default,
:class:`LocalDisk`, is exactly the operating-system behavior the log
always had — the seam exists so the deterministic simulation harness
(:mod:`repro.simtest`) can substitute an in-memory disk that injects
torn writes, power cuts that lose the unfsynced tail, and ``ENOSPC`` at
chosen byte offsets, all under a seeded schedule.

The interface is deliberately shaped like the WAL's access pattern (one
append handle, whole-segment reads, ranged chunk reads, truncate-and-
fsync repair) rather than like a general filesystem: a smaller surface
is easier to hold deterministic.

Durability vocabulary the simulation relies on:

* ``append`` = write + flush to the OS. A *process* kill never loses
  appended bytes.
* ``fsync`` = force to stable storage. Only a *power* failure can lose
  appended-but-unfsynced bytes — and may tear the final line.

The WAL calls ``append`` once per commit, with every line of the batch,
and then ``fsync``; the service acks the batch only after both, so bytes
a power cut takes back were never acknowledged.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional, Union


class LocalDisk:
    """Real-filesystem implementation: what production serving uses."""

    def mkdir(self, directory: Union[str, Path]) -> None:
        Path(directory).mkdir(parents=True, exist_ok=True)

    def listdir(self, directory: Union[str, Path]) -> List[str]:
        return [path.name for path in Path(directory).iterdir()]

    def size(self, path: Union[str, Path]) -> int:
        return Path(path).stat().st_size

    def exists(self, path: Union[str, Path]) -> bool:
        return Path(path).exists()

    def unlink(self, path: Union[str, Path]) -> None:
        Path(path).unlink()

    # -- append handle (one open segment at a time) ---------------------------

    def open_append(self, path: Union[str, Path]):
        return open(path, "ab")

    def append(self, handle, data: bytes) -> None:
        """Write *data* and flush it to the OS (a process kill keeps it)."""
        handle.write(data)
        handle.flush()

    def fsync(self, handle) -> None:
        os.fsync(handle.fileno())

    def close(self, handle) -> None:
        handle.close()

    # -- reads ----------------------------------------------------------------

    def read_bytes(self, path: Union[str, Path]) -> bytes:
        return Path(path).read_bytes()

    def read_chunk(
        self, path: Union[str, Path], offset: int, max_bytes: int
    ) -> Optional[bytes]:
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                return handle.read(max_bytes)
        except OSError:
            return None

    # -- repair ---------------------------------------------------------------

    def truncate(self, path: Union[str, Path], keep_bytes: int) -> None:
        """Cut *path* to *keep_bytes* and fsync the cut (tail repair)."""
        with open(path, "r+b") as handle:
            handle.truncate(keep_bytes)
            handle.flush()
            os.fsync(handle.fileno())


__all__ = ["LocalDisk"]
