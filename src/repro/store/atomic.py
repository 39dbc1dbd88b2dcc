"""Crash-safe file primitives: atomic replace plus directory fsync.

The whole durable-run design rests on one invariant: a reader never sees
a half-written file. Writes go to a same-directory temp path, are fsynced,
and are moved into place with :func:`os.replace`; then the *parent
directory* is fsynced so the rename itself survives power loss (POSIX
only promises the rename is durable once the directory entry is). The
temp file is removed only when the replace did not happen, so a cleanup
racing a successful rename can never unlink a file some concurrent
writer just created at the same temp path.

:func:`atomic_writer` is the one implementation; every durable file in
the project (checkpoints, manifests, run documents, event and
quarantine JSONL) is written through it. Each fsync counts on
``store_fsyncs_total`` of the registry the caller passes (a
:class:`~repro.store.CheckpointStore` passes its own), or of the
process-wide one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterator, Optional, Union

from repro.obs.metrics import get_registry

PathLike = Union[str, Path]

#: Userspace buffer for text-mode writers: large enough that a chunked
#: JSONL write rarely crosses into the OS more than once.
WRITE_BUFFER_BYTES = 1 << 20


def _fsync_counter(metrics: Optional[Any]):
    """The fsync counter of *metrics*, else of the process-wide registry
    (a no-op under the null registry)."""
    registry = metrics if metrics is not None else get_registry()
    return registry.counter(
        "store_fsyncs_total", "fsync calls issued by the durable store"
    )


def fsync_directory(path: PathLike, metrics: Optional[Any] = None) -> None:
    """Flush a directory entry table to stable storage (best effort).

    Some platforms (and some filesystems) refuse ``open`` or ``fsync`` on
    directories; durability is then whatever the OS already gives, and the
    write itself must not fail because of it.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
        _fsync_counter(metrics).inc()
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_writer(
    path: PathLike, text: bool = False, metrics: Optional[Any] = None
) -> Iterator[IO]:
    """A handle whose contents durably replace *path* when the block exits.

    Binary by default; ``text=True`` yields a UTF-8 text handle with a
    1 MiB buffer. If the block raises, *path* is left untouched and the
    temp file is removed. Fsyncs count on *metrics* (default: the
    process-wide registry).
    """
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    replaced = False
    try:
        if text:
            handle = open(
                tmp_path, "w", encoding="utf-8", buffering=WRITE_BUFFER_BYTES
            )
        else:
            handle = open(tmp_path, "wb")
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
            _fsync_counter(metrics).inc()
        os.replace(tmp_path, path)
        replaced = True
        fsync_directory(path.parent, metrics)
    finally:
        if not replaced:
            try:
                tmp_path.unlink()
            except FileNotFoundError:
                pass


def atomic_write_text(
    path: PathLike, text: str, metrics: Optional[Any] = None
) -> None:
    """Write *text* (UTF-8) to *path* atomically and durably."""
    with atomic_writer(path, metrics=metrics) as handle:
        handle.write(text.encode("utf-8"))


__all__ = [
    "WRITE_BUFFER_BYTES",
    "atomic_write_text",
    "atomic_writer",
    "fsync_directory",
]
