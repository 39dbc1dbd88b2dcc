"""Durable run store: crash-safe checkpoints and atomic file primitives.

:mod:`repro.store.checkpoint` is the one manifest-verified pickle store:
a :class:`CheckpointStore` holds the resumable stage checkpoints of a
run directory, the serve node's rolling snapshots, and the cross-run
stage cache (entries named ``<stage>-<fingerprint>``, see
:func:`repro.pipeline.runner.stage_fingerprint`).
:mod:`repro.store.atomic` is the one write-temp/fsync/rename/fsync-dir
implementation; every durable file (checkpoints, manifests, run
documents, event and quarantine JSONL) is written through it.
"""

from repro.store.atomic import (
    atomic_write_text,
    atomic_writer,
    fsync_directory,
)
from repro.store.checkpoint import (
    CHECKPOINT_CODEC,
    STORE_SCHEMA_VERSION,
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointIssue,
    CheckpointManifest,
    CheckpointMissingError,
    CheckpointStore,
    CheckpointVersionError,
)

__all__ = [
    "CHECKPOINT_CODEC",
    "STORE_SCHEMA_VERSION",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointIssue",
    "CheckpointManifest",
    "CheckpointMissingError",
    "CheckpointStore",
    "CheckpointVersionError",
    "atomic_write_text",
    "atomic_writer",
    "fsync_directory",
]
