"""Durable run store: crash-safe checkpoints and atomic file primitives.

See :mod:`repro.store.checkpoint` for the per-stage checkpoint store the
resilient runner persists completed stages into, and
:mod:`repro.store.atomic` for the write-temp/fsync/rename/fsync-dir
pattern everything in the store (and the JSONL event serializer) uses.
"""

from repro.store.atomic import (
    atomic_write_bytes,
    atomic_write_text,
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
from repro.store.stagecache import (
    CACHE_MISS,
    STAGE_CACHE_SCHEMA,
    StageCache,
    StageCacheManifest,
    stage_fingerprint,
)

__all__ = [
    "CACHE_MISS",
    "CHECKPOINT_CODEC",
    "STAGE_CACHE_SCHEMA",
    "STORE_SCHEMA_VERSION",
    "StageCache",
    "StageCacheManifest",
    "stage_fingerprint",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointIssue",
    "CheckpointManifest",
    "CheckpointMissingError",
    "CheckpointStore",
    "CheckpointVersionError",
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_directory",
]
