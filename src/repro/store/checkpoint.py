"""Durable per-stage checkpoints with tamper-evident manifests.

A :class:`CheckpointStore` lives inside a *run directory* and persists
each completed pipeline stage's output so a killed process can be
resumed by a fresh one (``python -m repro resume <run_dir>``). Layout::

    <run_dir>/
        meta.json                  # how the run was started (CLI resume)
        state.json                 # injector counters etc. (runner-owned)
        checkpoints/
            <stage>.pkl            # stage payload (pickle)
            <stage>.manifest.json  # stage, schema, codec, bytes, sha256

The same store, opened on another directory, holds the serve node's
rolling snapshots and the cross-run stage cache (``--stage-cache DIR``:
entries ``DIR/checkpoints/<stage>-<fingerprint>``, where the name is
the identity).

Every file is written with the atomic temp-file + rename + directory
fsync pattern from :mod:`repro.store.atomic`, and the manifest is written
*after* its payload — a manifest on disk therefore implies a complete
payload. Loads verify the manifest's schema version, byte count and
SHA-256 checksum before unpickling, and that the manifest names the
stage it was loaded under, so corruption and version skew are
detected at the store boundary, not three stages downstream:

* wrong/absent manifest        -> :class:`CheckpointMissingError`
* schema version/codec skew    -> :class:`CheckpointVersionError`
* size/checksum/unpickle fail,
  or a manifest naming another
  stage (a renamed pair)       -> :class:`CheckpointCorruptionError`

:meth:`CheckpointStore.load_valid_graph` implements the resume policy:
walk the stage order and restore each checkpoint that validates and
whose dependencies were restored. An invalid checkpoint is discarded,
and so is every checkpoint that depends on it, directly or not (it was
computed from data we can no longer trust); independent siblings are
kept.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.log import get_logger
from repro.obs.metrics import get_registry
from repro.store.atomic import atomic_write_bytes, atomic_write_text

log = get_logger("store")

#: Bump when the checkpoint payload encoding changes incompatibly.
STORE_SCHEMA_VERSION = 1

#: Record count for payloads without a length.
UNSIZED = -1

#: The payload encoding every manifest names. A manifest without a
#: codec field predates it and means the same; any other codec was
#: written by a build this one cannot read.
CHECKPOINT_CODEC = "pickle"


class CheckpointError(RuntimeError):
    """Base class for checkpoint load failures."""

    #: The load result it counts as, and its :class:`CheckpointIssue` kind.
    kind = "missing"

    def __init__(self, stage: str, reason: str) -> None:
        super().__init__(f"checkpoint {stage!r}: {reason}")
        self.stage = stage
        self.reason = reason


class CheckpointMissingError(CheckpointError):
    """No (complete) checkpoint for the stage."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint was written by an incompatible store version."""

    kind = "version"


class CheckpointCorruptionError(CheckpointError):
    """The payload does not match its manifest, or the manifest names
    another stage."""

    kind = "corrupt"


@dataclass(frozen=True)
class CheckpointManifest:
    """What must hold for a checkpoint payload to be trusted."""

    stage: str
    schema_version: int
    payload_bytes: int
    sha256: str
    record_count: int = UNSIZED
    created_ts: float = 0.0
    codec: str = CHECKPOINT_CODEC

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CheckpointManifest":
        data = json.loads(text)
        return cls(
            stage=data["stage"],
            schema_version=data["schema_version"],
            payload_bytes=data["payload_bytes"],
            sha256=data["sha256"],
            record_count=data.get("record_count", UNSIZED),
            created_ts=data.get("created_ts", 0.0),
            codec=data.get("codec", CHECKPOINT_CODEC),
        )


@dataclass(frozen=True)
class CheckpointIssue:
    """One checkpoint the resume policy had to throw away."""

    stage: str
    kind: str  # "missing" | "version" | "corrupt" | "orphaned"
    detail: str


class CheckpointStore:
    """Atomic, checksummed stage checkpoints under one run directory."""

    CHECKPOINT_DIR = "checkpoints"

    def __init__(
        self,
        run_dir: Union[str, Path],
        metrics: Optional[Any] = None,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.checkpoint_dir = self.run_dir / self.CHECKPOINT_DIR
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        registry = metrics if metrics is not None else get_registry()
        #: Where this store's counts go, its fsyncs included.
        self._metrics = registry
        self._m_saves = registry.counter(
            "checkpoint_saves_total", "stage checkpoints persisted"
        )
        self._m_bytes = registry.counter(
            "checkpoint_bytes_written_total",
            "checkpoint payload bytes written",
        )
        self._m_loads = registry.counter(
            "checkpoint_loads_total",
            "checkpoint load attempts by result",
            ("result",),
        )

    # -- paths ----------------------------------------------------------------

    def payload_path(self, stage: str) -> Path:
        return self.checkpoint_dir / f"{stage}.pkl"

    def manifest_path(self, stage: str) -> Path:
        return self.checkpoint_dir / f"{stage}.manifest.json"

    # -- writing --------------------------------------------------------------

    def save(self, stage: str, payload: Any) -> CheckpointManifest:
        """Persist one stage output; payload first, manifest second."""
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        manifest = CheckpointManifest(
            stage=stage,
            schema_version=STORE_SCHEMA_VERSION,
            payload_bytes=len(data),
            sha256=hashlib.sha256(data).hexdigest(),
            record_count=_record_count(payload),
            created_ts=time.time(),
        )
        atomic_write_bytes(self.payload_path(stage), data, self._metrics)
        atomic_write_text(
            self.manifest_path(stage), manifest.to_json(), self._metrics
        )
        self._m_saves.inc()
        self._m_bytes.inc(len(data))
        log.debug(
            "checkpoint saved",
            stage=stage,
            bytes=manifest.payload_bytes,
            records=manifest.record_count,
            sha256=manifest.sha256[:12],
        )
        return manifest

    # -- reading --------------------------------------------------------------

    def has(self, stage: str) -> bool:
        return self.manifest_path(stage).exists()

    def manifest(self, stage: str) -> CheckpointManifest:
        path = self.manifest_path(stage)
        if not path.exists():
            raise CheckpointMissingError(stage, "no manifest on disk")
        try:
            return CheckpointManifest.from_json(
                path.read_text(encoding="utf-8")
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise CheckpointCorruptionError(
                stage, f"unreadable manifest: {exc}"
            ) from exc

    def load(self, stage: str) -> Any:
        """Verified load: version, size and checksum checked before unpickle."""
        try:
            payload = self._load_verified(stage)
        except CheckpointError as exc:
            self._m_loads.inc(result=exc.kind)
            raise
        self._m_loads.inc(result="ok")
        return payload

    def _load_verified(self, stage: str) -> Any:
        manifest = self.manifest(stage)
        if manifest.stage != stage:
            # A pair copied or renamed from another name: its payload
            # is some other stage's output.
            raise CheckpointCorruptionError(
                stage, f"manifest names stage {manifest.stage!r}"
            )
        if manifest.schema_version != STORE_SCHEMA_VERSION:
            raise CheckpointVersionError(
                stage,
                f"store schema v{manifest.schema_version}, "
                f"this build reads v{STORE_SCHEMA_VERSION}",
            )
        if manifest.codec != CHECKPOINT_CODEC:
            raise CheckpointVersionError(
                stage,
                f"payload codec {manifest.codec!r} unknown to this build "
                f"(reads {CHECKPOINT_CODEC!r})",
            )
        payload_path = self.payload_path(stage)
        if not payload_path.exists():
            raise CheckpointMissingError(stage, "manifest without payload")
        data = payload_path.read_bytes()
        if len(data) != manifest.payload_bytes:
            raise CheckpointCorruptionError(
                stage,
                f"payload is {len(data)} bytes, "
                f"manifest promises {manifest.payload_bytes}",
            )
        digest = hashlib.sha256(data).hexdigest()
        if digest != manifest.sha256:
            raise CheckpointCorruptionError(
                stage,
                f"checksum mismatch ({digest[:12]}.. != "
                f"{manifest.sha256[:12]}..)",
            )
        try:
            return pickle.loads(data)
        except Exception as exc:  # corrupt-but-right-checksum can't happen;
            # this guards a manifest forged around a broken payload.
            raise CheckpointCorruptionError(
                stage, f"payload does not decode: {exc}"
            ) from exc

    def discard(self, stage: str) -> None:
        """Drop a checkpoint (manifest first, so no orphan manifests)."""
        for path in (self.manifest_path(stage), self.payload_path(stage)):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def stages(self) -> List[str]:
        """Stage names with a manifest on disk (unordered set, sorted)."""
        return sorted(
            path.name[: -len(".manifest.json")]
            for path in self.checkpoint_dir.glob("*.manifest.json")
        )

    def load_valid_graph(
        self, order: Sequence[str], deps: Dict[str, Sequence[str]]
    ) -> Tuple[Dict[str, Any], List[CheckpointIssue]]:
        """Restore every checkpoint whose dependencies were restored.

        Returns ``(payloads, issues)``. *deps* names each stage's actual
        data dependencies, so a missing or corrupt checkpoint costs only
        the stages that read it, not later, independent siblings. A stage
        is restored when its own checkpoint validates and every
        dependency was restored; otherwise it is discarded (its inputs
        can no longer be trusted), and the discard cascades to
        dependents naturally.

        Names on disk that are not in *order* are left untouched — their
        lifecycle belongs to the caller.
        """
        payloads: Dict[str, Any] = {}
        issues: List[CheckpointIssue] = []
        for stage in order:
            missing_deps = [
                dep for dep in deps.get(stage, ()) if dep not in payloads
            ]
            if missing_deps:
                if self.has(stage):
                    issues.append(
                        CheckpointIssue(
                            stage,
                            "orphaned",
                            "discarded: depends on invalid or missing "
                            + ", ".join(missing_deps),
                        )
                    )
                    self.discard(stage)
                continue
            if not self.has(stage):
                continue
            try:
                payloads[stage] = self.load(stage)
            except CheckpointError as exc:
                issues.append(CheckpointIssue(stage, exc.kind, exc.reason))
                log.warning(
                    "checkpoint rejected", stage=stage, kind=exc.kind,
                    reason=exc.reason,
                )
                self.discard(stage)
        if payloads:
            log.info(
                "checkpoints restored",
                stages=",".join(payloads),
                rejected=len(issues),
            )
        return payloads, issues

    # -- run-level JSON documents --------------------------------------------

    def write_json(self, name: str, payload: Dict[str, Any]) -> None:
        atomic_write_text(
            self.run_dir / name,
            json.dumps(payload, sort_keys=True, indent=2),
            self._metrics,
        )

    def read_json(self, name: str) -> Optional[Dict[str, Any]]:
        """A JSON object from the run dir: ``None`` when the file is
        missing, is not UTF-8 JSON or holds something other than an
        object."""
        path = self.run_dir / name
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return data if isinstance(data, dict) else None


def _record_count(payload: Any) -> int:
    """A best-effort record count for the manifest (tuples count parts)."""
    if isinstance(payload, tuple):
        total = 0
        for part in payload:
            try:
                total += len(part)
            except TypeError:
                return UNSIZED
        return total
    try:
        return len(payload)
    except TypeError:
        return UNSIZED


__all__ = [
    "CHECKPOINT_CODEC",
    "STORE_SCHEMA_VERSION",
    "UNSIZED",
    "CheckpointError",
    "CheckpointMissingError",
    "CheckpointVersionError",
    "CheckpointCorruptionError",
    "CheckpointManifest",
    "CheckpointIssue",
    "CheckpointStore",
]
