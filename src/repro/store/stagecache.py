"""Content-addressed cross-run stage cache.

Checkpoints (:mod:`repro.store.checkpoint`) make one *run directory*
resumable; they are keyed by stage name alone and die with the run. The
:class:`StageCache` is the cross-run complement: a directory — usually
shared by many runs — of stage outputs keyed by a **fingerprint** of
everything the output is a function of:

* the full scenario config (every field),
* the stage name, and
* the store / cache schema versions.

Because every pipeline stage is deterministic given those inputs (the
property the crash-recovery drills already pin down), a fingerprint match
means the cached payload is byte-identical to what a recompute would
produce — so a warm re-run can skip the observation stages entirely.
The cache is only consulted for fault-free plans
(:meth:`repro.faults.plan.FaultPlan.is_benign`): an injected fault makes
the output a function of the fault plan too, and such runs bypass the
cache in both directions.

Entries are written with the same atomic payload-then-manifest discipline
as checkpoints. A load verifies the manifest's *full* fingerprint (the
filename only carries a prefix), schema version, byte count and SHA-256
before unpickling; any mismatch — stale schema, truncated payload,
poisoned bytes, fingerprint collision on the prefix — demotes the entry
to a miss rather than an error, because the cache is an optimization and
recompute is always correct.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Any, List, Optional, Tuple, Union

from repro.log import get_logger
from repro.obs.metrics import get_registry
from repro.store.atomic import atomic_write_bytes, atomic_write_text
from repro.store.checkpoint import STORE_SCHEMA_VERSION

log = get_logger("stagecache")

#: Bump when the cache entry layout changes, or when the same scenario
#: starts producing different payloads (v2: per-attack random streams).
STAGE_CACHE_SCHEMA = 2

#: How many fingerprint hex digits go into the entry filename. The full
#: fingerprint is still verified from the manifest at load time.
FINGERPRINT_PREFIX = 16

#: Sentinel distinguishing "miss" from a cached ``None`` payload.
CACHE_MISS = object()


def stage_fingerprint(config: Any, stage: str) -> str:
    """SHA-256 identity of one stage output.

    The fingerprint covers the scenario config (every dataclass field),
    the stage name, and the schema versions of the store and the cache —
    any change to any of them must miss the cache.
    Canonical JSON (sorted keys, no whitespace variance) keeps the
    digest stable across processes.
    """
    document = {
        "scenario": asdict(config) if is_dataclass(config) else dict(config),
        "stage": stage,
        "store_schema": STORE_SCHEMA_VERSION,
        "cache_schema": STAGE_CACHE_SCHEMA,
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class StageCacheManifest:
    """What must hold for a cache entry to be served."""

    stage: str
    fingerprint: str
    schema_version: int
    payload_bytes: int
    sha256: str
    created_ts: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "StageCacheManifest":
        data = json.loads(text)
        return cls(
            stage=data["stage"],
            fingerprint=data["fingerprint"],
            schema_version=data["schema_version"],
            payload_bytes=data["payload_bytes"],
            sha256=data["sha256"],
            created_ts=data.get("created_ts", 0.0),
        )


class StageCache:
    """Fingerprint-keyed stage outputs shared across runs.

    ``get`` returns :data:`CACHE_MISS` on any problem — absent entry,
    fingerprint mismatch, schema skew, size/checksum failure, unpicklable
    payload — and the caller recomputes. ``put`` overwrites atomically,
    so concurrent writers of the same fingerprint converge on identical
    bytes.
    """

    def __init__(
        self, cache_dir: Union[str, Path], metrics: Optional[Any] = None
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        registry = metrics if metrics is not None else get_registry()
        self._m_hits = registry.counter(
            "stage_cache_hits_total",
            "stage outputs served from the cross-run cache",
            ("stage",),
        )
        self._m_misses = registry.counter(
            "stage_cache_misses_total",
            "stage cache lookups that fell through to compute",
            ("stage",),
        )
        self._m_bytes_read = registry.counter(
            "stage_cache_bytes_read_total",
            "payload bytes served from the stage cache",
        )
        self._m_bytes_written = registry.counter(
            "stage_cache_bytes_written_total",
            "payload bytes written into the stage cache",
        )

    # -- paths ----------------------------------------------------------------

    def _stem(self, stage: str, fingerprint: str) -> str:
        return f"{stage}.{fingerprint[:FINGERPRINT_PREFIX]}"

    def payload_path(self, stage: str, fingerprint: str) -> Path:
        return self.cache_dir / f"{self._stem(stage, fingerprint)}.pkl"

    def manifest_path(self, stage: str, fingerprint: str) -> Path:
        return self.cache_dir / (
            f"{self._stem(stage, fingerprint)}.manifest.json"
        )

    # -- access ---------------------------------------------------------------

    def get(self, stage: str, fingerprint: str) -> Any:
        """Verified lookup; :data:`CACHE_MISS` unless everything checks."""
        payload = self._load_verified(stage, fingerprint)
        if payload is CACHE_MISS:
            self._m_misses.inc(stage=stage)
        else:
            self._m_hits.inc(stage=stage)
        return payload

    def _load_verified(self, stage: str, fingerprint: str) -> Any:
        manifest_path = self.manifest_path(stage, fingerprint)
        if not manifest_path.exists():
            return CACHE_MISS
        try:
            manifest = StageCacheManifest.from_json(
                manifest_path.read_text(encoding="utf-8")
            )
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            log.warning(
                "cache entry rejected: unreadable manifest",
                stage=stage, error=str(exc),
            )
            return CACHE_MISS
        if manifest.schema_version != STAGE_CACHE_SCHEMA:
            log.warning(
                "cache entry rejected: schema skew",
                stage=stage, entry_schema=manifest.schema_version,
            )
            return CACHE_MISS
        if manifest.fingerprint != fingerprint:
            # The filename only carries a prefix; a different full
            # fingerprint means the entry belongs to another scenario
            # (or was poisoned) and must not be served.
            log.warning(
                "cache entry rejected: fingerprint mismatch",
                stage=stage,
                expected=fingerprint[:12],
                found=manifest.fingerprint[:12],
            )
            return CACHE_MISS
        payload_path = self.payload_path(stage, fingerprint)
        if not payload_path.exists():
            return CACHE_MISS
        data = payload_path.read_bytes()
        if len(data) != manifest.payload_bytes:
            log.warning(
                "cache entry rejected: size mismatch",
                stage=stage, bytes=len(data),
                expected=manifest.payload_bytes,
            )
            return CACHE_MISS
        if hashlib.sha256(data).hexdigest() != manifest.sha256:
            log.warning(
                "cache entry rejected: checksum mismatch", stage=stage
            )
            return CACHE_MISS
        try:
            payload = pickle.loads(data)
        except Exception as exc:  # matching checksum but broken payload
            # means the manifest was forged around it; still just a miss.
            log.warning(
                "cache entry rejected: does not unpickle",
                stage=stage, error=str(exc),
            )
            return CACHE_MISS
        self._m_bytes_read.inc(len(data))
        log.info(
            "stage served from cache",
            stage=stage, bytes=len(data), fingerprint=fingerprint[:12],
        )
        return payload

    def put(self, stage: str, fingerprint: str, payload: Any) -> None:
        """Store one stage output (payload first, manifest second)."""
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        manifest = StageCacheManifest(
            stage=stage,
            fingerprint=fingerprint,
            schema_version=STAGE_CACHE_SCHEMA,
            payload_bytes=len(data),
            sha256=hashlib.sha256(data).hexdigest(),
            created_ts=time.time(),
        )
        atomic_write_bytes(self.payload_path(stage, fingerprint), data)
        atomic_write_text(
            self.manifest_path(stage, fingerprint), manifest.to_json()
        )
        self._m_bytes_written.inc(len(data))
        log.debug(
            "stage cached",
            stage=stage, bytes=len(data), fingerprint=fingerprint[:12],
        )

    def entries(self) -> List[Tuple[str, str]]:
        """``(stage, fingerprint-prefix)`` pairs present in the cache."""
        pairs = []
        for path in sorted(self.cache_dir.glob("*.manifest.json")):
            stem = path.name[: -len(".manifest.json")]
            stage, _, prefix = stem.rpartition(".")
            if stage and prefix:
                pairs.append((stage, prefix))
        return pairs


__all__ = [
    "CACHE_MISS",
    "FINGERPRINT_PREFIX",
    "STAGE_CACHE_SCHEMA",
    "StageCache",
    "StageCacheManifest",
    "stage_fingerprint",
]
