"""Serialization of event data sets (JSON Lines) with untrusted-input loading.

A run's observed events can be persisted and reloaded without re-simulating,
the way the real study's event data sets are files decoupled from the
infrastructure that produced them. Saved files are written atomically and
durably (temp file + fsync + rename + parent-directory fsync), and loading
treats the file as *untrusted*: every record is validated against the
:class:`~repro.core.events.AttackEvent` schema, and malformed, duplicate or
out-of-range records are routed to a quarantine (dead-letter) JSONL with a
stable reason code instead of crashing the load. One truncated line in a
two-year feed must cost one record, not the run.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.core.events import (
    AttackEvent,
    EVENT_SCHEMA_VERSION,
    event_from_dict,
    event_to_dict,
    validate_event_dict,
)
from repro.log import get_logger
from repro.obs.metrics import get_registry
from repro.store.atomic import fsync_directory

log = get_logger("datasets")

#: Reason codes produced by the loader itself (the schema validator in
#: :mod:`repro.core.events` produces the field-level ones).
REASON_UNPARSEABLE = "unparseable-json"
REASON_DUPLICATE = "duplicate"

#: Common suffix for dead-letter files, so they are recognisable on disk.
QUARANTINE_SUFFIX = ".quarantine.jsonl"


def quarantine_path_for(
    events_path: Union[str, Path],
    feed: str = "",
    directory: Optional[Union[str, Path]] = None,
) -> Path:
    """Dead-letter path for one feed's load, namespaced per feed.

    Historically the convention was ``<events file>.quarantine.jsonl``;
    when several feeds load files with the same name into one run
    directory, their dead-letter writes collide and the last load's
    atomic replace silently erases the earlier feed's rejected records.
    Passing *feed* yields ``<events file>.<feed>.quarantine.jsonl``, so
    each feed keeps its own file. *directory* overrides the parent (by
    default the quarantine sits next to its events file).
    """
    events_path = Path(events_path)
    base = Path(directory) if directory is not None else events_path.parent
    middle = f".{feed}" if feed else ""
    return base / f"{events_path.name}{middle}{QUARANTINE_SUFFIX}"


def save_events_jsonl(
    events: Iterable[AttackEvent], path: Union[str, Path]
) -> int:
    """Write events as JSON Lines, atomically and durably; returns the count.

    The file is written to a same-directory temp path and moved into place
    with :func:`os.replace`, so an interrupted run (crash, kill, injected
    stage failure) can never leave a truncated data set behind — readers
    see either the previous complete file or the new complete file. After
    the rename the parent directory is fsynced, so the *rename itself*
    survives power loss, and the temp file is only unlinked when the
    replace did not happen (never racing a successful rename against a
    concurrent writer's fresh temp file).
    """
    count = 0
    dumps = json.dumps
    with _atomic_text_writer(path) as handle:
        # Chunked writes: lines are batched and joined so the hot loop
        # performs one handle.write per WRITE_CHUNK_LINES events instead
        # of one per event. The bytes are identical to the line-at-a-time
        # path (each line still ends in exactly one newline).
        chunk: list = []
        for event in events:
            chunk.append(dumps(event_to_dict(event)))
            count += 1
            if len(chunk) >= WRITE_CHUNK_LINES:
                handle.write("\n".join(chunk) + "\n")
                chunk.clear()
        if chunk:
            handle.write("\n".join(chunk) + "\n")
    log.debug("events saved", path=str(path), events=count)
    return count


#: Lines per buffered write in the chunked JSONL serializers.
WRITE_CHUNK_LINES = 4096

#: Userspace buffer for the atomic text writer: large enough that a
#: chunked write rarely crosses into the OS more than once.
WRITE_BUFFER_BYTES = 1 << 20


@contextmanager
def _atomic_text_writer(path: Union[str, Path]):
    """Same-directory temp file that durably replaces *path* on success."""
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    replaced = False
    try:
        with open(
            tmp_path, "w", encoding="utf-8", buffering=WRITE_BUFFER_BYTES
        ) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        replaced = True
        fsync_directory(path.parent)
    finally:
        if not replaced:
            try:
                tmp_path.unlink()
            except FileNotFoundError:
                pass


# -- validated loading --------------------------------------------------------


@dataclass(frozen=True)
class QuarantinedRecord:
    """One rejected input line and why it was rejected."""

    line_no: int
    reason: str
    raw: str

    def to_dict(self) -> dict:
        return {
            "line_no": self.line_no,
            "reason": self.reason,
            "raw": self.raw,
            "schema_version": EVENT_SCHEMA_VERSION,
        }


@dataclass
class FeedLoadReport:
    """Data-quality accounting for one validated JSONL load."""

    path: str
    loaded: int = 0
    quarantined: List[QuarantinedRecord] = field(default_factory=list)
    quarantine_path: Optional[str] = None
    #: Which feed the file belongs to ("telescope", "honeypot", ...);
    #: namespaces the dead-letter file and keys per-feed counts in the
    #: data-quality report. Empty for ad-hoc loads.
    feed: str = ""

    @property
    def rejected(self) -> int:
        return len(self.quarantined)

    @property
    def duplicates(self) -> int:
        return sum(
            1 for r in self.quarantined if r.reason == REASON_DUPLICATE
        )

    def reason_counts(self) -> Dict[str, int]:
        """Stable ``reason code -> count`` map (sorted by reason)."""
        counts: Dict[str, int] = {}
        for record in self.quarantined:
            counts[record.reason] = counts.get(record.reason, 0) + 1
        return dict(sorted(counts.items()))

    def describe(self) -> str:
        parts = [f"{self.loaded} loaded", f"{self.rejected} quarantined"]
        reasons = self.reason_counts()
        if reasons:
            parts.append(
                ", ".join(f"{reason}×{n}" for reason, n in reasons.items())
            )
        return "; ".join(parts)


class MalformedRecordError(ValueError):
    """Strict-mode load hit a record the schema rejects."""

    def __init__(self, path: str, record: QuarantinedRecord) -> None:
        super().__init__(
            f"{path}:{record.line_no}: {record.reason}"
        )
        self.path = path
        self.record = record


def read_events_jsonl(
    path: Union[str, Path],
    strict: bool = False,
    quarantine_path: Optional[Union[str, Path]] = None,
    feed: str = "",
) -> Tuple[List[AttackEvent], FeedLoadReport]:
    """Read a JSONL event feed, validating every record.

    Tolerant mode (default) skips-and-counts bad records; strict mode
    raises :class:`MalformedRecordError` on the first one (the historical
    behaviour, for pipelines that prefer to stop on corrupt input). When
    *quarantine_path* is given, rejected records are written there as a
    dead-letter JSONL (one object per record with ``line_no``, ``reason``
    and the raw line) — only created when something was rejected. *feed*
    names the feed the file belongs to: it tags the report (for per-feed
    accounting in the quality report) and, when no explicit
    *quarantine_path* was given, selects the collision-free default
    dead-letter path from :func:`quarantine_path_for`.
    """
    path = Path(path)
    if quarantine_path is None and feed:
        quarantine_path = quarantine_path_for(path, feed)
    report = FeedLoadReport(path=str(path), feed=feed)
    events: List[AttackEvent] = []
    seen: Set[AttackEvent] = set()
    # errors="replace": a corrupt byte must surface as an unparseable
    # *record* (quarantined with a reason), not kill the whole read with
    # a UnicodeDecodeError halfway through the file.
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            reason: Optional[str] = None
            event: Optional[AttackEvent] = None
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                reason = REASON_UNPARSEABLE
            else:
                reason = validate_event_dict(data)
                if reason is None:
                    event = event_from_dict(data)
                    if event in seen:
                        reason, event = REASON_DUPLICATE, None
            if reason is not None:
                rejected = QuarantinedRecord(line_no, reason, line)
                if strict:
                    raise MalformedRecordError(str(path), rejected)
                report.quarantined.append(rejected)
                continue
            seen.add(event)
            events.append(event)
    report.loaded = len(events)
    if report.quarantined:
        dropped = get_registry().counter(
            "records_quarantined_total",
            "records routed to the dead-letter file",
            ("feed", "reason"),
        )
        feed_label = feed or "unknown"
        for reason, count in report.reason_counts().items():
            dropped.inc(count, feed=feed_label, reason=reason)
    if quarantine_path is not None and report.quarantined:
        report.quarantine_path = str(quarantine_path)
        write_quarantine_jsonl(report.quarantined, quarantine_path)
    if report.rejected:
        log.warning(
            "records quarantined",
            path=str(path),
            loaded=report.loaded,
            rejected=report.rejected,
            reasons=",".join(
                f"{r}×{n}" for r, n in report.reason_counts().items()
            ),
        )
    else:
        log.debug("events loaded", path=str(path), events=report.loaded)
    return events, report


def load_events_jsonl(
    path: Union[str, Path],
    strict: bool = False,
    quarantine_path: Optional[Union[str, Path]] = None,
    feed: str = "",
) -> List[AttackEvent]:
    """Read events back from a JSON Lines file (validated, tolerant).

    Convenience wrapper over :func:`read_events_jsonl` for callers that
    only want the events; pass ``strict=True`` to crash on the first bad
    record instead of quarantining it.
    """
    events, _report = read_events_jsonl(
        path, strict=strict, quarantine_path=quarantine_path, feed=feed
    )
    return events


def write_quarantine_jsonl(
    records: Iterable[QuarantinedRecord], path: Union[str, Path]
) -> int:
    """Write rejected records as a dead-letter JSONL file (atomically)."""
    count = 0
    dumps = json.dumps
    with _atomic_text_writer(path) as handle:
        chunk: list = []
        for record in records:
            chunk.append(dumps(record.to_dict(), sort_keys=True))
            count += 1
            if len(chunk) >= WRITE_CHUNK_LINES:
                handle.write("\n".join(chunk) + "\n")
                chunk.clear()
        if chunk:
            handle.write("\n".join(chunk) + "\n")
    return count


__all__ = [
    "QUARANTINE_SUFFIX",
    "REASON_DUPLICATE",
    "REASON_UNPARSEABLE",
    "FeedLoadReport",
    "quarantine_path_for",
    "MalformedRecordError",
    "QuarantinedRecord",
    "event_from_dict",
    "event_to_dict",
    "load_events_jsonl",
    "read_events_jsonl",
    "save_events_jsonl",
    "write_quarantine_jsonl",
]
