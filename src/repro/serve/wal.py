"""Append-only write-ahead log of accepted ingest records.

Durability contract: an event is acknowledged to the client (HTTP 202)
only after its WAL line is fsynced. The service appends a batch's lines
and commits them with one :meth:`WriteAheadLog.flush` before it answers,
so neither a ``kill -9`` nor a power cut loses anything acknowledged,
and recovery is snapshot-load + replay of the WAL tail.

:meth:`WriteAheadLog.append` only buffers a line in memory. The commit
is the log's only write: it hands the whole batch to the disk in one
write, then fsyncs it. A commit that fails cuts the segment back to the
previous commit, so no line the caller did not ack survives to shadow a
later record reusing its sequence.

Layout: one directory of segment files, ``wal-<first_seq>.jsonl``. A
segment is named after the first sequence number it may contain; the
service rotates to a fresh segment at every snapshot, so pruning is
"delete every segment whose successor starts at or below the snapshot
sequence" — no rewrite, no read-modify-write, nothing to corrupt.

Records are one JSON object per line, keys sorted, no spaces::

    {"kind":"attack","record":{...},"seq":17}
    {"kind":"shed","record":{"feed":"telescope","seqs":[18,19]},"seq":42}

A line is built by splicing the record's canonical JSON text
(:func:`canonical_json`) into that frame, so the bytes equal
``json.dumps(line, sort_keys=True, separators=(",", ":"))`` while a
record the service already encoded at intake is not encoded again.

``shed`` tombstones make load shedding itself durable: when admission
drops already-logged events (drop-oldest overflow), the drop decision is
appended too, so replay skips exactly what the live process never
applied — recovery stays value-identical even across an overload burst.

Replay is tolerant of a torn tail: a crash mid-write leaves at most one
unparseable final line per segment, which is discarded (and counted) —
it was never acknowledged, so discarding it is correct, not lossy.

Because sequence assignment and the append happen under one lock, WAL
*byte order is sequence order* — which is what makes the log shippable:
a follower that copies segment bytes in order and replays them lands on
the same state. :meth:`WriteAheadLog.segment_sizes` and
:meth:`WriteAheadLog.read_chunk` are the primary-side streaming
primitives (:mod:`repro.serve.replication` pulls through them), and
``replay(upto_seq=...)`` is the truncated-replay oracle failover drills
compare a promoted follower against.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.log import get_logger
from repro.obs.metrics import get_registry
from repro.serve.disk import LocalDisk

log = get_logger("serve.wal")

#: Segment file naming: wal-<12-digit first seq>.jsonl
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".jsonl"

#: Record kinds the log carries.
KIND_ATTACK = "attack"
KIND_DPS = "dps"
KIND_SHED = "shed"

WAL_KINDS = (KIND_ATTACK, KIND_DPS, KIND_SHED)

#: ``serve_wal_fsync_seconds`` and ``serve_wal_prune_seconds`` buckets:
#: an idle-disk fsync takes a fraction of a millisecond, one queued
#: behind a snapshot save ~100 ms.
FSYNC_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0,
)

#: ``serve_wal_write_seconds`` buckets: a 64-record batch's write into
#: the page cache takes tens of microseconds.
WRITE_BUCKETS = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
    0.005, 0.01, 0.025, 0.05, 0.1,
)

#: The serve process's one canonical JSON encoder: keys sorted, no
#: spaces, ASCII only (``json.dumps(..., sort_keys=True,
#: separators=(",", ":"))``). One instance serves every thread; an
#: encode call keeps no state on it.
canonical_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":")
).encode


def wal_line(seq: int, kind: str, text: str,
             trace: Optional[str] = None) -> str:
    """One WAL line around a record's canonical JSON *text*.

    Equal to the canonical JSON of ``{"seq", "kind", "record"[, "trace"]}``
    plus a newline: the keys are spliced in sorted order, and *kind* is
    one of :data:`WAL_KINDS`, which need no escaping.
    """
    if trace is None:
        return f'{{"kind":"{kind}","record":{text},"seq":{seq:d}}}\n'
    return (
        f'{{"kind":"{kind}","record":{text},"seq":{seq:d},'
        f'"trace":{canonical_json(trace)}}}\n'
    )


def segment_name(first_seq: int) -> str:
    return f"{SEGMENT_PREFIX}{first_seq:012d}{SEGMENT_SUFFIX}"


def segment_first_seq(name: str) -> Optional[int]:
    """The first-seq a segment file name encodes, or None for other files."""
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    middle = name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    if not middle.isdigit():
        return None
    return int(middle)


@dataclass(frozen=True)
class WalRecord:
    """One replayed WAL entry."""

    seq: int
    kind: str
    record: dict
    #: Request trace ID riding along with the record (None: untraced).
    #: Optional and ignored by recovery semantics — it exists so a
    #: follower applying shipped bytes can attribute the apply back to
    #: the client request that produced the write.
    trace: Optional[str] = None


@dataclass
class ReplayReport:
    """What a replay pass saw: applied, skipped and discarded lines."""

    records: int = 0
    shed_seqs: int = 0
    torn_lines: int = 0
    segments: int = 0
    #: Lines whose ``seq`` was already yielded by an earlier line. Byte
    #: order is normally sequence order, but a repair-tail + replication
    #: refetch race (or a copied-around data dir) can leave the same
    #: sequence on disk twice; replay keeps the first copy and counts
    #: the rest here instead of applying them twice.
    duplicate_seqs: int = 0


class WriteAheadLog:
    """Segmented JSONL write-ahead log, committed batch by batch.

    Lines reach the segment file only in a commit (:meth:`flush`, or the
    commit that closing or rotating a segment makes). Not thread-safe by
    itself: the service serializes appends and commits under its
    admission lock, which also makes WAL order the apply order.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        metrics=None,
        disk=None,
    ) -> None:
        self.directory = Path(directory)
        self.disk = disk if disk is not None else LocalDisk()
        self.disk.mkdir(self.directory)
        self._handle = None
        self._current_path: Optional[Path] = None
        # Bytes in the current segment as of the last commit.
        self._size = 0
        # Lines appended since the last commit, and how many per kind.
        self._pending: List[str] = []
        self._pending_kinds: Dict[str, int] = {}
        registry = metrics if metrics is not None else get_registry()
        self._m_appends = registry.counter(
            "serve_wal_appends_total", "WAL records appended", ("kind",)
        )
        self._m_bytes = registry.counter(
            "serve_wal_bytes_total", "WAL bytes written"
        )
        self._m_write_seconds = registry.histogram(
            "serve_wal_write_seconds", "WAL commit write wall time",
            buckets=WRITE_BUCKETS,
        )
        self._m_fsyncs = registry.counter(
            "serve_wal_fsyncs_total", "WAL fsync calls"
        )
        self._m_fsync_seconds = registry.histogram(
            "serve_wal_fsync_seconds", "WAL fsync wall time",
            buckets=FSYNC_BUCKETS,
        )
        self._m_prune_seconds = registry.histogram(
            "serve_wal_prune_seconds", "WAL segment prune wall time",
            buckets=FSYNC_BUCKETS,
        )

    # -- segments -------------------------------------------------------------

    def segments(self) -> List[Path]:
        """Segment files on disk, in first-seq order."""
        found = []
        for name in self.disk.listdir(self.directory):
            first = segment_first_seq(name)
            if first is not None:
                found.append((first, self.directory / name))
        return [path for _first, path in sorted(found)]

    def oldest_seq(self) -> Optional[int]:
        """First-seq of the oldest segment on disk (None: empty log).

        Everything below this may have been pruned away; a follower whose
        cursor sits under it cannot catch up from the WAL alone and must
        bootstrap from a snapshot instead.
        """
        segments = self.segments()
        if not segments:
            return None
        return segment_first_seq(segments[0].name)

    def segment_sizes(self) -> List[Tuple[int, int]]:
        """``(first_seq, byte_size)`` per segment, in first-seq order.

        The service reads them between batch commits, and bytes reach a
        segment only in a commit, so a byte range below a reported size
        is fsynced and stable: re-reading it always yields the same
        bytes. A segment vanishing between
        listing and stat (pruned concurrently) is simply omitted — the
        follower notices via :meth:`oldest_seq` on its next status poll.
        """
        sizes: List[Tuple[int, int]] = []
        for path in self.segments():
            first = segment_first_seq(path.name)
            if first is None:  # pragma: no cover - segments() filtered
                continue
            try:
                sizes.append((first, self.disk.size(path)))
            except OSError:
                continue
        return sizes

    def read_chunk(
        self, first_seq: int, offset: int, max_bytes: int = 1 << 20
    ) -> Optional[bytes]:
        """Raw bytes of one segment from *offset* (None: no such segment).

        The replication fetch path: followers pull segment bytes in
        order and append them to their own log. The read may end
        mid-line when it races a concurrent commit — the shipper buffers
        the partial tail until the rest arrives, so chunk boundaries
        need no alignment.
        """
        if offset < 0 or max_bytes < 1:
            raise ValueError("offset must be >= 0 and max_bytes >= 1")
        path = self.directory / segment_name(first_seq)
        return self.disk.read_chunk(path, offset, max_bytes)

    def open_segment(self, first_seq: int) -> None:
        """Start appending to the segment that begins at *first_seq*.

        Appending to an existing segment continues it (the recovery path
        re-opens the tail segment rather than abandoning it). Lines still
        pending are committed to the segment being closed first.
        """
        self._close_handle()
        self._current_path = self.directory / segment_name(first_seq)
        self._handle = self.disk.open_append(self._current_path)
        self._size = self.disk.size(self._current_path)

    def rotate(self, next_seq: int) -> None:
        """Close the current segment and open a fresh one at *next_seq*.

        Called right after a snapshot: records at and above *next_seq*
        land in the new segment, so every older segment holds only
        sequences the snapshot already covers once the applier catches up.
        """
        self.open_segment(next_seq)

    def reset(self, first_seq: int) -> None:
        """Drop every segment and start a fresh one at *first_seq*.

        The bootstrap path: a follower that took a snapshot at
        ``first_seq - 1`` keeps no log from before it.
        """
        self.close()
        for path in self.segments():
            try:
                self.disk.unlink(path)
            except FileNotFoundError:
                pass
        self.open_segment(first_seq)

    def prune(self, upto_seq: int) -> int:
        """Delete segments fully covered by a snapshot at *upto_seq*.

        A segment is removable when it is not the current one and the
        *next* segment starts at or below ``upto_seq + 1`` — i.e. every
        record it can contain has ``seq <= upto_seq``.
        """
        started = time.perf_counter()
        removed = 0
        segments = self.segments()
        for index, path in enumerate(segments):
            if path == self._current_path:
                continue
            if index + 1 >= len(segments):
                # The newest segment is never pruned, current or not: a
                # rotation racing this scan could otherwise delete the
                # segment the rotated-to handle is about to continue.
                continue
            next_first = segment_first_seq(segments[index + 1].name)
            if next_first is not None and next_first <= upto_seq + 1:
                try:
                    self.disk.unlink(path)
                    removed += 1
                except FileNotFoundError:
                    pass
        self._m_prune_seconds.observe(time.perf_counter() - started)
        if removed:
            log.debug("wal segments pruned", removed=removed, upto=upto_seq)
        return removed

    # -- appending ------------------------------------------------------------

    def append(self, seq: int, kind: str, record: dict,
               trace: Optional[str] = None,
               text: Optional[str] = None) -> None:
        """Buffer one record's line; :meth:`flush` writes and commits it.

        *text* is the record's :func:`canonical_json` when the caller
        already encoded it; without it the record is encoded here.
        *trace* optionally tags the line with the request trace ID that
        produced it; untraced lines keep the historical byte format, and
        readers that predate the field ignore the extra key.
        """
        if kind not in WAL_KINDS:
            raise ValueError(f"unknown WAL record kind: {kind!r}")
        if self._handle is None:
            self.open_segment(seq)
        if text is None:
            text = canonical_json(record)
        self._pending.append(wal_line(seq, kind, text, trace))
        self._pending_kinds[kind] = self._pending_kinds.get(kind, 0) + 1

    def flush(self) -> None:
        """Commit: write every line appended since the last commit in
        one write, then fsync it.

        A failed write (ENOSPC) may have left a *partial* line, and a
        failed fsync leaves lines a power cut could still take back.
        Either way the segment is cut back to the last commit before the
        error propagates, so none of the batch survives: the caller acks
        none of it and may reuse its sequence numbers.
        """
        if not self._pending:
            return
        data = "".join(self._pending).encode("utf-8")
        kinds = self._pending_kinds
        self._pending, self._pending_kinds = [], {}
        try:
            started = time.perf_counter()
            self.disk.append(self._handle, data)
            written = time.perf_counter()
            self._m_write_seconds.observe(written - started)
            for kind, count in kinds.items():
                self._m_appends.inc(count, kind=kind)
            self._m_bytes.inc(len(data))
            self.disk.fsync(self._handle)
            self._m_fsync_seconds.observe(time.perf_counter() - written)
            self._m_fsyncs.inc()
        except OSError:
            self._cut(self._size)
            raise
        self._size += len(data)

    def _cut(self, keep: int) -> None:
        """Close the handle, truncate the segment to *keep* bytes (the
        cut is fsynced) and reopen it for appending."""
        path = self._current_path
        try:
            self.disk.close(self._handle)
        except OSError:  # pragma: no cover - close after a failed write
            pass
        self._handle = None
        self.disk.truncate(path, keep)
        self._handle = self.disk.open_append(path)
        self._size = keep

    def _close_handle(self) -> None:
        if self._handle is not None:
            self.flush()
            self.disk.close(self._handle)
            self._handle = None

    def close(self) -> None:
        self._close_handle()

    # -- repair ---------------------------------------------------------------

    def repair_tail(self, path: Path) -> int:
        """Truncate *path* to the end of its last complete, parseable line.

        A crash mid-append leaves at most one torn final line, which
        replay tolerates — but *continuing* the segment in append mode
        would concatenate the first post-recovery record onto the
        partial line, merging an acknowledged record into an
        unparseable line that poisons the segment tail on the next
        replay. Recovery therefore cuts the torn bytes before reopening
        the segment. Returns bytes removed (0: segment was intact).
        """
        try:
            raw = self.disk.read_bytes(path)
        except OSError:
            return 0
        keep = 0
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline == -1:
                break  # unterminated tail line: torn by definition
            line = raw[offset:newline].strip()
            offset = newline + 1
            if line:
                try:
                    data = json.loads(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    break
                if not _valid_shape(data):
                    break
            keep = offset
        if keep >= len(raw):
            return 0
        self.disk.truncate(path, keep)
        trimmed = len(raw) - keep
        log.warning(
            "wal tail repaired (torn bytes truncated)",
            segment=path.name,
            trimmed_bytes=trimmed,
        )
        return trimmed

    # -- replay ---------------------------------------------------------------

    def _iter_segment(
        self, path: Path, report: ReplayReport
    ) -> Iterator[dict]:
        try:
            raw = self.disk.read_bytes(path)
        except OSError:
            return iter(())
        return parse_segment(raw, report, path.name)

    def replay(
        self, after_seq: int = 0, upto_seq: Optional[int] = None
    ) -> Tuple[List[WalRecord], ReplayReport]:
        """All apply-able records with ``seq > after_seq``, in order.

        Two passes over the parsed lines (:func:`resolve_lines`): the
        first collects ``shed`` tombstones (a drop decision is recorded
        *after* the sequences it drops), the second keeps every record
        that is neither covered by the snapshot nor shed.

        *upto_seq* truncates the replay at a sequence number while the
        shed set is still computed from the **whole** log: a tombstone
        with a sequence above the cut can shed a record below it (the
        drop decision is logged after the records it evicts), and the
        live process never applied that record either. This is the
        oracle failover drills replay a dead primary's log through: the
        state at ``upto_seq`` as the primary itself would have recovered
        it.
        """
        report = ReplayReport()
        segments = self.segments()
        report.segments = len(segments)
        parsed: List[dict] = []
        for path in segments:
            parsed.extend(self._iter_segment(path, report))
        return resolve_lines(parsed, report, after_seq, upto_seq), report

    def max_seq(self) -> int:
        """Highest sequence number present anywhere in the log (0: none)."""
        report = ReplayReport()
        highest = 0
        for path in self.segments():
            for data in self._iter_segment(path, report):
                if data["seq"] > highest:
                    highest = data["seq"]
        return highest


def _valid_shape(data) -> bool:
    return (
        isinstance(data, dict)
        and isinstance(data.get("seq"), int)
        and data.get("kind") in WAL_KINDS
        and isinstance(data.get("record"), dict)
    )


def parse_segment(raw: bytes, report: ReplayReport,
                  name: str = "") -> Iterator[dict]:
    """The lines of one segment's bytes, as dicts, up to the first torn
    one (counted in *report*)."""
    lines = raw.decode("utf-8", errors="replace").splitlines()
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            # A torn line can only be the crash-interrupted tail;
            # anything after it in this segment is untrustworthy.
            report.torn_lines += 1
            if index < len(lines) - 1:
                log.warning(
                    "wal line torn mid-segment; segment tail discarded",
                    segment=name,
                    line=index + 1,
                )
            return
        if not _valid_shape(data):
            report.torn_lines += 1
            return
        yield data


def shed_seqs(parsed: Iterable[dict]) -> set:
    """The sequence numbers the ``shed`` tombstones among *parsed* name."""
    return {
        seq
        for data in parsed if data["kind"] == KIND_SHED
        for seq in data["record"].get("seqs", ())
        if isinstance(seq, int)
    }


def resolve_lines(
    parsed: Iterable[dict], report: ReplayReport, after_seq: int = 0,
    upto_seq: Optional[int] = None,
) -> List[WalRecord]:
    """The apply-able records among *parsed* lines, by seq: those with
    ``after_seq < seq <= upto_seq`` that no ``shed`` tombstone names
    (the shed set is taken from every line), first copy of each seq."""
    parsed = list(parsed)
    shed = shed_seqs(parsed)
    report.shed_seqs = len(shed)
    records: List[WalRecord] = []
    seen: set = set()
    for data in parsed:
        seq = data["seq"]
        if seq <= after_seq or seq in shed or data["kind"] == KIND_SHED:
            continue
        if upto_seq is not None and seq > upto_seq:
            continue
        if seq in seen:
            report.duplicate_seqs += 1
            continue
        seen.add(seq)
        trace = data.get("trace")
        records.append(WalRecord(
            seq, data["kind"], data["record"],
            trace if isinstance(trace, str) else None,
        ))
    records.sort(key=lambda r: r.seq)
    report.records = len(records)
    return records


__all__ = [
    "KIND_ATTACK",
    "KIND_DPS",
    "KIND_SHED",
    "ReplayReport",
    "WAL_KINDS",
    "WalRecord",
    "WriteAheadLog",
    "canonical_json",
    "parse_segment",
    "resolve_lines",
    "segment_first_seq",
    "segment_name",
    "shed_seqs",
    "wal_line",
]
