"""Append-only write-ahead journal of ingest/delete ops.

The paper's discovery model is strictly incremental: every fact set is
a deterministic function of the arrival/deletion prefix.  Exact crash
recovery therefore reduces to *journaling the prefix*:

    recovered state = latest v3 snapshot + replay of the journal suffix

:class:`JournalWriter` appends one CRC-framed record per accepted op
(``ingest`` row / ``delete`` tid) to segment files under a directory;
:func:`read_ops` streams them back in order, tolerating a torn or
truncated tail (the expected artifact of a crash mid-append) while
refusing mid-file corruption with an actionable ``ValueError`` — a
silent partial restore is never an option.  :func:`recover_engine`
glues the two halves together for the serving layer.

Frame format (one per op)::

    <u32 payload_len> <u32 crc32(payload)> <payload: UTF-8 JSON>

(the same length+CRC frame the remote shard-worker socket protocol
reuses on the wire — see :mod:`repro.service.remote`) with payload
``{"seq": n, "op": "ingest", "row": {...}}`` or
``{"seq": n, "op": "delete", "tid": k}``.  Sequence numbers are global
and monotone from 1; a checkpoint records the sequence it covers
(``journal_seq`` in the snapshot document), so replay applies exactly
the ops with ``seq > journal_seq``.

Durability is a knob (``fsync``) with two values; either way the server
commits once per micro-batch, before it acknowledges any op of it:

* ``"never"`` — buffered writes only; the OS flushes.  Near-zero
  overhead (the bench-guard budget is <= 5% of the scored
  ``observe_many`` marginal); a host crash can lose the tail, a mere
  process crash cannot (the file buffer is flushed per batch).
* ``"batch"`` (default) — one ``fsync`` per micro-batch commit: an
  acknowledged op is on disk.

Segments rotate when they exceed ``segment_max_bytes`` and — anchored
at checkpoints — on :meth:`JournalWriter.checkpoint`, which also prunes
segments wholly covered by the durably-written snapshot.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from . import faults

#: Segment header: magic + format version (torn below this is "empty").
_HEADER = b"RPWAL1\n"
_FRAME = struct.Struct("<II")

#: Segment file name: ``wal-<first_seq, 12 digits>.log``.
_SEG_PREFIX = "wal-"
_SEG_SUFFIX = ".log"

_FSYNC_POLICIES = ("never", "batch")

#: Default rotation threshold (bytes) — small enough that replay after
#: a checkpoint touches few files, large enough that rotation is rare.
DEFAULT_SEGMENT_BYTES = 16 * 1024 * 1024


class JournalCorruptError(ValueError):
    """Journal bytes are damaged somewhere other than the torn tail."""


def _segment_path(directory: str, first_seq: int) -> str:
    return os.path.join(
        directory, f"{_SEG_PREFIX}{first_seq:012d}{_SEG_SUFFIX}"
    )


def list_segments(directory: str) -> List[Tuple[int, str]]:
    """``(first_seq, path)`` of every segment, ascending."""
    out = []
    for name in os.listdir(directory):
        if name.startswith(_SEG_PREFIX) and name.endswith(_SEG_SUFFIX):
            digits = name[len(_SEG_PREFIX):-len(_SEG_SUFFIX)]
            if digits.isdigit():
                out.append((int(digits), os.path.join(directory, name)))
    out.sort()
    return out


def _fsync_dir(directory: str) -> None:
    """Flush directory metadata (new/renamed/removed entries)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic platforms
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. dirs not fsyncable
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
@dataclass
class SegmentScan:
    """Result of parsing one segment file."""

    ops: List[dict]
    #: Byte offset of the first unusable byte (== file size when clean).
    good_until: int
    #: True when a torn/truncated tail was dropped.
    torn: bool


def scan_segment(path: str, tolerate_tail: bool) -> SegmentScan:
    """Parse one segment's frames.

    A *torn tail* — a final frame whose bytes run out at end-of-file,
    or whose CRC fails with nothing after it — is tolerated when
    ``tolerate_tail`` (the crash-mid-append artifact on the newest
    segment).  Damage anywhere else (bad header, a CRC-failed frame
    with more data behind it, corruption on a non-final segment) raises
    :class:`JournalCorruptError` with the offset — never a silent
    partial restore.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_HEADER):
        if tolerate_tail and len(data) < len(_HEADER):
            # Crash between creating the segment and writing its header.
            return SegmentScan([], 0, torn=bool(data))
        raise JournalCorruptError(
            f"journal segment {path!r} has a bad header; the file is "
            f"not a journal segment or its start was overwritten — "
            f"restore from the latest checkpoint or remove the segment "
            f"after inspecting it"
        )
    ops: List[dict] = []
    offset = len(_HEADER)
    size = len(data)
    while offset < size:
        torn_reason = None
        if size - offset < _FRAME.size:
            torn_reason = "frame header truncated"
            frame_end = size
        else:
            length, crc = _FRAME.unpack_from(data, offset)
            frame_end = offset + _FRAME.size + length
            if frame_end > size:
                torn_reason = "frame payload truncated"
                frame_end = size
            else:
                payload = data[offset + _FRAME.size : frame_end]
                if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                    torn_reason = "frame CRC mismatch"
        if torn_reason is None:
            try:
                ops.append(json.loads(payload))
            except ValueError:
                torn_reason = "frame payload is not valid JSON"
        if torn_reason is not None:
            tail = frame_end >= size
            if tolerate_tail and tail:
                return SegmentScan(ops, offset, torn=True)
            raise JournalCorruptError(
                f"journal segment {path!r} is corrupt at byte {offset} "
                f"({torn_reason}"
                f"{'' if tail else ', with further records behind it'}); "
                f"a torn tail is only tolerated on the newest segment — "
                f"restore from the latest checkpoint or truncate the "
                f"segment at byte {offset} after inspecting it"
            )
        offset = frame_end
    return SegmentScan(ops, offset, torn=False)


def read_ops(directory: str, after_seq: int = 0) -> Tuple[List[dict], bool]:
    """All journal ops with ``seq > after_seq`` in order, plus whether
    a torn tail was dropped from the newest segment."""
    segments = list_segments(directory)
    ops: List[dict] = []
    torn = False
    for index, (first_seq, path) in enumerate(segments):
        last = index == len(segments) - 1
        scan = scan_segment(path, tolerate_tail=last)
        torn = torn or scan.torn
        for op in scan.ops:
            if op.get("seq", 0) > after_seq:
                ops.append(op)
    return ops, torn


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
class JournalWriter:
    """Append-only journal over segment files (see module docstring).

    Opening an existing directory resumes after the last intact record:
    a torn tail left by a crash is truncated away first so the writer
    never appends after garbage.
    """

    def __init__(
        self,
        directory: str,
        fsync: str = "batch",
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if fsync not in _FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {_FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_max_bytes < 1024:
            raise ValueError("segment_max_bytes must be >= 1024")
        self.directory = directory
        self.fsync = fsync
        self.segment_max_bytes = segment_max_bytes
        os.makedirs(directory, exist_ok=True)
        self._fh = None
        self._segment_size = 0
        self.last_seq = 0
        #: Ops whose records were appended but not yet committed
        #: (flushed/fsynced per policy).
        self._uncommitted = 0
        self._resume()

    # -- lifecycle -------------------------------------------------------
    def _resume(self) -> None:
        segments = list_segments(self.directory)
        for index, (first_seq, path) in enumerate(segments):
            last = index == len(segments) - 1
            scan = scan_segment(path, tolerate_tail=last)
            if scan.ops:
                self.last_seq = max(self.last_seq, scan.ops[-1]["seq"])
            elif last:
                self.last_seq = max(self.last_seq, first_seq - 1)
            if last and scan.torn:
                # Truncate the torn tail so appends restart on a clean
                # record boundary.
                with open(path, "r+b") as fh:
                    fh.truncate(max(scan.good_until, len(_HEADER)))
        if segments:
            _, path = segments[-1]
            self._fh = open(path, "ab")
            self._segment_size = self._fh.tell()
        else:
            self._open_segment(self.last_seq + 1)

    def _open_segment(self, first_seq: int) -> None:
        if self._fh is not None:
            self._fh.flush()
            if self.fsync != "never":
                os.fsync(self._fh.fileno())
            self._fh.close()
        path = _segment_path(self.directory, first_seq)
        self._fh = open(path, "ab")
        if self._fh.tell() == 0:
            self._fh.write(_HEADER)
            self._fh.flush()
        self._segment_size = self._fh.tell()
        _fsync_dir(self.directory)

    def close(self) -> None:
        if self._fh is not None:
            self.commit()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- appending -------------------------------------------------------
    def append(self, doc: Dict[str, object]) -> int:
        """Append one op record; returns its sequence number.

        The record is buffered; :meth:`commit` makes it durable.
        """
        if self._fh is None:
            raise ValueError("journal is closed")
        seq = self.last_seq + 1
        doc = dict(doc)
        doc["seq"] = seq
        payload = json.dumps(doc, separators=(",", ":")).encode()
        frame = _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        fault = faults.fire("journal.append")
        if fault is not None and fault.action == "corrupt":
            # Simulate a crash mid-append: a torn, partial frame.
            torn = (frame + payload)[: max(1, (len(frame) + len(payload)) // 2)]
            self._fh.write(torn)
            self._fh.flush()
            raise OSError(
                "injected fault: journal append torn mid-record"
            )
        self._fh.write(frame)
        self._fh.write(payload)
        self.last_seq = seq
        self._uncommitted += 1
        self._segment_size += len(frame) + len(payload)
        if self._segment_size >= self.segment_max_bytes:
            self.commit()
            self._open_segment(seq + 1)
        return seq

    def append_ingest(self, row: Dict[str, object]) -> int:
        return self.append({"op": "ingest", "row": row})

    def append_delete(self, tid: int) -> int:
        return self.append({"op": "delete", "tid": int(tid)})

    def commit(self) -> None:
        """Make appended records durable per the ``fsync`` policy
        (called once per micro-batch by the server)."""
        if self._fh is None or not self._uncommitted:
            return
        self._fh.flush()
        if self.fsync != "never":
            os.fsync(self._fh.fileno())
        self._uncommitted = 0

    # -- checkpoint anchoring -------------------------------------------
    def checkpoint(self, covered_seq: int) -> None:
        """Anchor a durably-written checkpoint covering ``covered_seq``:
        rotate to a fresh segment and prune segments wholly covered by
        the checkpoint (their ops can never be needed again — recovery
        replays only ``seq > covered_seq``)."""
        self.commit()
        self._open_segment(self.last_seq + 1)
        for first_seq, path in list_segments(self.directory):
            # A segment is wholly covered when the *next* segment starts
            # at or below covered_seq + 1 (its last op <= covered_seq).
            nxt = [s for s, _ in list_segments(self.directory) if s > first_seq]
            if nxt and nxt[0] <= covered_seq + 1:
                os.remove(path)
        _fsync_dir(self.directory)


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
@dataclass
class RecoveryReport:
    """What :func:`recover_engine` did, for stats/operators."""

    #: Ops replayed from the journal suffix.
    ops_replayed: int = 0
    #: Sequence the loaded checkpoint covered (0 = none usable).
    checkpoint_seq: int = 0
    #: True when a torn journal tail was dropped.
    torn_tail: bool = False
    #: "checkpoint+journal", "journal", "checkpoint", or "fresh".
    source: str = "fresh"
    #: Populated when the checkpoint existed but was unreadable and the
    #: journal alone still covered the full history.
    checkpoint_error: Optional[str] = None
    #: Rows that failed to re-apply during replay (poison rows whose
    #: records predate dead-lettering; they are skipped and reported).
    replay_errors: List[str] = field(default_factory=list)


def replay_ops(engine, ops: List[dict], report: Optional[RecoveryReport] = None):
    """Apply journal ops to ``engine`` in order (ingest/delete)."""
    report = report if report is not None else RecoveryReport()
    batch: List[dict] = []

    def flush() -> None:
        if batch:
            engine.facts_for_many(batch)
            del batch[:]

    for op in ops:
        kind = op.get("op")
        try:
            if kind == "ingest":
                batch.append(op["row"])
                if len(batch) >= 512:
                    flush()
            elif kind == "delete":
                flush()
                engine.delete(op["tid"])
            else:
                raise ValueError(f"unknown journal op {kind!r}")
        except Exception as exc:  # keep replaying: one bad op must not
            del batch[:]          # shadow the rest of the journal
            report.replay_errors.append(
                f"seq {op.get('seq')}: {type(exc).__name__}: {exc}"
            )
            continue
        report.ops_replayed += 1
    flush()
    return report


def recover_engine(spec) -> Tuple[object, RecoveryReport]:
    """Rebuild the engine a crashed service was running.

    ``spec`` is an :class:`~repro.api.spec.EngineSpec` whose
    ``checkpoint`` policy names the snapshot path and ``journal_dir``.
    Recovery loads the latest durable snapshot (if any), then replays
    the journal suffix (``seq >`` the snapshot's ``journal_seq``),
    tolerating a torn tail.  An unreadable checkpoint falls back to a
    full journal replay when the journal still starts at sequence 1;
    otherwise it raises ``ValueError`` — the truncated state would be
    silently wrong.
    """
    from ..api.facade import open_engine
    from ..extensions.snapshot import load_engine, snapshot_journal_seq

    policy = spec.checkpoint
    if policy is None:
        raise ValueError("recovery needs spec.checkpoint (path + journal_dir)")
    report = RecoveryReport()
    engine = None
    if os.path.exists(policy.path):
        try:
            engine = load_engine(policy.path)
            # The caller's policy, not the one the snapshot was written
            # under, is what the server goes on to read.
            engine._spec_override = replace(engine.spec, checkpoint=policy)
            report.checkpoint_seq = snapshot_journal_seq(policy.path)
            report.source = "checkpoint"
        except ValueError as exc:
            report.checkpoint_error = str(exc)
    if engine is None:
        engine = open_engine(spec)
    if policy.journal_dir and os.path.isdir(policy.journal_dir):
        ops, torn = read_ops(policy.journal_dir, after_seq=report.checkpoint_seq)
        report.torn_tail = torn
        if report.checkpoint_error is not None:
            first_seq = min((op["seq"] for op in ops), default=None)
            if ops and first_seq != 1:
                engine.close()
                raise ValueError(
                    f"checkpoint {policy.path!r} is unreadable "
                    f"({report.checkpoint_error}) and the journal only "
                    f"covers sequences >= {first_seq} — earlier segments "
                    f"were pruned, so a full replay is impossible; "
                    f"restore an intact checkpoint file"
                )
        replay_ops(engine, ops, report)
        if report.ops_replayed:
            report.source = (
                "checkpoint+journal" if report.source == "checkpoint" else "journal"
            )
    elif report.checkpoint_error is not None:
        engine.close()
        raise ValueError(
            f"checkpoint {policy.path!r} is unreadable "
            f"({report.checkpoint_error}) and no journal exists at "
            f"{policy.journal_dir!r}; nothing to recover from"
        )
    return engine, report
