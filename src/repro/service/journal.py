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
silent partial restore is never an option.
:meth:`~repro.service.server.StreamServer.start` glues the two halves
together for the serving layer; the server's micro-batches, replay and
snapshot restore apply ops through one loop, :func:`apply_ops`.

Frame format (one per op)::

    <u32 payload_len> <u32 crc32(payload)> <payload: UTF-8 JSON>

(the same length+CRC frame the remote shard-worker socket protocol
reuses on the wire — see :mod:`repro.service.remote`) with payload
``{"seq": n, "op": "ingest", "row": {...}}`` or
``{"seq": n, "op": "delete", "tid": k}``.  Sequence numbers are global
and monotone from 1; a checkpoint records the sequence it covers
(``journal_seq`` in the snapshot document), so replay applies exactly
the ops with ``seq > journal_seq``, and numbering goes on past it
(:meth:`JournalWriter.checkpoint`), even in an emptied directory.  The
first segment opens with one ``{"seq": 0, "origin": [arrivals, live]}``
frame: the engine state the journal continues from
(:func:`journal_origin`), which replay skips.

Durability is a knob (``fsync``) with two values; either way the server
commits once per micro-batch, before it acknowledges any op of it:

* ``"never"`` — buffered writes only; the OS flushes.  Near-zero
  overhead: an append only buffers, and a commit is one flush and no
  ``fsync`` (``tests/test_fault_tolerance.py::TestJournalSyscalls``
  counts them); a host crash can lose the tail, a mere process crash
  cannot (the file buffer is flushed per batch).
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
from dataclasses import dataclass
from typing import IO, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

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


def _record(doc: Dict[str, object]) -> bytes:
    """One framed record: length, CRC, compact JSON payload."""
    payload = json.dumps(doc, separators=(",", ":")).encode()
    return _FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


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


def atomic_write(path: str, write: Callable[[IO[str]], None]) -> None:
    """Write ``path`` crash-consistently: ``write(fh)`` fills a
    per-process temp file, which is fsynced and ``os.replace``-d over
    ``path``, then the directory is fsynced — a crash at any byte leaves
    the previous file or the complete new one, never a torn one.  On
    any failure the temp file is removed and the error propagates."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(os.path.dirname(os.path.abspath(path)))


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


def journal_origin(segments: List[Tuple[int, str]]) -> Optional[Tuple[int, int]]:
    """What the journal of ``segments`` (:func:`list_segments`)
    continues from: the ``(arrivals, live rows)`` of the engine its
    writer opened on, ``(0, 0)`` for a journal written without an origin
    frame (it cannot tell), ``None`` once no segment starts at sequence
    1 (pruned by a checkpoint, or no journal)."""
    if not segments or segments[0][0] != 1:
        return None
    ops = scan_segment(segments[0][1], tolerate_tail=len(segments) == 1).ops
    if ops and ops[0].get("seq") == 0:
        arrivals, live = ops[0]["origin"]
        return arrivals, live
    return 0, 0


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

    def mark_origin(self, arrivals: int, live: int) -> None:
        """Record what a journal begun at sequence 1 continues from: the
        engine's ``arrivals`` and live rows as the writer opened, in a
        ``seq`` 0 frame that the first commit makes durable with the
        ops behind it.  A journal already holding a record keeps the
        origin it has (or, written before origins, none)."""
        if self.last_seq or self._segment_size > len(_HEADER):
            return
        record = _record({"seq": 0, "origin": [arrivals, live]})
        self._fh.write(record)
        self._segment_size += len(record)

    # -- appending -------------------------------------------------------
    def append(self, doc: Dict[str, object]) -> int:
        """Append one op record; returns its sequence number.

        The record is buffered; :meth:`commit` makes it durable.
        """
        if self._fh is None:
            raise ValueError("journal is closed")
        seq = self.last_seq + 1
        record = _record({**doc, "seq": seq})
        fault = faults.fire("journal.append")
        if fault is not None and fault.action == "corrupt":
            # Simulate a crash mid-append: a torn, partial frame.
            self._fh.write(record[: max(1, len(record) // 2)])
            self._fh.flush()
            raise OSError(
                "injected fault: journal append torn mid-record"
            )
        self._fh.write(record)
        self.last_seq = seq
        self._uncommitted += 1
        self._segment_size += len(record)
        if self._segment_size >= self.segment_max_bytes:
            self.commit()
            self._open_segment(seq + 1)
        return seq

    def append_ingest(self, row: Mapping[str, object]) -> int:
        return self.append({"op": "ingest", "row": dict(row)})

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
        rotate to a fresh segment numbered past it (past what this
        journal holds, too, when a directory emptied beside the
        checkpoint holds less) and prune segments wholly covered by the
        checkpoint (their ops can never be needed again — recovery
        replays only ``seq > covered_seq``)."""
        self.commit()
        self.last_seq = max(self.last_seq, covered_seq)
        self._open_segment(self.last_seq + 1)
        for first_seq, path in list_segments(self.directory):
            # A segment is wholly covered when the *next* segment starts
            # at or below covered_seq + 1 (its last op <= covered_seq).
            nxt = [s for s, _ in list_segments(self.directory) if s > first_seq]
            if nxt and nxt[0] <= covered_seq + 1:
                os.remove(path)
        _fsync_dir(self.directory)


# ----------------------------------------------------------------------
# Applying ops
# ----------------------------------------------------------------------
#: Rows per ``facts_for_many`` call when a journal suffix or a snapshot
#: is replayed: one block's fact sets are alive at a time.
REPLAY_BLOCK = 512


def apply_rows(engine, rows: List[dict]) -> Iterator[Tuple[str, int, object]]:
    """Apply ``rows`` in one ``facts_for_many`` call; yield one
    ``(outcome, tid, value)`` per row, in order: ``("ok", tid, S_t)``,
    ``("lost", tid, error)`` (applied, its ``S_t`` gone) or
    ``("failed", tid, error)`` (not applied; ``tid`` is the one it
    would have had).

    A failing call is split at the engine's monotone ``arrivals``: the
    rows before the split were applied, the rest are retried one at a
    time, so a poison row costs itself only.  Lazy: the caller acts on
    each outcome before the next row is retried."""
    start = engine.arrivals
    try:
        fact_sets = engine.facts_for_many(rows)
    except Exception as exc:  # whatever a row raises: lost or failed
        error = exc
    else:
        for factset in fact_sets:
            yield "ok", factset.record.tid, factset
        return
    applied = engine.arrivals - start
    for tid in range(start, start + applied):
        yield "lost", tid, error
    for row in rows[applied:]:
        tid = engine.arrivals
        try:
            (factset,) = engine.facts_for_many([row])
        except Exception as exc:  # the row's outcome, classed by the caller
            yield ("lost" if engine.arrivals > tid else "failed"), tid, exc
        else:
            yield "ok", tid, factset


def apply_ops(engine, ops, block: int) -> Iterator[Tuple[str, int, object]]:
    """Apply ``(kind, payload)`` ops in order.  Runs of ``ingest`` rows
    go through :func:`apply_rows` in blocks of at most ``block`` rows; a
    ``delete`` tid yields ``("ok", tid, removed)`` or ``("failed", tid,
    error)`` (not applied); a ``resume`` numbers the next row and yields
    nothing.  Lazy, like :func:`apply_rows`: the caller acts on each
    outcome before the next op applies."""
    rows: List[dict] = []
    for kind, payload in ops:
        if kind == "ingest":
            rows.append(payload)
            if len(rows) < block:
                continue
        if rows:
            yield from apply_rows(engine, rows)
            rows = []
        if kind == "resume":
            engine.resume_at(payload)
        elif kind != "ingest":
            try:
                if kind != "delete":
                    raise ValueError(f"unknown op {kind!r}")
                removed = engine.delete(payload)
            except Exception as exc:  # the op's outcome, classed by the caller
                yield "failed", payload, exc
            else:
                yield "ok", payload, removed
    if rows:
        yield from apply_rows(engine, rows)
