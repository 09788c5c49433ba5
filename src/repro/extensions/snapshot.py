"""Engine snapshots: persist a discovery session and resume it later.

The snapshot is *logical*: the engine's declarative
:class:`~repro.api.spec.EngineSpec` plus the input rows in arrival
order, as one JSON document.  Loading re-opens the spec through
:func:`repro.api.open_engine` and replays the rows, which rebuilds every
store exactly (the algorithms are deterministic functions of the
stream).  This trades reload CPU for a format that is human-readable,
diff-able, and immune to internal-layout changes — the usual choice for
moderate table sizes; larger deployments would checkpoint the µ stores
themselves (the file store already persists them).

The format (version 3) embeds the full ``EngineSpec`` (``spec``
section), so *any* composition — single, sharded, windowed, aggregate —
round-trips through a checkpoint.  The persisted sections are the
engine's replay state (:meth:`EngineBase.snapshot_state`): the live
rows with their tids and the arrival count for most engines, so every
row keeps its tid across a restore and the journal suffix replayed
after it names the same tuples; the base-row journal for aggregate
engines (their table holds derived tuples that must not be
re-aggregated, and the replay renumbers them exactly).  A file without
``tids`` — every aggregate engine's, and any written before tids were
saved — loads numbered densely.  The replay discovers and scores each
row but ranks nothing: no caller reads a restored row's facts.  Files
of any other version are refused with an actionable ``ValueError``.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

from ..api.spec import EngineSpec
from ..core.engine_protocol import Engine
from ..service import faults
from ..service.journal import REPLAY_BLOCK, atomic_write

_FORMAT_VERSION = 3


def save_engine(
    engine: Engine, path: str, journal_seq: Optional[int] = None
) -> None:
    """Write a JSON snapshot of ``engine`` to ``path``, atomically and
    crash-consistently.

    Accepts any :class:`~repro.core.engine_protocol.Engine` — the spec
    (``engine.spec``) and the replay state (``engine.snapshot_state()``)
    fully describe the session.

    The document lands via :func:`~repro.service.journal.atomic_write`,
    so a crash at *any* byte boundary leaves either the complete new
    snapshot or the previous one untouched — never a torn file at
    ``path``.

    ``journal_seq`` stamps the last write-ahead-journal sequence this
    snapshot covers (see :mod:`repro.service.journal`): recovery then
    replays exactly the journal suffix past it.
    """
    doc = {
        "format_version": _FORMAT_VERSION,
        "spec": engine.spec.to_dict(),
        **engine.snapshot_state(),
    }
    if journal_seq is not None:
        doc["journal_seq"] = int(journal_seq)

    def write(fh) -> None:
        json.dump(doc, fh, indent=1)
        fault = faults.fire("checkpoint.write")
        if fault is not None and fault.action == "corrupt":
            # Simulate a crash mid-write: a torn temp never replaces
            # the previous checkpoint.
            fh.truncate(max(1, fh.tell() // 2))
            raise OSError("injected fault: checkpoint write torn")

    atomic_write(path, write)


def _read_snapshot_doc(path: str) -> dict:
    """Parse a snapshot file, translating damage into an actionable
    ``ValueError`` (truncated/garbled JSON must never surface as a
    bare ``JSONDecodeError`` deep in a recovery path)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(
                f"snapshot {path!r} is corrupt or truncated "
                f"(not valid JSON: {exc}); the file was probably cut "
                f"short by a crash or partial copy — restore it from a "
                f"backup or recover from the write-ahead journal"
            ) from None
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise ValueError(
            f"snapshot {path!r} parses as JSON but is not a snapshot "
            f"document (no format_version); was the wrong file passed?"
        )
    return doc


def load_engine(path: str) -> Engine:
    """Rebuild an engine from a snapshot written by :func:`save_engine`.

    Returns whatever composition the snapshot describes, built via
    :func:`repro.api.open_engine` — a sharded snapshot restores sharded,
    a windowed one windowed, and so on.  Raises ``ValueError`` for other
    snapshot versions and for corrupt/truncated files — a damaged
    snapshot never silently restores a partial table.
    """
    return load_snapshot(path)[0]


def load_snapshot(path: str) -> Tuple[Engine, int]:
    """:func:`load_engine`, plus the journal sequence the snapshot
    covers (0 when written without a journal — replay then starts from
    the beginning), from one read of the file."""
    doc = _read_snapshot_doc(path)
    version = doc.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {version!r} "
            f"(this build reads version {_FORMAT_VERSION}; re-create "
            f"the snapshot by replaying its rows through open_engine)"
        )
    try:
        spec = EngineSpec.from_dict(doc["spec"])
        rows = doc["rows"]
        tids = doc.get("tids")
        if tids is not None:
            tids = [int(tid) for tid in tids]
            arrivals = int(doc["arrivals"])
            if len(tids) != len(rows):
                raise ValueError("tids and rows differ in length")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"snapshot {path!r} is malformed: missing or invalid "
            f"section ({exc!r}); the file may have been hand-edited or "
            f"corrupted — restore it from a backup"
        ) from None

    from ..api.facade import open_engine

    engine = open_engine(spec)
    start = 0
    while start < len(rows):
        # One block per run of consecutive tids (deleted rows leave
        # gaps), at most REPLAY_BLOCK rows each: facts_for_many is
        # state-identical to the row-at-a-time loop, a block just
        # amortises the rebuild.  A failing row aborts the restore.
        end = min(start + REPLAY_BLOCK, len(rows))
        if tids is not None:
            engine.resume_at(tids[start])
            run = start + 1
            while run < end and tids[run] == tids[run - 1] + 1:
                run += 1
            end = run
        engine.facts_for_many(rows[start:end])
        start = end
    if tids is not None:
        engine.resume_at(arrivals)
    return engine, int(doc.get("journal_seq", 0))
