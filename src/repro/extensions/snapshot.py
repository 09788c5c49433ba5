"""Engine snapshots: persist a discovery session and resume it later.

The snapshot is *logical*: the engine's declarative
:class:`~repro.api.spec.EngineSpec` plus the input rows in arrival
order, as one JSON document.  Loading re-opens the spec through
:func:`repro.api.open_engine` and replays the rows through
:func:`repro.service.journal.apply_ops`, which rebuilds every store
exactly (the algorithms are deterministic functions of the stream); a
server's ``start()`` replays them into the engine it was given instead.
This trades reload CPU for a format that is human-readable, diff-able,
and immune to internal-layout changes — the usual choice for moderate
table sizes; larger deployments would checkpoint the µ stores
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
saved — loads numbered densely.  A server's checkpoint carries one
more section, ``feeds`` (its feed standings, written by the same
atomic write), and the ``engine_version`` they describe, which only
the server reads back.  The replay discovers and scores each row but
ranks nothing: no caller reads a restored row's facts.  Files of any
other version are refused with an actionable ``ValueError``.
"""

from __future__ import annotations

import json
from typing import Optional

from ..api.spec import EngineSpec
from ..core.engine_protocol import Engine
from ..service import faults
from ..service.journal import REPLAY_BLOCK, apply_ops, atomic_write

_FORMAT_VERSION = 3


def snapshot_doc(engine: Engine, journal_seq: Optional[int] = None) -> dict:
    """The snapshot document of ``engine``: its spec (``engine.spec``)
    and replay state (``engine.snapshot_state()``), which fully
    describe the session of any
    :class:`~repro.core.engine_protocol.Engine`.

    ``journal_seq`` stamps the last write-ahead-journal sequence the
    document covers (see :mod:`repro.service.journal`): recovery then
    replays exactly the journal suffix past it.  A server adds its
    ``feeds`` section before writing it."""
    doc = {
        "format_version": _FORMAT_VERSION,
        "spec": engine.spec.to_dict(),
        **engine.snapshot_state(),
    }
    if journal_seq is not None:
        doc["journal_seq"] = int(journal_seq)
    return doc


def write_snapshot(path: str, doc: dict) -> None:
    """Render ``doc`` with ``json.dumps`` and write it to ``path`` in one
    :func:`~repro.service.journal.atomic_write`, so a crash at *any*
    byte boundary leaves either the complete new snapshot or the
    previous one untouched — never a torn file at ``path``.  A value
    JSON cannot render raises ``TypeError`` / ``ValueError`` before
    the file is opened."""
    payload = json.dumps(doc)

    def write(fh) -> None:
        fh.write(payload)
        fault = faults.fire("checkpoint.write")
        if fault is not None and fault.action == "corrupt":
            # Simulate a crash mid-write: a torn temp never replaces
            # the previous checkpoint.
            fh.truncate(max(1, fh.tell() // 2))
            raise OSError("injected fault: checkpoint write torn")

    atomic_write(path, write)


def save_engine(
    engine: Engine, path: str, journal_seq: Optional[int] = None
) -> None:
    """Write a JSON snapshot of ``engine`` to ``path``, atomically and
    crash-consistently: :func:`write_snapshot` of
    :func:`snapshot_doc`."""
    write_snapshot(path, snapshot_doc(engine, journal_seq))


def read_snapshot(path: str) -> dict:
    """The snapshot document at ``path``, checked: ``spec`` parsed,
    ``tids`` ints or ``None``, ``journal_seq`` an int (0: no journal).
    A damaged, foreign, other-version or malformed file raises an
    actionable ``ValueError`` naming ``path``, never a bare
    ``JSONDecodeError`` deep in a recovery path."""
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
    version = doc.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {version!r} "
            f"(this build reads version {_FORMAT_VERSION}; re-create "
            f"the snapshot by replaying its rows through open_engine)"
        )
    try:
        doc["spec"] = EngineSpec.from_dict(doc["spec"])
        doc["journal_seq"] = int(doc.get("journal_seq", 0))
        rows, tids = doc["rows"], doc.get("tids")
        if tids is not None:
            doc["arrivals"] = int(doc["arrivals"])
            if len(tids) != len(rows):
                raise ValueError("tids and rows differ in length")
            tids = [int(tid) for tid in tids]
        doc["tids"] = tids
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"snapshot {path!r} is malformed: missing or invalid "
            f"section ({exc!r}); the file may have been hand-edited or "
            f"corrupted — restore it from a backup"
        ) from None
    return doc


def restore_snapshot(engine: Engine, doc: dict) -> None:
    """Replay a :func:`read_snapshot` document's rows into ``engine``
    (its own spec is the composition) through
    :func:`~repro.service.journal.apply_ops`, with a ``resume`` at each
    tid gap (rows deleted before the checkpoint) and a last one at
    ``arrivals``.  A row that fails or loses its facts aborts the
    restore with that row's error."""
    tids, rows = doc["tids"], doc["rows"]
    ops = []
    expected = 0
    for tid, row in zip(tids or range(len(rows)), rows):
        if tid != expected:
            ops.append(("resume", tid))
        ops.append(("ingest", row))
        expected = tid + 1
    if tids is not None:
        ops.append(("resume", doc["arrivals"]))
    for outcome, _, value in apply_ops(engine, ops, REPLAY_BLOCK):
        if outcome != "ok":
            raise value


def load_engine(path: str) -> Engine:
    """Rebuild the engine a :func:`save_engine` snapshot describes:
    :func:`repro.api.open_engine` over its spec (a sharded snapshot
    restores sharded, and so on), then :func:`restore_snapshot`; an
    aborted restore closes the engine it opened."""
    from ..api.facade import open_engine

    doc = read_snapshot(path)
    engine = open_engine(doc["spec"])
    try:
        restore_snapshot(engine, doc)
    except BaseException:
        engine.close()
        raise
    return engine
