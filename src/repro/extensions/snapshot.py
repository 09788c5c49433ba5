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
round-trips through a checkpoint.  The persisted rows are the engine's
replay journal (:meth:`EngineBase.snapshot_rows`): the live table for
most engines, the base-row journal for aggregate engines (their table
holds derived tuples that must not be re-aggregated).  Files of any
other version are refused with an actionable ``ValueError``.

Arrival ids are renumbered densely on load (0..n-1); fact outputs are
unaffected since discovery depends only on tuple order and content.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from ..api.spec import EngineSpec
from ..core.engine_protocol import Engine
from ..service import faults

_FORMAT_VERSION = 3

#: Rows per replay block on load (observe_many is output-identical to
#: the row-at-a-time loop; batching just amortises the rebuild).
_REPLAY_BATCH = 512


def save_engine(
    engine: Engine, path: str, journal_seq: Optional[int] = None
) -> None:
    """Write a JSON snapshot of ``engine`` to ``path``, atomically and
    crash-consistently.

    Accepts any :class:`~repro.core.engine_protocol.Engine` — the spec
    (``engine.spec``) and the replay journal (``engine.snapshot_rows()``,
    falling back to the live table) fully describe the session.

    The document lands via temp-file + fsync + ``os.replace`` +
    directory fsync, so a crash at *any* byte boundary leaves either
    the complete new snapshot or the previous one untouched — never a
    torn file at ``path``.

    ``journal_seq`` stamps the last write-ahead-journal sequence this
    snapshot covers (see :mod:`repro.service.journal`): recovery then
    replays exactly the journal suffix past it.
    """
    spec = engine.spec
    rows_of = getattr(engine, "snapshot_rows", None)
    if rows_of is not None:
        rows = rows_of()
    else:  # duck-typed legacy engine
        rows = [record.as_dict(engine.schema) for record in engine.table]
    doc = {
        "format_version": _FORMAT_VERSION,
        "spec": spec.to_dict(),
        "rows": rows,
    }
    if journal_seq is not None:
        doc["journal_seq"] = int(journal_seq)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.flush()
            os.fsync(fh.fileno())
        fault = faults.fire("checkpoint.write")
        if fault is not None and fault.action == "corrupt":
            # Simulate a crash mid-write: a torn temp never replaces
            # the previous checkpoint.
            with open(tmp, "r+b") as fh:
                fh.truncate(max(1, os.path.getsize(tmp) // 2))
            raise OSError("injected fault: checkpoint write torn")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic platforms
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - non-fsyncable directory
        pass
    finally:
        os.close(fd)


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


def snapshot_journal_seq(path: str) -> int:
    """The journal sequence a snapshot covers (0 when written without
    a journal — replay then starts from the beginning)."""
    return int(_read_snapshot_doc(path).get("journal_seq", 0))


def load_engine(path: str) -> Engine:
    """Rebuild an engine from a snapshot written by :func:`save_engine`.

    Returns whatever composition the snapshot describes, built via
    :func:`repro.api.open_engine` — a sharded snapshot restores sharded,
    a windowed one windowed, and so on.  Raises ``ValueError`` for other
    snapshot versions and for corrupt/truncated files — a damaged
    snapshot never silently restores a partial table.
    """
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
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"snapshot {path!r} is malformed: missing or invalid "
            f"section ({exc!r}); the file may have been hand-edited or "
            f"corrupted — restore it from a backup"
        ) from None

    from ..api.facade import open_engine

    engine = open_engine(spec)
    for start in range(0, len(rows), _REPLAY_BATCH):
        engine.observe_many(rows[start : start + _REPLAY_BATCH])
    return engine

