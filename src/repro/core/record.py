"""Tuples (records) and the append-only relation.

A :class:`Record` is one row of ``R(D; M)``: an immutable pair of a
dimension-value tuple and a measure-value tuple, plus the tuple id that
orders arrivals.  Measure values are stored twice:

* ``raw`` — exactly as supplied by the caller, used for reporting;
* ``values`` — *normalised* by the schema's per-measure sign so that
  "larger is better" holds uniformly (paper, remark after Def. 2).

:class:`Table` is the append-only relation the paper streams tuples into
and the one map from tuple id to record: it assigns tuple ids, normalises
measures, and answers every read of a live row by tid.  Every other
layer — the window, queries, snapshots, the router — reads rows from it
instead of keeping its own copy.  This class holds each live row as the
:class:`Record` the arrival was discovered with; an algorithm that owns
a columnar store keeps its rows only as the store's columns instead
(:class:`~repro.storage.columnar_store.ColumnTable`), and builds a
``Record`` on each read — equal to the arrival's, field for field and
type for type, but a new object each time.  Either way the arrival's
own record is the one its ``FactSet`` carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from .schema import SchemaError, TableSchema


@dataclass(frozen=True, slots=True)
class Record:
    """One tuple of ``R(D; M)``.

    ``slots=True`` drops the per-instance ``__dict__``: streams hold
    millions of records and every algorithm's hot path walks them, so
    the smaller footprint and faster attribute loads are measurable.

    Attributes
    ----------
    tid:
        Arrival index (0-based); the paper's tuple subscript.
    dims:
        Dimension values, ordered as ``schema.dimensions``.
    values:
        Normalised measure values ("larger is better" on every attribute).
    raw:
        Measure values as supplied, for display.
    """

    tid: int
    dims: Tuple[object, ...]
    values: Tuple[float, ...]
    raw: Tuple[float, ...]

    def dim(self, index: int) -> object:
        """Dimension value at position ``index``."""
        return self.dims[index]

    def measure(self, index: int) -> float:
        """Normalised measure value at position ``index``."""
        return self.values[index]

    def as_dict(self, schema: TableSchema) -> dict:
        """Render the record as an attribute-name-keyed mapping."""
        out = dict(zip(schema.dimensions, self.dims))
        out.update(zip(schema.measures, self.raw))
        return out


class Table:
    """Append-only relation ``R(D; M)`` (paper, Problem Statement).

    Tuples may only be appended (the paper's model); a best-effort
    :meth:`delete` is provided as the paper's future-work extension and is
    exercised by the engine's repair path.  Live records are held in one
    dict keyed by tid, whose insertion order is arrival order; a
    subclass that keeps its rows elsewhere overrides :meth:`_keep`,
    :meth:`delete` and the reads (``get``, iteration, :meth:`tids`,
    ``len``, ``in``).

    Examples
    --------
    >>> schema = TableSchema(("d1",), ("m1",))
    >>> table = Table(schema)
    >>> r = table.append({"d1": "a", "m1": 3})
    >>> r.tid, len(table), table.get(0) == r
    (0, 1, True)
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._rows: Dict[int, Record] = {}
        self._signs = schema.measure_signs()
        self._next_tid = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, row: Mapping[str, object] | Record) -> Record:
        """Append one row and return the stored :class:`Record`.

        Accepts either a mapping keyed by attribute names or an existing
        :class:`Record`.  A record already numbered as the next arrival
        (what :meth:`make_record` builds) is stored as it is; any other
        is re-numbered to preserve arrival order.
        """
        if isinstance(row, Record):
            record = row
            if record.tid != self._next_tid:
                record = Record(self._next_tid, row.dims, row.values, row.raw)
        else:
            dims, raw = self.schema.project_row(row)
            values = _normalised(raw, self._signs)
            record = Record(self._next_tid, dims, values, tuple(raw))
        self._keep(record)
        self._next_tid += 1
        return record

    def _keep(self, record: Record) -> None:
        """Hold the record :meth:`append` numbered as the next arrival."""
        self._rows[record.tid] = record

    def make_record(self, row: Mapping[str, object]) -> Record:
        """Build (but do not append) the :class:`Record` a row would become.

        Discovery algorithms need the incoming tuple *before* it is added
        to ``R`` (the paper compares ``t`` against historical tuples
        first, appending at the end — e.g. Alg. 2 line 10).
        """
        dims, raw = self.schema.project_row(row)
        return Record(
            self._next_tid, dims, _normalised(raw, self._signs), tuple(raw)
        )

    def delete(self, tid: int) -> Record:
        """Remove the record with id ``tid`` (future-work extension, §VIII).

        Returns the removed record.  Raises ``KeyError`` if absent.
        """
        try:
            return self._rows.pop(tid)
        except KeyError:
            raise KeyError(f"no record with tid={tid}") from None

    def check_live(self, tids: Iterable[int]) -> List[int]:
        """``tids`` as a list, once every one is known to name a live
        record exactly once — the check a grouped retraction runs before
        its first removal, so a bad batch removes nothing.  Raises
        ``KeyError`` on an unknown or repeated tid."""
        tids = list(tids)
        for tid in tids:
            if tid not in self:
                raise KeyError(f"no record with tid={tid}")
        if len(set(tids)) < len(tids):
            raise KeyError(f"a tid repeats in {tids}")
        return tids

    def resume_at(self, tid: int) -> None:
        """Number the next appended row ``tid`` (snapshot restore keeps
        the tids a checkpoint saved: the rows between live ones were
        deleted).  Numbering only moves forward."""
        if tid < self._next_tid:
            raise ValueError(
                f"tids only move forward: next is {self._next_tid}, "
                f"asked to resume at {tid}"
            )
        self._next_tid = tid

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Record]:
        """Live records in arrival order."""
        return iter(self._rows.values())

    def __contains__(self, tid: object) -> bool:
        """Whether ``tid`` names a live record."""
        return tid in self._rows

    def tids(self) -> Iterator[int]:
        """Live tids in arrival order, without reading a record."""
        return iter(self._rows)

    def get(self, tid: int) -> Optional[Record]:
        """The live record with id ``tid`` (``None`` if absent)."""
        return self._rows.get(tid)

    @property
    def arrivals(self) -> int:
        """Total tuples ever appended (monotone: deletions do not
        decrease it).  The serving layer uses the delta across a failed
        batch to tell exactly which rows were applied before the
        failure."""
        return self._next_tid

    def select_constraint(self, constraint: "Constraint") -> List[Record]:
        """``σ_C(R)`` — records satisfying conjunctive ``constraint``."""
        return [rec for rec in self if constraint.satisfied_by(rec)]


def _normalised(raw: Sequence[float], signs: Sequence[int]) -> Tuple[float, ...]:
    try:
        return tuple(s * float(v) for s, v in zip(signs, raw))
    except (TypeError, ValueError):
        raise SchemaError(f"non-numeric measure values in {raw!r}") from None


def check_row(schema: TableSchema, row: Mapping[str, object]) -> None:
    """Raise :class:`SchemaError` unless ``row`` carries every attribute
    of ``schema`` and numeric measures only — the checks a
    :class:`Table` makes when it builds a record, for a layer that must
    refuse a row before it changes anything.

    >>> check_row(TableSchema(("d",), ("m",)), {"d": "x", "m": "abc"})
    Traceback (most recent call last):
    ...
    repro.core.schema.SchemaError: non-numeric measure values in ('abc',)
    """
    _normalised(schema.project_row(row)[1], schema.measure_signs())


# Deferred import solely for the type used in ``select_constraint``.
from .constraint import Constraint  # noqa: E402  (cycle-free: constraint does not import record)
