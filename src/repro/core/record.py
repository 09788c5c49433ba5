"""Tuples (records) and the append-only relation.

A :class:`Record` is one row of ``R(D; M)``: an immutable pair of a
dimension-value tuple and a measure-value tuple, plus the tuple id that
orders arrivals.  Measure values are stored twice:

* ``raw`` — exactly as supplied by the caller, used for reporting;
* ``values`` — *normalised* by the schema's per-measure sign so that
  "larger is better" holds uniformly (paper, remark after Def. 2).

:class:`Table` is the append-only relation the paper streams tuples into.
It assigns tuple ids, normalises measures, and offers the relational
helpers (``sigma`` selection, context cardinalities) that algorithms and
the prominence ranker need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Mapping, Sequence, Tuple

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
    exercised by the engine's repair path.

    Examples
    --------
    >>> schema = TableSchema(("d1",), ("m1",))
    >>> table = Table(schema)
    >>> r = table.append({"d1": "a", "m1": 3})
    >>> r.tid, len(table)
    (0, 1)
    """

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._records: List[Record] = []
        self._signs = schema.measure_signs()
        self._next_tid = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, row: Mapping[str, object] | Record) -> Record:
        """Append one row and return the stored :class:`Record`.

        Accepts either a mapping keyed by attribute names or an existing
        :class:`Record` (whose tid is re-assigned to preserve arrival
        order).
        """
        if isinstance(row, Record):
            record = Record(self._next_tid, row.dims, row.values, row.raw)
        else:
            dims, raw = self.schema.project_row(row)
            values = self._normalise(raw)
            record = Record(self._next_tid, dims, values, tuple(raw))
        self._records.append(record)
        self._next_tid += 1
        return record

    def make_record(self, row: Mapping[str, object]) -> Record:
        """Build (but do not append) the :class:`Record` a row would become.

        Discovery algorithms need the incoming tuple *before* it is added
        to ``R`` (the paper compares ``t`` against historical tuples
        first, appending at the end — e.g. Alg. 2 line 10).
        """
        dims, raw = self.schema.project_row(row)
        return Record(self._next_tid, dims, self._normalise(raw), tuple(raw))

    def delete(self, tid: int) -> Record:
        """Remove the record with id ``tid`` (future-work extension, §VIII).

        Returns the removed record.  Raises ``KeyError`` if absent.
        """
        for i, rec in enumerate(self._records):
            if rec.tid == tid:
                return self._records.pop(i)
        raise KeyError(f"no record with tid={tid}")

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

    def _normalise(self, raw: Sequence[float]) -> Tuple[float, ...]:
        try:
            return tuple(s * float(v) for s, v in zip(self._signs, raw))
        except (TypeError, ValueError):
            raise SchemaError(f"non-numeric measure values in {raw!r}") from None

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __getitem__(self, index: int) -> Record:
        return self._records[index]

    @property
    def records(self) -> Sequence[Record]:
        """All records in arrival order (read-only view)."""
        return tuple(self._records)

    @property
    def arrivals(self) -> int:
        """Total tuples ever appended (monotone: deletions do not
        decrease it).  The serving layer uses the delta across a failed
        batch to tell exactly which rows were applied before the
        failure."""
        return self._next_tid

    def sigma(self, predicate: Callable[[Record], bool]) -> List[Record]:
        """Relational selection ``σ``: records satisfying ``predicate``."""
        return [rec for rec in self._records if predicate(rec)]

    def select_constraint(self, constraint: "Constraint") -> List[Record]:
        """``σ_C(R)`` — records satisfying conjunctive ``constraint``."""
        return [rec for rec in self._records if constraint.satisfied_by(rec)]


# Deferred import solely for the type used in ``select_constraint``.
from .constraint import Constraint  # noqa: E402  (cycle-free: constraint does not import record)
