"""Columnar skyline store — NumPy-backed ``µ_{C,M}`` spaces.

:class:`MemorySkylineStore` keeps Python ``Record`` lists per pair, which
forces every dominance check into tuple-at-a-time Python.  This module
stores the *data* once, column-wise —

* one interned ``int32`` column per dimension attribute,
* one ``float64`` column per measure attribute,

— and keeps per-``(C, M)`` membership as row-index sets.  Vectorized
algorithms (:class:`~repro.algorithms.s_vectorized.SVectorized`) then
answer "does anything stored at ``(C, M)`` dominate ``t``?" with one
NumPy gather over the membership rows instead of a Python loop, while
the full :class:`~repro.storage.base.SkylineStore` interface stays
intact for the scalar algorithms, the retraction repair and the query
engine (``get`` returns the original ``Record`` objects, which the store
retains by reference alongside the columns).

The column layout is inferred lazily from the first registered record,
so ``ColumnarSkylineStore()`` is a drop-in replacement for
``MemorySkylineStore()`` wherever one is constructed without a schema.

Examples
--------
>>> from repro.core.constraint import Constraint
>>> from repro.core.record import Record
>>> store = ColumnarSkylineStore()
>>> store.insert(Constraint(("a",)), 0b1, Record(0, ("a",), (1.0,), (1.0,)))
>>> [r.tid for r in store.get(Constraint(("a",)), 0b1)]
[0]
>>> store.n_rows, store.stored_tuple_count()
(1, 1)
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..core.constraint import Constraint
from ..core.lattice import supermask_closure_table
from ..core.record import Record
from .base import PairKey, SkylineStore
from .sweep_index import SweepIndex

_INITIAL_CAPACITY = 256
_POINTER_BYTES = 8

#: The scoring index works the 2^n constraint-mask lattice: every
#: insert/delete flips up to 2^n masks per subspace, and the index
#: holds one count vector — one ``int32`` slot per measure subspace —
#: per (mask, value-combination).  Discovery itself already scales with
#: 2^n per arrival, so the index is never the *first* bottleneck, but
#: its memory footprint grows faster on high-cardinality dimensions and
#: each vector is 2^|M| slots wide — cap both dimensionalities and fall
#: back to the scalar Invariant-2 sweep for wider schemas.
_MAX_INDEXED_DIMENSIONS = 8
_MAX_INDEXED_MEASURES = 8

#: The per-row anchor *bitsets* (one element per (row, subspace), bit m
#: set iff the row is anchored at constraint mask ``m`` there) need the
#: whole 2^n mask lattice to fit a non-negative integer element, so
#: they are maintained only up to 5 dimension attributes (2^5 = 32
#: bits).  Up to 4 dimensions the 16-bit lattice fits ``int32`` — half
#: the sweep bandwidth; 5 dimensions take ``int64``.  Wider schemas
#: keep the set-based reverse index; the bitset lattice walker falls
#: back to the scalar pass.
_MAX_BITSET_DIMENSIONS = 5


def lattice_bitset_dtype(n_dimensions: int):
    """Smallest safe NumPy dtype for bitsets over the ``2^n`` constraint
    -mask lattice (``None`` beyond the maintained cap)."""
    if n_dimensions > _MAX_BITSET_DIMENSIONS:
        return None
    return np.int32 if n_dimensions <= 4 else np.int64

#: Deferred-compaction policy for tombstoned rows: compact once more
#: than this many rows are dead *and* they outnumber a quarter of the
#: column length.  Keeps retraction O(1) amortised without letting a
#: deletion-heavy stream grow the columns unboundedly.
_COMPACT_MIN_DEAD = 64
_COMPACT_DEAD_FRACTION = 4

#: Shared empty row-index array returned for pairs that hold nothing.
_EMPTY_ROWS = np.empty(0, dtype=np.int64)

_EMPTY_KEY: tuple = ()


def _key_builder(positions: Tuple[int, ...]):
    """``dims → tuple(dims at positions)`` at C speed (itemgetter)."""
    if not positions:
        return lambda dims: _EMPTY_KEY
    if len(positions) == 1:
        j = positions[0]
        return lambda dims: (dims[j],)
    return itemgetter(*positions)


def grow_zeroed_1d(array: np.ndarray, min_rows: int) -> np.ndarray:
    """Grow a 1-D array geometrically, zero-filling the new region.

    Anchor-bitset columns need their unused tail zeroed (a row with no
    anchors must read as the empty bitset), unlike the measure columns
    where every row is written before it is read.

    >>> grow_zeroed_1d(np.ones(2, dtype=np.int64), 5).tolist()
    [1, 1, 0, 0, 0, 0, 0, 0]
    >>> a = np.ones(4, dtype=np.int64)
    >>> grow_zeroed_1d(a, 3) is a
    True
    """
    capacity = array.shape[0]
    if capacity >= min_rows:
        return array
    new_capacity = max(capacity, 1)
    while new_capacity < min_rows:
        new_capacity *= 2
    out = np.zeros(new_capacity, dtype=array.dtype)
    out[:capacity] = array
    return out


def grow_2d(array: np.ndarray, size: int, min_rows: Optional[int] = None) -> np.ndarray:
    """Grow a 2-D array geometrically to hold at least ``min_rows`` rows.

    Returns ``array`` itself when it is already large enough; otherwise a
    new array with doubled-until-sufficient capacity whose first ``size``
    rows are copied over (the rest is uninitialised).  ``min_rows``
    defaults to ``size + 1`` — "make room for one more append".

    >>> a = np.zeros((2, 3))
    >>> grow_2d(a, 2).shape
    (4, 3)
    >>> grow_2d(a, 2, min_rows=100).shape
    (128, 3)
    >>> grow_2d(a, 1) is a
    True
    """
    needed = size + 1 if min_rows is None else min_rows
    capacity = array.shape[0]
    if capacity >= needed:
        return array
    new_capacity = max(capacity, 1)
    while new_capacity < needed:
        new_capacity *= 2
    out = np.empty((new_capacity,) + array.shape[1:], dtype=array.dtype)
    out[:size] = array[:size]
    return out


class ColumnInterner:
    """Per-column ``value → int32`` id tables for dimension matrices.

    The file codec's :class:`~repro.storage.codec.DimensionInterner` is
    a single bidirectional catalog; columnar math wants one dense id
    space *per column* (ids double as equality classes inside that
    column) and no reverse lookup.  Shared by the columnar store and
    the vectorized baseline.
    """

    __slots__ = ("_tables",)

    def __init__(self, n_columns: int) -> None:
        self._tables: List[Dict[object, int]] = [{} for _ in range(n_columns)]

    def intern_row(self, values) -> np.ndarray:
        """Interned ids for one row of column values (new values get
        fresh ids in their column)."""
        out = np.empty(len(self._tables), dtype=np.int32)
        for i, value in enumerate(values):
            table = self._tables[i]
            vid = table.get(value)
            if vid is None:
                vid = len(table)
                table[value] = vid
            out[i] = vid
        return out


class ColumnarSkylineStore(SkylineStore):
    """``µ_{C,M}`` with columnar record storage and row-index membership.

    Every record the store ever sees is *registered* once: its dimension
    values are interned to ``int32`` ids and its normalised measures are
    appended to the column arrays, yielding a stable row index.  Pair
    membership is a ``tid → row`` insertion-ordered dict, so the scalar
    API (``get``/``insert``/``delete``/``contains``) stays O(1) per
    operation while :meth:`rows` hands vectorized callers the membership
    as an index array into :meth:`values_matrix` / :meth:`dims_matrix`.
    """

    def __init__(
        self,
        counters=None,
        n_dimensions: Optional[int] = None,
        n_measures: Optional[int] = None,
        initial_capacity: int = _INITIAL_CAPACITY,
    ) -> None:
        super().__init__(counters)
        self._initial_capacity = initial_capacity
        self._n_dimensions = n_dimensions
        self._n_measures = n_measures
        self._values: Optional[np.ndarray] = None
        self._dims: Optional[np.ndarray] = None
        self._interner: Optional[ColumnInterner] = None
        self._records: List[Record] = []
        self._row_of: Dict[int, int] = {}
        # Two-level membership: subspace → constraint → (tid → row).
        # Lattice passes fetch the per-subspace map once and then pay a
        # single cached-hash dict probe per visited constraint, instead
        # of allocating and hashing a (constraint, subspace) tuple key.
        self._spaces: Dict[int, Dict[Constraint, Dict[int, int]]] = {}
        # Reverse index: (tid, subspace) → bound masks anchoring the
        # tuple there (see SkylineStore.anchor_masks).
        self._anchors: Dict[Tuple[int, int], set] = {}
        # Columnar mirror of the reverse index: subspace → int64 array
        # over rows, element r the bitset of masks anchoring row r there.
        # Feeds the bitset lattice walker ("which µ buckets along C^t
        # hold row r?" is one AND per row) and columnar retraction.
        self._anchor_bits: Dict[int, np.ndarray] = {}
        self._bits_ok = False
        self._bits_dtype = None
        self._bit_weights = None
        # Scoring index: ``mask → {dimension values at the mask's
        # positions → count vector}``, the vector holding one slot per
        # measure subspace (indexed by the subspace bitmask).  Slot
        # ``M`` of entry ``(m, key)`` counts the distinct tuples
        # anchored in ``M`` at ``m`` or an ancestor of ``m`` whose
        # dimension values at ``m``'s positions equal ``key`` — by
        # Invariant 2 exactly ``|λ_M(σ_C)|`` for the constraint binding
        # ``key`` at ``m``.  The key of a mask is the same in every
        # subspace, so one arrival's flips touch one entry per flipped
        # mask and its skyline sizes are read with one probe per mask
        # of ``C^t`` (:meth:`skyline_counts`, the only reader).  Built
        # lazily on first use, then maintained by anchor-bitset flips on
        # every insert/delete, so prominence scoring is independent of
        # history size.  The vectors are ``array('i')``: a scalar bump
        # costs what the former per-(subspace, mask) dict entry's did
        # (demotion repair and retraction flip one slot at a time),
        # while a whole arrival's rows still stack into one NumPy matrix
        # without copying element by element.
        self._score_index: Optional[Dict[int, Dict[tuple, array]]] = None
        self._up_table: Optional[Tuple[int, ...]] = None
        self._mask_keys: Optional[Tuple] = None
        #: All-zero count vector (template for new entries, stand-in
        #: for absent ones on reads).
        self._no_counts: Optional[array] = None
        # Memo: flipped-bitset → tuple of fact-mask ids (flip patterns
        # repeat constantly; bounded FIFO caps adversarial streams).
        self._flip_masks: Dict[int, Tuple[int, ...]] = {}
        self._total = 0
        # Sweep-index companion, ``None`` until :meth:`folded_sweep`
        # arms it; tombstoned-row bookkeeping for the deferred
        # compaction that replaced the per-tid row-slide.
        self._sweep: Optional[SweepIndex] = None
        self._dead_count = 0
        self._compaction_deferred = False
        if n_dimensions is not None and n_measures is not None:
            self._allocate(n_dimensions, n_measures)

    # ------------------------------------------------------------------
    # Columnar substrate
    # ------------------------------------------------------------------
    def _allocate(self, n_dimensions: int, n_measures: int) -> None:
        self._n_dimensions = n_dimensions
        self._n_measures = n_measures
        cap = self._initial_capacity
        self._values = np.empty((cap, n_measures), dtype=np.float64)
        self._dims = np.empty((cap, n_dimensions), dtype=np.int32)
        self._bits_dtype = lattice_bitset_dtype(n_dimensions)
        self._bits_ok = self._bits_dtype is not None
        if (
            n_dimensions <= _MAX_INDEXED_DIMENSIONS
            and n_measures <= _MAX_INDEXED_MEASURES
        ):
            self._up_table = supermask_closure_table(n_dimensions)
            self._no_counts = array("i", [0]) * (1 << n_measures)
            self._mask_keys = tuple(
                _key_builder(
                    tuple(j for j in range(n_dimensions) if (mask >> j) & 1)
                )
                for mask in range(1 << n_dimensions)
            )
        if self._interner is None:
            self._interner = ColumnInterner(n_dimensions)

    def _ensure_layout(self, record: Record) -> None:
        if self._values is None:
            self._allocate(len(record.dims), len(record.values))

    @property
    def n_rows(self) -> int:
        """Number of rows in the column arrays — live registrations plus
        any retraction tombstones awaiting compaction (tombstoned rows
        carry sentinels no sweep can match, so callers may treat the
        range as dense)."""
        return len(self._records)

    def register(self, record: Record) -> int:
        """Intern-and-append ``record`` into the columns; returns its row.

        Idempotent per tid.  Algorithms that sweep the whole history
        (``svec``) register every arrival; plain store users never need
        to call this — :meth:`insert` registers on demand.
        """
        row = self._row_of.get(record.tid)
        if row is not None:
            return row
        self._ensure_layout(record)
        row = len(self._records)
        self._values = grow_2d(self._values, row)
        self._dims = grow_2d(self._dims, row)
        self._values[row] = record.values
        self._dims[row] = self._interner.intern_row(record.dims)
        self._records.append(record)
        self._row_of[record.tid] = row
        return row

    def unregister(self, tid: int, compact: bool = True) -> None:
        """Drop a registered record's row from the columns (retraction).

        The caller must already have removed the tuple from every pair
        (retraction repair does).  The row is *tombstoned*, not slid
        out: the record reference is dropped, the measures become NaN
        and the dimension ids ``-1`` — sentinels no probe can match, so
        dense sweeps need no alive-masking — and the sweep index (when
        present) marks the row dead.  Column space is reclaimed by one
        grouped compaction once enough tombstones accumulate
        (:meth:`compact`), so a retraction is O(stored-per-tid)
        amortised instead of the old O(n + stored) row-slide per tid.
        """
        row = self._row_of.pop(tid, None)
        if row is None:
            return
        self._records[row] = None
        self._values[row] = np.nan
        self._dims[row] = -1
        self._dead_count += 1
        sweep = self._sweep
        for subspace, bits in self._anchor_bits.items():
            # Repair removes the tuple from every pair first, so these
            # are already zero; clearing defensively keeps the "dead
            # rows are never anchored" invariant that lets stale packed
            # bits in the sweep index stay harmless.
            if bits.shape[0] > row and bits[row]:
                if sweep is not None:
                    sweep.anchor_sync(subspace, row, int(bits[row]), 0)
                bits[row] = 0
        if sweep is not None:
            sweep.on_unregister(row)
        if compact:
            self._maybe_compact()

    def unregister_many(self, tids) -> None:
        """Grouped :meth:`unregister`: tombstone every tid, then run the
        deferred-compaction check once for the whole batch (bulk
        retraction was paying the old row-slide per tid)."""
        for tid in tids:
            self.unregister(tid, compact=False)
        self._maybe_compact()

    @contextmanager
    def deferred_compaction(self):
        """Suspend compaction for a grouped mutation sequence.

        Retraction repair interleaves pair surgery with
        :meth:`unregister` per tid; a mid-group compaction would be
        wasted work (more tombstones are coming).  Inside this context
        every compaction check is a no-op; one check runs at exit.
        """
        self._compaction_deferred = True
        try:
            yield self
        finally:
            self._compaction_deferred = False
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        if (
            not self._compaction_deferred
            and self._dead_count > _COMPACT_MIN_DEAD
            and self._dead_count * _COMPACT_DEAD_FRACTION > len(self._records)
        ):
            self.compact()

    def compact(self) -> None:
        """Slide live rows over the tombstones and remap every row
        reference (buckets, tid map, anchor-bitset columns) in one
        grouped pass; the sweep index is dropped and re-arms over the
        compacted columns (see :meth:`folded_sweep`)."""
        if not self._dead_count:
            return
        records = self._records
        keep = [row for row, record in enumerate(records) if record is not None]
        n = len(keep)
        if n:
            index = np.asarray(keep, dtype=np.int64)
            self._values[:n] = self._values[index]
            self._dims[:n] = self._dims[index]
        self._records = [records[row] for row in keep]
        remap = {old: new for new, old in enumerate(keep)}
        self._row_of = {
            record.tid: row for row, record in enumerate(self._records)
        }
        for space in self._spaces.values():
            for bucket in space.values():
                for tid, row in bucket.items():
                    bucket[tid] = remap[row]
        for subspace, bits in self._anchor_bits.items():
            packed = np.zeros_like(bits)
            covered = [old for old in keep if old < bits.shape[0]]
            if covered:
                packed[: len(covered)] = bits[
                    np.asarray(covered, dtype=np.int64)
                ]
            self._anchor_bits[subspace] = packed
        self._dead_count = 0
        self._sweep = None

    def reserve(self, extra: int) -> None:
        """Pre-grow the columns for ``extra`` imminent registrations."""
        if self._values is None or extra <= 0:
            return
        size = len(self._records)
        self._values = grow_2d(self._values, size, min_rows=size + extra)
        self._dims = grow_2d(self._dims, size, min_rows=size + extra)

    def intern_dims(self, dims: Tuple[object, ...]) -> np.ndarray:
        """Interned ``int32`` ids for a probe's dimension values.

        Unseen values receive fresh ids (they then equal no stored row,
        which is exactly the agreement semantics a probe needs).
        """
        if self._interner is None:
            self._interner = ColumnInterner(len(dims))
        return self._interner.intern_row(dims)

    def values_matrix(self) -> np.ndarray:
        """``(n_rows, |M|)`` float64 view of the registered measures."""
        if self._values is None:
            return np.empty((0, 0), dtype=np.float64)
        return self._values[: len(self._records)]

    def dims_matrix(self) -> np.ndarray:
        """``(n_rows, |D|)`` int32 view of the interned dimensions."""
        if self._dims is None:
            return np.empty((0, 0), dtype=np.int32)
        return self._dims[: len(self._records)]

    def partition_bitmasks(self, record: Record):
        """One dominance-partition sweep of ``record`` vs every row.

        Returns ``(lt, gt, agree)`` bitmask columns over the registered
        rows, following :func:`repro.core.dominance.compare`'s
        orientation for ``compare(record, other)``: bit ``i`` of
        ``lt[r]`` is set iff row ``r`` beats the probe on measure ``i``
        (``gt`` the converse), and bit ``j`` of ``agree[r]`` iff the
        interned dimension values match at position ``j``.  This is the
        single shared implementation behind the arrival sweep, its
        scalar fallback, and columnar retraction — orientation fixes
        land everywhere at once.
        """
        probe_values = np.asarray(record.values, dtype=np.float64)
        probe_dims = self.intern_dims(record.dims)
        sweep = self.folded_sweep()
        if sweep is not None:
            return self._partition_indexed(sweep, probe_values, probe_dims)
        return self.partition_suffix(
            probe_values, probe_dims, 0, len(self._records)
        )

    def _partition_indexed(
        self,
        sweep: SweepIndex,
        probe_values: np.ndarray,
        probe_dims: np.ndarray,
    ):
        """Indexed :meth:`partition_bitmasks`: prefix bits come from the
        sweep index's packed partitions (unpacked back into the dense
        bitmask columns), only the suffix past the watermark is compared
        elementwise.  Tombstoned prefix rows are masked out — the dense
        path zeroes them via the NaN/``-1`` sentinels instead."""
        n = len(self._records)
        w = sweep.watermark
        measure_bits, dim_bits = self._sweep_bit_weights()
        lt = np.zeros(n, dtype=measure_bits.dtype)
        gt = np.zeros(n, dtype=measure_bits.dtype)
        agree = np.zeros(n, dtype=dim_bits.dtype)
        packed_lt, packed_gt = sweep.measure_partitions(probe_values)
        prefix_lt, prefix_gt, prefix_agree = lt[:w], gt[:w], agree[:w]
        for i in range(self._n_measures):
            prefix_lt |= sweep.unpack(packed_lt[i]).astype(
                measure_bits.dtype
            ) << np.int32(i)
            prefix_gt |= sweep.unpack(packed_gt[i]).astype(
                measure_bits.dtype
            ) << np.int32(i)
        for j in range(self._n_dimensions):
            prefix_agree |= sweep.unpack(
                sweep.posting(j, int(probe_dims[j]))
            ).astype(dim_bits.dtype) << np.int32(j)
        dead = sweep.dead_mask_u8()
        if dead is not None:
            alive = dead == 0
            prefix_lt *= alive
            prefix_gt *= alive
            prefix_agree *= alive
        if n > w:
            suffix_lt, suffix_gt, suffix_agree = self.partition_suffix(
                probe_values, probe_dims, w, n
            )
            lt[w:] = suffix_lt
            gt[w:] = suffix_gt
            agree[w:] = suffix_agree
        return lt, gt, agree

    def partition_suffix(
        self,
        probe_values: np.ndarray,
        probe_dims: np.ndarray,
        lo: int,
        hi: int,
    ):
        """Dense ``(lt, gt, agree)`` bitmask columns over rows
        ``[lo, hi)`` only — the un-indexed suffix of a sweep (the whole
        history while no index is armed)."""
        measure_bits, dim_bits = self._sweep_bit_weights()
        values = self._values[lo:hi]
        dims = self._dims[lo:hi]
        lt = (values > probe_values) @ measure_bits
        gt = (values < probe_values) @ measure_bits
        agree = (dims == probe_dims) @ dim_bits
        return lt, gt, agree

    def agree_bits_rows(
        self, rows: np.ndarray, probe_dims: np.ndarray
    ) -> np.ndarray:
        """Agreement bitmasks of specific ``rows`` against a probe."""
        dim_bits = self._sweep_bit_weights()[1]
        return (self._dims[rows] == probe_dims) @ dim_bits

    def folded_sweep(self) -> Optional[SweepIndex]:
        """The :class:`SweepIndex` folded up to date, or ``None`` while
        this store answers sweeps densely.

        The store, not its caller, picks the side, and picks it from the
        one input the choice depends on — its own row count: an index
        exists only once enough rows are registered for packed prefix
        probes to beat the dense sweep (:meth:`SweepIndex.arm`: a
        measured constant beside the index), never beyond the anchor
        -bitset dimensionality cap, and again by the same rule after a
        compaction dropped it.  Every reader of the index — the arrival
        walk, :meth:`partition_bitmasks`, the query kernels' selection —
        goes through here, so all of them see the same watermark.
        """
        sweep = self._sweep
        if sweep is not None:
            sweep.ensure_folded()
        elif self._bits_ok:
            sweep = self._sweep = SweepIndex.arm(self)
        return sweep

    def _sweep_bit_weights(self):
        """Per-axis bit weights for :meth:`partition_bitmasks`, int32
        whenever the masks fit (half the sweep bandwidth), built once
        after the layout is known."""
        weights = self._bit_weights
        if weights is None:
            measure_dtype = np.int32 if self._n_measures <= 30 else np.int64
            dim_dtype = np.int32 if self._n_dimensions <= 30 else np.int64
            weights = self._bit_weights = (
                (1 << np.arange(self._n_measures, dtype=np.int64)).astype(
                    measure_dtype
                ),
                (1 << np.arange(self._n_dimensions, dtype=np.int64)).astype(
                    dim_dtype
                ),
            )
        return weights

    def record_at(self, row: int) -> Optional[Record]:
        """The registered record living at ``row`` (``None`` when the
        row is a retraction tombstone awaiting compaction)."""
        return self._records[row]

    def row_of(self, tid: int) -> Optional[int]:
        """The column row of a registered tid (``None`` if unknown)."""
        return self._row_of.get(tid)

    def submap(self, subspace: int) -> Optional[Dict[Constraint, Dict[int, int]]]:
        """The live ``constraint → (tid → row)`` map for ``subspace``
        (``None`` when the subspace holds nothing).  Zero-copy fast path
        for lattice sweeps; callers must treat it as read-only and
        snapshot buckets before mutating the store."""
        return self._spaces.get(subspace)

    def bucket(self, constraint: Constraint, subspace: int) -> Optional[Dict[int, int]]:
        """The live ``tid → row`` membership dict for a pair (``None``
        when the pair holds nothing).  Read-only, like :meth:`submap`."""
        space = self._spaces.get(subspace)
        return space.get(constraint) if space else None

    def rows(self, constraint: Constraint, subspace: int) -> np.ndarray:
        """Membership of ``µ_{C,M}`` as a row-index array (insertion
        order) into the column matrices.  Shared empty when the pair
        holds nothing — callers must not mutate the result."""
        bucket = self.bucket(constraint, subspace)
        if not bucket:
            return _EMPTY_ROWS
        return np.fromiter(bucket.values(), dtype=np.int64, count=len(bucket))

    # ------------------------------------------------------------------
    # SkylineStore API
    # ------------------------------------------------------------------
    _EMPTY: tuple = ()

    def get(self, constraint: Constraint, subspace: int) -> List[Record]:
        bucket = self.bucket(constraint, subspace)
        if not bucket:
            return self._EMPTY  # type: ignore[return-value]
        records = self._records
        return [records[row] for row in bucket.values()]

    def insert(self, constraint: Constraint, subspace: int, record: Record) -> None:
        space = self._spaces.setdefault(subspace, {})
        bucket = space.setdefault(constraint, {})
        if record.tid not in bucket:
            row = bucket[record.tid] = self.register(record)
            self._total += 1
            self.counters.stored_tuples = self._total
            anchors = self._anchors.setdefault((record.tid, subspace), set())
            if self._score_index is not None:
                up_table = self._up_table
                old_up = 0
                for mask in anchors:
                    old_up |= up_table[mask]
                flipped = up_table[constraint.bound_mask] & ~old_up
                if flipped:
                    self._score_bump(subspace, record.dims, flipped, 1)
            anchors.add(constraint.bound_mask)
            if self._bits_ok:
                self._bits_column(subspace, row)[row] |= (
                    1 << constraint.bound_mask
                )
                if self._sweep is not None:
                    self._sweep.anchor_set(
                        subspace, constraint.bound_mask, row
                    )

    def delete(self, constraint: Constraint, subspace: int, record: Record) -> None:
        space = self._spaces.get(subspace)
        bucket = space.get(constraint) if space else None
        if bucket and record.tid in bucket:
            row = bucket[record.tid]
            del bucket[record.tid]
            if self._bits_ok:
                bits = self._anchor_bits.get(subspace)
                if bits is not None and bits.shape[0] > row:
                    bits[row] &= ~(1 << constraint.bound_mask)
                if self._sweep is not None:
                    self._sweep.anchor_clear(
                        subspace, constraint.bound_mask, row
                    )
            self._total -= 1
            self.counters.stored_tuples = self._total
            if not bucket:
                del space[constraint]
                if not space:
                    del self._spaces[subspace]
            key = (record.tid, subspace)
            masks = self._anchors.get(key)
            if masks is not None:
                masks.discard(constraint.bound_mask)
                if self._score_index is not None:
                    up_table = self._up_table
                    new_up = 0
                    for mask in masks:
                        new_up |= up_table[mask]
                    flipped = up_table[constraint.bound_mask] & ~new_up
                    if flipped:
                        self._score_bump(subspace, record.dims, flipped, -1)
                if not masks:
                    del self._anchors[key]

    def _flipped_masks(self, flipped: int) -> Tuple[int, ...]:
        masks = self._flip_masks.get(flipped)
        if masks is None:
            out = []
            bits = flipped
            while bits:
                bit = bits & -bits
                bits ^= bit
                out.append(bit.bit_length() - 1)
            masks = tuple(out)
            if len(self._flip_masks) >= 16384:
                self._flip_masks.pop(next(iter(self._flip_masks)))
            self._flip_masks[flipped] = masks
        return masks

    def _score_bump(
        self,
        subspace: int,
        dims: Tuple[object, ...],
        flipped: int,
        delta: int,
        vectors: Optional[Dict[int, array]] = None,
    ) -> None:
        """Apply an anchor-bitset flip to the scoring index: each set bit
        of ``flipped`` is a fact mask whose ``|λ_M(σ_C)|`` gains or
        loses this tuple in ``subspace``.

        ``vectors`` memoises the tuple's count vector per mask: a
        grouped insert passes one dict across all its subspaces, so the
        key is built and the table probed once per flipped mask rather
        than once per (subspace, mask)."""
        index = self._score_index
        keys = self._mask_keys
        if delta > 0:
            if vectors is None:
                vectors = {}
            for fact_mask in self._flipped_masks(flipped):
                vector = vectors.get(fact_mask)
                if vector is None:
                    table = index.get(fact_mask)
                    if table is None:
                        table = index[fact_mask] = {}
                    key = keys[fact_mask](dims)
                    vector = table.get(key)
                    if vector is None:
                        vector = table[key] = self._no_counts[:]
                    vectors[fact_mask] = vector
                vector[subspace] += delta
            return
        for fact_mask in self._flipped_masks(flipped):
            # Decrements always target an existing entry (the tuple was
            # counted when its anchor covered this mask); skip instead
            # of materialising empty vectors if the invariant is ever
            # violated.
            table = index.get(fact_mask)
            if table is None:
                continue
            key = keys[fact_mask](dims)
            vector = table.get(key)
            if vector is None:
                continue
            count = vector[subspace] + delta
            if count > 0:
                vector[subspace] = count
            else:
                vector[subspace] = 0
                if not any(vector):
                    del table[key]

    def skyline_counts(
        self, dims: Tuple[object, ...], masks
    ) -> Optional[np.ndarray]:
        """``|λ_M(σ_C)|`` for the constraints binding ``dims`` at each
        bound mask of ``masks``, in every subspace at once.

        Returns a read-only ``(len(masks), 2^|M|)`` integer matrix —
        row ``i`` belongs to ``masks[i]`` (positions of ``dims`` outside
        the mask are ignored), column ``M`` to the measure subspace with
        bitmask ``M`` — or ``None`` when the store keeps no index
        (layout not known yet, or dimensionality / measure count beyond
        the caps).  One probe per mask: a whole arrival's skyline sizes
        are this call on ``C^t``'s masks plus one gather.  Valid for
        subspaces whose stores were filled by the discovery algorithms
        (stored tuples satisfy their constraints); a subspace nobody
        maintains reads 0.

        The index behind it is built on the first call — unscored
        ingestion never pays for it — after which every insert/delete
        keeps it current via bitset flips.
        """
        keys = self._mask_keys
        if keys is None:
            return None
        index = self._score_index
        if index is None:
            index = self._score_index = {}
            up_table = self._up_table
            row_of = self._row_of
            records = self._records
            for (tid, subspace), anchors in self._anchors.items():
                up = 0
                for mask in anchors:
                    up |= up_table[mask]
                self._score_bump(subspace, records[row_of[tid]].dims, up, 1)
        absent = self._no_counts
        rows = []
        for mask in masks:
            table = index.get(mask)
            vector = table.get(keys[mask](dims)) if table else None
            rows.append(absent if vector is None else vector)
        return np.frombuffer(b"".join(rows), dtype=np.intc).reshape(
            len(masks), len(absent)
        )

    _NO_ANCHORS: frozenset = frozenset()

    def anchor_masks(self, tid: int, subspace: int):
        """Live set of bound masks anchoring ``tid`` in ``subspace``
        (an empty set when none — never ``None``: this store always
        maintains the index).  Valid under the discovery-algorithm
        invariant that stored tuples satisfy their constraint; callers
        must treat the set as read-only."""
        return self._anchors.get((tid, subspace), self._NO_ANCHORS)

    # ------------------------------------------------------------------
    # Anchor bitsets (the walker's columnar reverse index)
    # ------------------------------------------------------------------
    @property
    def anchor_bits_supported(self) -> bool:
        """True when the per-row anchor bitsets are maintained (the 2^n
        constraint-mask lattice fits an int64 element)."""
        return self._bits_ok

    def _bits_column(self, subspace: int, row: int) -> np.ndarray:
        """The (allocating, growing) bitset column for ``subspace``,
        guaranteed to cover ``row``."""
        bits = self._anchor_bits.get(subspace)
        if bits is None:
            bits = self._anchor_bits[subspace] = np.zeros(
                max(self._initial_capacity, row + 1), dtype=self._bits_dtype
            )
        elif bits.shape[0] <= row:
            bits = self._anchor_bits[subspace] = grow_zeroed_1d(bits, row + 1)
        return bits

    def anchor_bits(self, subspace: int, min_rows: int = 0) -> Optional[np.ndarray]:
        """Per-row anchor bitsets for ``subspace``: element ``r`` has bit
        ``m`` set iff row ``r`` is anchored there at the constraint with
        bound mask ``m``.  ``None`` when the subspace holds nothing or
        the store is beyond the bitset dimensionality cap.  Grown (zero
        -filled) to at least ``min_rows`` elements so sweeps can slice
        ``[:n_rows]`` directly; callers must treat the array as
        read-only.
        """
        if not self._bits_ok:
            return None
        bits = self._anchor_bits.get(subspace)
        if bits is None:
            return None
        if bits.shape[0] < min_rows:
            bits = self._anchor_bits[subspace] = grow_zeroed_1d(bits, min_rows)
        return bits

    def insert_new_many(self, record: Record, pairs) -> None:
        """Anchor a new arrival at many ``(constraint, subspace)`` pairs.

        Grouped equivalent of one :meth:`insert` per pair for a record
        whose tid is not stored anywhere yet (the discovery hot path:
        the arrival is promoted at its maximal skyline constraints
        across every subspace in one call).  ``pairs`` should arrive
        subspace-grouped for best effect; registration, both anchor
        indexes, the scoring-index flips and the stored-tuple gauge end
        up exactly as the per-call sequence would leave them.
        """
        if not pairs:
            return
        row = self.register(record)
        tid = record.tid
        dims = record.dims
        spaces = self._spaces
        anchors_map = self._anchors
        bits_ok = self._bits_ok
        # Arrivals register past the sweep-index watermark, so the index
        # picks these anchors up at the next fold; the sync below only
        # fires on the (defensive) re-anchor-of-an-old-row case.
        sweep = self._sweep
        score = self._score_index is not None
        up_table = self._up_table
        # The arrival's count vector per flipped mask, shared by all its
        # subspaces (see _score_bump).
        vectors: Dict[int, array] = {}
        added = 0
        last_subspace: Optional[int] = None
        anchors: Optional[set] = None
        bits: Optional[np.ndarray] = None
        old_up = 0
        pending_flips = 0
        pending_bits = 0
        for constraint, subspace in pairs:
            space = spaces.get(subspace)
            if space is None:
                space = spaces[subspace] = {}
            bucket = space.get(constraint)
            if bucket is None:
                bucket = space[constraint] = {}
            if tid in bucket:
                continue
            bucket[tid] = row
            added += 1
            if subspace != last_subspace:
                # Flips within one subspace are disjoint across the
                # grouped inserts, so one merged bump (and one merged
                # bitset write) per subspace lands the same state.
                if pending_flips:
                    self._score_bump(
                        last_subspace, dims, pending_flips, 1, vectors
                    )
                    pending_flips = 0
                if pending_bits:
                    if sweep is not None and row < sweep.watermark:
                        old = int(bits[row])
                        sweep.anchor_sync(
                            last_subspace, row, old, old | pending_bits
                        )
                    bits[row] |= pending_bits
                    pending_bits = 0
                last_subspace = subspace
                key = (tid, subspace)
                anchors = anchors_map.get(key)
                if anchors is None:
                    anchors = anchors_map[key] = set()
                if score:
                    old_up = 0
                    for mask in anchors:
                        old_up |= up_table[mask]
                if bits_ok:
                    bits = self._bits_column(subspace, row)
            mask = constraint._mask
            if score:
                flipped = up_table[mask] & ~old_up
                if flipped:
                    pending_flips |= flipped
                    old_up |= up_table[mask]
            anchors.add(mask)
            if bits_ok:
                pending_bits |= 1 << mask
        if pending_flips:
            self._score_bump(last_subspace, dims, pending_flips, 1, vectors)
        if pending_bits:
            if sweep is not None and row < sweep.watermark:
                old = int(bits[row])
                sweep.anchor_sync(last_subspace, row, old, old | pending_bits)
            bits[row] |= pending_bits
        if added:
            self._total += added
            self.counters.stored_tuples = self._total

    def reanchor_demoted(
        self,
        subspace: int,
        record: Record,
        row: int,
        constraint: Constraint,
        children,
    ) -> None:
        """Demotion-repair primitive: move ``record``'s anchor from
        ``constraint`` down to ``children`` in one step.

        Equivalent to ``delete(constraint, …)`` followed by one
        ``insert(child, …)`` per child, but the scoring-index flips are
        *netted* first — a demotion typically re-anchors within the
        removed mask's up-closure, so most of the delete's decrements
        cancel against the inserts' increments and never touch the
        count tables.  Final bucket / anchor / bitset / gauge state is
        identical to the call sequence.
        """
        tid = record.tid
        spaces = self._spaces
        space = spaces.get(subspace)
        bucket = space.get(constraint) if space else None
        if not bucket or tid not in bucket:
            return
        del bucket[tid]
        if not bucket:
            del space[constraint]
            if not space:
                del spaces[subspace]
        removed_mask = constraint._mask
        key = (tid, subspace)
        anchors = self._anchors.get(key)
        if anchors is None:
            anchors = self._anchors[key] = set()
        score = self._score_index is not None
        up_table = self._up_table
        old_up = 0
        if score:
            for mask in anchors:
                old_up |= up_table[mask]
        anchors.discard(removed_mask)
        added = 0
        for child in children:
            space = spaces.get(subspace)
            if space is None:
                space = spaces[subspace] = {}
            child_bucket = space.get(child)
            if child_bucket is None:
                child_bucket = space[child] = {}
            if tid not in child_bucket:
                child_bucket[tid] = row
                anchors.add(child._mask)
                added += 1
        if score:
            new_up = 0
            for mask in anchors:
                new_up |= up_table[mask]
            gained = new_up & ~old_up
            if gained:
                self._score_bump(subspace, record.dims, gained, 1)
            lost = old_up & ~new_up
            if lost:
                self._score_bump(subspace, record.dims, lost, -1)
        if self._bits_ok:
            bits = self._bits_column(subspace, row)
            old_bitset = int(bits[row])
            bitset = old_bitset & ~(1 << removed_mask)
            for child in children:
                bitset |= 1 << child._mask
            bits[row] = bitset
            if self._sweep is not None:
                self._sweep.anchor_sync(subspace, row, old_bitset, bitset)
        if not anchors:
            del self._anchors[key]
        self._total += added - 1
        self.counters.stored_tuples = self._total

    def contains(self, constraint: Constraint, subspace: int, record: Record) -> bool:
        bucket = self.bucket(constraint, subspace)
        return bool(bucket) and record.tid in bucket

    def iter_pairs(self) -> Iterator[Tuple[PairKey, List[Record]]]:
        records = self._records
        for subspace, space in self._spaces.items():
            for constraint, bucket in space.items():
                yield (constraint, subspace), [
                    records[row] for row in bucket.values()
                ]

    def stored_tuple_count(self) -> int:
        return self._total

    def approx_bytes(self) -> int:
        """Columns (used rows) plus one pointer per membership reference.

        Unlike the record-deep accounting of the dict store, the payload
        here *is* the column arrays; records are charged as references
        only (they are shared with the table)."""
        total = 0
        n = len(self._records)
        if self._values is not None:
            total += self._values[:n].nbytes + self._dims[:n].nbytes
        total += n * _POINTER_BYTES  # the row → Record references
        for bits in self._anchor_bits.values():
            total += bits[: min(n, bits.shape[0])].nbytes
        for space in self._spaces.values():
            for constraint, bucket in space.items():
                total += sys.getsizeof(constraint) + _POINTER_BYTES * (
                    len(bucket) + 1
                )
        return total

    def clear(self) -> None:
        self._values = None
        self._dims = None
        self._interner = None
        self._records = []
        self._row_of = {}
        self._spaces = {}
        self._anchors = {}
        self._anchor_bits = {}
        self._bits_ok = False
        self._bits_dtype = None
        self._bit_weights = None
        self._score_index = None
        self._up_table = None
        self._mask_keys = None
        self._no_counts = None
        self._flip_masks = {}
        self._total = 0
        self._sweep = None
        self._dead_count = 0
        self.counters.stored_tuples = 0
        if self._n_dimensions is not None and self._n_measures is not None:
            self._allocate(self._n_dimensions, self._n_measures)
