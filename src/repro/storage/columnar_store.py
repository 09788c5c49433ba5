"""Columnar skyline store — NumPy-backed ``µ_{C,M}`` spaces.

:class:`MemorySkylineStore` keeps Python ``Record`` lists per pair, which
forces every dominance check into tuple-at-a-time Python.  This module
stores the *data* once, column-wise —

* one interned ``int32`` column per dimension attribute,
* one ``float64`` column per measure attribute,

— and the *membership* once, as one **anchor-bit matrix**: a
``(subspace slot, row, word)`` array of ``uint32`` words in which bit
``m`` of cell ``(M, r)`` says "row ``r`` is stored in subspace ``M``
under the constraint binding its own dimension values at the positions
of bound mask ``m``".  A tuple is only ever stored under constraints it
satisfies (the discovery algorithms' invariant), so the mask identifies
the constraint and the matrix *is* ``µ`` — there is no per-pair bucket
and no per-tuple anchor set beside it.  The ``2^|D|`` masks of a cell
span ``2^|D| / 32`` words (one up to five dimensions), so every
dimensionality has the same representation.

The store speaks cells, not constraints: ``svec``
(:class:`~repro.algorithms.s_vectorized.SVectorized`) reads the cells as
masks and bitsets and writes them in batches — every cell transition of
one arrival, or of one retracted victim, is one call of the store's only
write kernel (:meth:`ColumnarSkylineStore.apply_cells`), which moves the
stored-tuple gauge, the skyline-cardinality index (a slot-addressed
``int32`` count matrix) and the sweep index's anchor planes once, from
the before/after words of the whole batch.  It is not a
:class:`~repro.storage.base.SkylineStore`: the paper-ladder algorithms'
per-constraint ``get`` / ``insert`` / ``delete`` surface has no reader
here.  :meth:`~ColumnarSkylineStore.iter_pairs` renders the cells as
``(constraint, subspace) → records`` for comparisons with those stores.

Examples
--------
>>> from repro.core.prominence import ContextCounter
>>> from repro.core.record import Table
>>> from repro.core.schema import TableSchema
>>> table, counter = Table(TableSchema(("d0",), ("m0",))), ContextCounter(1)
>>> record = table.append({"d0": "a", "m0": 1.0})
>>> counter.register(record)
>>> store = ColumnarSkylineStore(table, counter)
>>> row = store.register(record)
>>> store.apply_cells([0b1], [row], [0b10])  # stored at (d0=a, {m0})
>>> store.anchor_cell(0b1, row), store.stored_tuple_count()
(2, 1)
>>> [(c.values, m, [r.tid for r in rs]) for (c, m), rs in store.iter_pairs()]
[(('a',), 1, [0])]
>>> store.record_at(row) is table.get(0) is record
True
>>> store.skyline_counts(("a",), [0b0, 0b1]).tolist()
[[0, 0], [0, 1]]
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..core.constraint import (
    UNBOUND,
    Constraint,
    bindable_positions,
    constraint_for_record,
)
from ..core.lattice import (
    bit_positions,
    popcount_array,
    submask_closure_table,
    supermask_closure_table,
)
from ..core.prominence import ContextCounter
from ..core.record import Record, Table
from ..metrics.counters import OpCounters
from .base import PairKey
from .sweep_index import SweepIndex

_INITIAL_CAPACITY = 256

#: The scoring index works the constraint lattice ``C^t``: every
#: insert/delete flips up to 2^n masks per subspace, and the index
#: holds one count row — one ``int32`` per measure subspace — per
#: constraint of the constraint table plus one id per (row, mask).
#: Discovery itself already scales with 2^n per arrival, so the index
#: is never the *first* bottleneck, but its memory footprint grows
#: faster on high-cardinality dimensions and each count row is 2^|M|
#: wide — past either cap :meth:`ColumnarSkylineStore.skyline_counts`
#: counts straight from the anchor-bit matrix instead.
_MAX_INDEXED_DIMENSIONS = 8
_MAX_INDEXED_MEASURES = 8

#: One word of an anchor-bit cell: 32 constraint masks, little-endian so
#: a cell's bytes read as one Python integer on any platform.
WORD = np.dtype("<u4")
WORD_BITS = 32

#: Deferred-compaction policy for tombstoned rows: compact once more
#: than this many rows are dead *and* they outnumber a quarter of the
#: column length.  Keeps retraction O(1) amortised without letting a
#: deletion-heavy stream grow the columns unboundedly.
_COMPACT_MIN_DEAD = 64
_COMPACT_DEAD_FRACTION = 4

#: Shared empty row-index array returned for pairs that hold nothing.
_EMPTY_ROWS = np.empty(0, dtype=np.int64)


def cell_words(bitsets, n_dimensions: int) -> np.ndarray:
    """``(len(bitsets), words)`` cell-word form of Python-integer
    bitsets over the ``2^n`` constraint masks — the representation of
    the anchor-bit matrix and of every lattice bitset the ``svec`` walk
    computes with (one word up to five dimensions)."""
    size = max(1, (1 << n_dimensions) // WORD_BITS) * WORD.itemsize
    data = b"".join(bits.to_bytes(size, "little") for bits in bitsets)
    return np.frombuffer(data, dtype=WORD).reshape(len(bitsets), -1)


def cell_ints(cells: np.ndarray) -> List[int]:
    """Inverse of :func:`cell_words`: one Python integer per row of a
    ``(n, words)`` array."""
    out = cells[:, 0].tolist()
    for word in range(1, cells.shape[1]):
        shift = word * WORD_BITS
        out = [
            low | high << shift
            for low, high in zip(out, cells[:, word].tolist())
        ]
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


class ColumnarSkylineStore:
    """``µ_{C,M}`` with columnar record storage and one anchor-bit
    matrix for membership.

    Every record the store ever sees is *registered* once: its dimension
    values are interned to ``int32`` ids and its normalised measures are
    appended to the column arrays, yielding a stable row index.  Pair
    membership is bit ``C.bound_mask`` of the matrix cell at (``M``'s
    slot, row) — valid because a tuple is stored only under constraints
    it satisfies — so callers read cells (:meth:`anchor_cell` /
    :meth:`anchor_cells`), write them in batches (:meth:`apply_cells`)
    and read skylines and their sizes as whole selections
    (:meth:`skyline_rows`, :meth:`skyline_counts`).

    The store is built on its algorithm's two tables.  The relation
    (:class:`~repro.core.record.Table`) is the one map from tid to
    record: the store keeps an ``int64`` tid column, strictly
    increasing (rows register in arrival order), and no ``Record``.
    The constraint table (:class:`~repro.core.prominence.ContextCounter`)
    interns the dimension columns and hands a row its constraint ids
    when it registers, so it must have registered the row's values
    first (a row it does not know is counted nowhere).
    """

    def __init__(
        self,
        table: Table,
        counter: ContextCounter,
        counters: Optional[OpCounters] = None,
        initial_capacity: int = _INITIAL_CAPACITY,
    ) -> None:
        self.counters = counters if counters is not None else OpCounters()
        self._initial_capacity = initial_capacity
        self._table = table
        self._counter = counter
        self._interner = counter.interner
        self._n_dimensions = counter.n_dimensions
        self._n_measures = table.schema.n_measures
        self._n = 0
        # The µ store: ``_cells[slot, row]`` is the anchor bitset of
        # ``row`` in the subspace holding ``slot`` — bit ``m`` (word
        # ``m >> 5``) set iff the row is stored there under the
        # constraint binding its own values at mask ``m``.  Slots are
        # assigned on a subspace's first write; rows past ``n_rows``,
        # tombstones and never-stored rows read as zero (allocated with
        # the columns in :meth:`_allocate`).
        self._slots: Dict[int, int] = {}
        words = max(1, (1 << self._n_dimensions) // WORD_BITS)
        self._cell_bytes = words * WORD.itemsize
        self._closure: Optional[np.ndarray] = None
        self._bit_weights = None
        # Scoring index: ``_counts[id, M]`` is ``|λ_M(σ_C)|`` for the
        # constraint ``C`` holding ``id`` in the constraint table — the
        # distinct tuples anchored in ``M`` at ``C``'s bound mask or an
        # ancestor of it whose dimension values at the mask's positions
        # equal ``C``'s (Invariant 2).  ``_slot_ids[row, p]`` holds the
        # id of the row's own constraint at position ``p`` along
        # ``C^t``, taken from the table when the row registers, so every
        # flip of the row is pure array arithmetic
        # (:meth:`_score_flips`).  At a position whose mask covers one
        # of the row's None values it holds 0: the canonical position
        # already holds that constraint's id, and a second copy would
        # count the flip twice.  Row 0 of ``_counts`` is the permanent
        # all-zero row that id 0 reads.  The table frees an id only
        # after the last row holding it left the store (its cells were
        # cleared first), so a recycled id starts from zero counts.
        # Built lazily on first use (:meth:`skyline_counts`), then
        # maintained by every :meth:`apply_cells`, so prominence
        # scoring is independent of history size.
        self._counts: Optional[np.ndarray] = None
        self._mask_column = np.asarray(counter.masks, dtype=np.int64)
        self._up_bytes: Optional[np.ndarray] = None
        self._total = 0
        # Sweep-index companion, ``None`` until :meth:`folded_sweep`
        # arms it; tombstoned-row bookkeeping for the deferred
        # compaction that replaced the per-tid row-slide.
        self._sweep: Optional[SweepIndex] = None
        self._dead_count = 0
        self._compaction_deferred = False
        self._allocate()

    # ------------------------------------------------------------------
    # Columnar substrate
    # ------------------------------------------------------------------
    def _allocate(self) -> None:
        """Fresh, empty columns and anchor-bit matrix."""
        cap = self._initial_capacity
        self._tids = np.empty(cap, dtype=np.int64)
        self._values = np.empty((cap, self._n_measures), dtype=np.float64)
        self._dims = np.empty((cap, self._n_dimensions), dtype=np.int32)
        self._slot_ids = np.empty((cap, len(self._mask_column)), dtype=np.int32)
        self._cells = np.zeros(
            (0, cap, self._cell_bytes // WORD.itemsize), dtype=WORD
        )

    def _reserve_rows(self, min_rows: int) -> None:
        """Grow the columns and the matrix's row axis together (the new
        matrix rows zeroed: an unwritten cell is the empty bitset)."""
        if self._values.shape[0] >= min_rows:
            return
        size = self._n
        self._tids = grow_2d(self._tids, size, min_rows)
        self._values = grow_2d(self._values, size, min_rows)
        self._dims = grow_2d(self._dims, size, min_rows)
        self._slot_ids = grow_2d(self._slot_ids, size, min_rows)
        old = self._cells
        self._cells = np.zeros(
            (old.shape[0], self._values.shape[0], old.shape[2]), dtype=WORD
        )
        self._cells[:, :size] = old[:, :size]

    def _slot(self, subspace: int) -> int:
        """The matrix slot of ``subspace``, assigned on first use."""
        slot = self._slots.get(subspace)
        if slot is None:
            slot = self._slots[subspace] = len(self._slots)
            old = self._cells
            if slot >= old.shape[0]:
                self._cells = np.zeros(
                    (max(4, 2 * slot),) + old.shape[1:], dtype=WORD
                )
                self._cells[:slot] = old
        return slot

    @property
    def n_rows(self) -> int:
        """Number of rows in the column arrays — live registrations plus
        any retraction tombstones awaiting compaction (tombstoned rows
        carry sentinels no sweep can match, so callers may treat the
        range as dense)."""
        return self._n

    def register(self, record: Record) -> int:
        """Intern-and-append ``record`` into the columns; returns its row.

        Rows register once each, in arrival order (``ValueError`` for a
        tid not newer than every registered one), so the tid column
        strictly increases.  ``svec`` sweeps the whole history, so it
        registers every arrival; a row must be registered before a cell
        of it is written.
        """
        row = self._n
        if row and self._tids[row - 1] >= record.tid:
            raise ValueError(
                f"rows register in arrival order: tid {record.tid} after "
                f"tid {self._tids[row - 1]}"
            )
        self._reserve_rows(row + 1)
        self._tids[row] = record.tid
        self._values[row] = record.values
        self._dims[row] = self._interner.intern_row(record.dims)
        self._slot_ids[row] = self._counter.row_ids(record.dims)
        self._n = row + 1
        return row

    def unregister(self, tid: int) -> None:
        """Drop a registered record's row from the columns (retraction).

        Any pair still holding the tuple loses it first (retraction
        repair has normally emptied its cells already), so a dead row is
        never anchored.  The row is then *tombstoned*, not slid out: the
        measures become NaN and the dimension ids ``-1`` — sentinels no
        probe can match (so dense sweeps need no alive-masking) and the
        row's only liveness mark — and the sweep index (when present)
        marks the row dead; the tid stays, so the column stays sorted.  Column
        space is reclaimed by one grouped compaction once enough
        tombstones accumulate
        (:meth:`compact`), so a retraction is O(stored-per-tid)
        amortised instead of an O(n + stored) row-slide per tid; a
        grouped retraction unregisters inside
        :meth:`deferred_compaction`, which checks once at exit.
        """
        row = self.row_of(tid)
        if row is None:
            return
        if self._cells[:, row].any():
            held = list(self._slots)
            self.apply_cells(held, [row] * len(held), [0] * len(held))
        self._values[row] = np.nan
        self._dims[row] = -1
        self._dead_count += 1
        if self._sweep is not None:
            self._sweep.on_unregister(row)
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
            and self._dead_count * _COMPACT_DEAD_FRACTION > self._n
        ):
            self.compact()

    def compact(self) -> None:
        """Slide live rows over the tombstones — one fancy-index per
        array, the tid column and the matrix included, keeping their
        order; the sweep index is dropped and re-arms over the compacted
        columns (see :meth:`folded_sweep`)."""
        if not self._dead_count:
            return
        end = self._n
        index = np.flatnonzero(self._dims[:end, 0] != -1)
        n = self._n = len(index)
        self._tids[:n] = self._tids[index]
        self._values[:n] = self._values[index]
        self._dims[:n] = self._dims[index]
        self._cells[:, :n] = self._cells[:, index]
        self._cells[:, n:end] = 0
        self._slot_ids[:n] = self._slot_ids[index]
        self._dead_count = 0
        self._sweep = None

    def reserve(self, extra: int) -> None:
        """Pre-grow the columns for ``extra`` imminent registrations."""
        if extra > 0:
            self._reserve_rows(self._n + extra)

    def intern_dims(self, dims: Tuple[object, ...]) -> np.ndarray:
        """Interned ``int32`` ids for a probe's dimension values.

        Unseen values receive fresh ids (they then equal no stored row,
        which is exactly the agreement semantics a probe needs).
        """
        return self._interner.intern_row(dims)

    def values_matrix(self) -> np.ndarray:
        """``(n_rows, |M|)`` float64 view of the registered measures."""
        return self._values[: self._n]

    def dims_matrix(self) -> np.ndarray:
        """``(n_rows, |D|)`` int32 view of the interned dimensions."""
        return self._dims[: self._n]

    def partition_bitmasks(self, record: Record):
        """One dominance-partition sweep of ``record`` vs every row.

        Returns ``(lt, gt, agree)`` bitmask columns over the registered
        rows, following :func:`repro.core.dominance.compare`'s
        orientation for ``compare(record, other)``: bit ``i`` of
        ``lt[r]`` is set iff row ``r`` beats the probe on measure ``i``
        (``gt`` the converse), and bit ``j`` of ``agree[r]`` iff the
        interned dimension values match at position ``j`` (``None``
        is a value like any other here).  This is the single shared
        implementation behind the arrival sweep and columnar
        retraction — orientation fixes land everywhere at once.
        """
        probe_values = np.asarray(record.values, dtype=np.float64)
        probe_dims = self.intern_dims(record.dims)
        sweep = self.folded_sweep()
        if sweep is not None:
            return self._partition_indexed(sweep, probe_values, probe_dims)
        return self.partition_suffix(probe_values, probe_dims, 0, self._n)

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
        n = self._n
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

    def fixed_bits_rows(
        self, rows: np.ndarray, probe_dims: np.ndarray
    ) -> np.ndarray:
        """Per row of ``rows``, the positions it agrees with a probe on
        or holds the unbound marker (None) at, as one bitmask."""
        dims = self._dims[rows]
        none_ids = self._interner.probe_row((UNBOUND,) * self._n_dimensions)
        dim_bits = self._sweep_bit_weights()[1]
        return ((dims == probe_dims) | (dims == none_ids)) @ dim_bits

    def folded_sweep(self) -> Optional[SweepIndex]:
        """The :class:`SweepIndex` folded up to date, or ``None`` while
        this store answers sweeps densely.

        The store, not its caller, picks the side, and picks it from the
        inputs the choice depends on — its own row count and layout: an
        index exists only once :meth:`SweepIndex.arm` finds enough rows
        registered for packed prefix probes to beat the dense sweep
        (measured constants beside the index), and again by the same
        rule after a compaction dropped it.  Every reader of the index —
        the arrival walk, :meth:`partition_bitmasks`, the query kernels'
        selection — goes through here, so all of them see the same
        watermark.
        """
        sweep = self._sweep
        if sweep is not None:
            sweep.ensure_folded()
        else:
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
        """The record living at ``row``, read from the table by the
        row's tid (``None`` when the table holds no such tuple: a
        retraction tombstone awaiting compaction)."""
        return self._table.get(int(self._tids[row]))

    def row_of(self, tid: int) -> Optional[int]:
        """The column row of a live registered tid (``None`` if unknown
        or tombstoned): one binary search of the sorted tid column."""
        n = self._n
        row = int(np.searchsorted(self._tids[:n], tid))
        if row < n and self._tids[row] == tid and self._dims[row, 0] != -1:
            return row
        return None

    # ------------------------------------------------------------------
    # The anchor-bit matrix
    # ------------------------------------------------------------------
    def _cell(self, slot: int, row: int) -> int:
        return int.from_bytes(self._cells[slot, row].tobytes(), "little")

    def apply_cells(self, subspaces, rows, anchors) -> None:
        """The one µ write: cell ``(subspaces[i], rows[i])`` becomes the
        anchor bitset ``anchors[i]``, for every ``i`` at once.

        The three parallel columns carry every cell transition of one
        unit of work — an arrival's promotion row plus all the cells it
        demotes, or a retracted victim's cleared cells plus all its
        re-anchors; :meth:`unregister` clears a still-anchored row with
        a batch of its own.  Rows must be live registered rows,
        and each ``(subspace, row)`` may appear once (``ValueError``
        otherwise: a batch has no order to resolve a repeat by).  Every
        derived structure moves once, from the before/after words of
        the whole batch: the stored-tuple gauge by their popcount
        difference, the scoring index by the difference of their
        up-closures (so a re-anchor inside one closure nets to
        nothing), the sweep index's anchor planes by their XOR.
        """
        if not len(rows):
            return
        if len(set(zip(subspaces, rows))) != len(rows):
            raise ValueError("apply_cells: a (subspace, row) cell repeats")
        slots = np.array([self._slot(subspace) for subspace in subspaces])
        rows = np.array(rows)
        new = cell_words(anchors, self._n_dimensions)
        old = self._cells[slots, rows]
        self._cells[slots, rows] = new
        self._total += int(popcount_array(new).sum()) - int(
            popcount_array(old).sum()
        )
        self.counters.stored_tuples = self._total
        if self._counts is not None:
            self._score_flips(
                np.array(subspaces, dtype=np.int32), rows, old, new
            )
        if self._sweep is not None:
            self._sweep.anchor_sync(subspaces, rows, old, new)

    def anchor_cell(self, subspace: int, row: int) -> int:
        """Anchor bitset of ``row`` in ``subspace``: bit ``m`` set iff
        the row is stored there under its constraint with bound mask
        ``m`` (0 for a subspace that holds nothing)."""
        slot = self._slots.get(subspace)
        return 0 if slot is None else self._cell(slot, row)

    def anchor_cells(self, subspaces) -> np.ndarray:
        """``(len(subspaces), n_rows, words)`` anchor cells of the given
        subspaces, read-only — a view while they hold the leading slots
        in this order (the walker's keys do: it is their first writer),
        a gathered copy otherwise."""
        slots = [self._slot(subspace) for subspace in subspaces]
        n = self._n
        if slots == list(range(len(slots))):
            return self._cells[: len(slots), :n]
        return self._cells[slots, :n]

    def closure_words(self) -> np.ndarray:
        """``(2^|D|, words)`` submask closures in cell-word form: row
        ``a`` is the bitset of the constraint masks ``⊆ a``."""
        if self._closure is None:
            self._closure = cell_words(
                submask_closure_table(self._n_dimensions), self._n_dimensions
            )
        return self._closure

    def _anchored(self) -> Iterator[Tuple[int, int, int]]:
        """Every non-empty cell as ``(subspace, row, anchor bitset)``."""
        n = self._n
        for subspace, slot in self._slots.items():
            occupied = self._cells[slot, :n].any(axis=1)
            for row in np.flatnonzero(occupied).tolist():
                yield subspace, row, self._cell(slot, row)

    def skyline_rows(self, constraint: Constraint, subspace: int) -> np.ndarray:
        """``λ_M(σ_C)`` by Invariant 2, as ascending rows: the tuples
        satisfying ``C`` that are anchored in ``subspace`` at ``C`` or
        one of its ancestors — the slot's cells ANDed with the submask
        closure of ``C``'s mask, then one dimension column test per
        bound position.  Exact for the pairs an algorithm maintains,
        within its ``d̂`` cap."""
        slot = self._slots.get(subspace)
        if slot is None:
            return _EMPTY_ROWS
        n = self._n
        mask = constraint.bound_mask
        hit = (self._cells[slot, :n] & self.closure_words()[mask]).any(axis=1)
        for position in bit_positions(mask):
            vid = self._interner.lookup(position, constraint.values[position])
            if vid is None:
                return _EMPTY_ROWS  # a value no registered row carries
            hit &= self._dims[:n, position] == vid
        return np.flatnonzero(hit)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def iter_pairs(self) -> Iterator[Tuple[PairKey, List[Record]]]:
        """Every non-empty ``(constraint, subspace)`` pair with its
        records — µ in the form the constraint-keyed stores list it
        (the equivalence tests compare the two), read from the table."""
        pairs: Dict[PairKey, List[Record]] = {}
        for subspace, row, anchors in self._anchored():
            record = self.record_at(row)
            for mask in bit_positions(anchors):
                pairs.setdefault(
                    (constraint_for_record(record, mask), subspace), []
                ).append(record)
        return iter(pairs.items())

    def stored_tuple_count(self) -> int:
        """Total stored tuple references (Fig. 10b series)."""
        return self._total

    # ------------------------------------------------------------------
    # Scoring index
    # ------------------------------------------------------------------
    def _build_score_index(self) -> None:
        """Allocate the count matrix, then count every cell already
        anchored as one batch of ``0 → cell`` flips."""
        n_dimensions = self._n_dimensions
        self._counts = np.zeros((64, 1 << self._n_measures), dtype=np.int32)
        # Up-closures are OR-linear in the anchor bits, so the closure
        # of a cell is the OR of one table row per byte of the cell:
        # ``_up_bytes[p, b]`` is the closure of bitset ``b << 8p``.
        up = np.zeros((self._cell_bytes, 1, 8, self._cells.shape[2]), WORD)
        up.reshape(-1, up.shape[3])[: 1 << n_dimensions] = cell_words(
            supermask_closure_table(n_dimensions), n_dimensions
        )
        in_byte = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(bool)
        self._up_bytes = np.bitwise_or.reduce(
            np.where(in_byte[:, :, None], up, 0), axis=2
        )
        n = self._n
        for subspace, slot in self._slots.items():
            cells = self._cells[slot, :n]
            rows = np.flatnonzero(cells.any(axis=1))
            new = cells[rows]
            self._score_flips(
                np.full(rows.shape, subspace), rows, np.zeros_like(new), new
            )

    def _fit_counts(self, top: int) -> None:
        """Grow the count matrix to hold id ``top`` (new rows zero)."""
        size = self._counts.shape[0]
        if top >= size:
            counts = np.zeros((2 * top, self._counts.shape[1]), np.int32)
            counts[:size] = self._counts
            self._counts = counts

    def _score_flips(self, subspaces, rows, old, new) -> None:
        """Move the scoring index for a batch of cell writes
        ``old[i] → new[i]`` at ``(subspaces[i], rows[i])``: the fact
        masks whose ``|λ_M(σ_C)|`` gains or loses the tuple are the
        difference of the two up-closures (byte-table gathers) along
        ``C^t``, their ids one gather of ``_slot_ids``, and the counts
        move by one signed scatter-add."""
        ids = self._slot_ids[rows]
        k = len(rows)
        self._fit_counts(int(ids.max(initial=0)))
        up = np.bitwise_or.reduce(
            self._up_bytes[
                np.arange(self._cell_bytes),
                np.concatenate([old, new]).view(np.uint8),
            ],
            axis=1,
        )
        covered = np.unpackbits(
            up.view(np.uint8), axis=1, count=1 << self._n_dimensions,
            bitorder="little",
        )[:, self._mask_column].view(np.int8)
        # One signed scatter-add over every (cell, mask): +1 where the
        # mask joins the cell's closure, -1 where it leaves, 0 elsewhere
        # (int32 indices and values take ufunc.at's fast path).  Id 0
        # (collapsed positions) soaks up its share and is re-zeroed.
        np.add.at(
            self._counts.reshape(-1),
            (ids * self._counts.shape[1] + subspaces[:, None]).reshape(-1),
            (covered[k:] - covered[:k]).astype(np.int32).reshape(-1),
        )
        self._counts[0] = 0

    def skyline_counts(self, dims: Tuple[object, ...], masks) -> np.ndarray:
        """``|λ_M(σ_C)|`` for the constraints binding ``dims`` at each
        bound mask of ``masks``, in every subspace at once.

        Returns a read-only ``(len(masks), 2^|M|)`` integer matrix —
        row ``i`` belongs to ``masks[i]`` read at its canonical form
        ``masks[i] & bindable_positions(dims)`` (positions of ``dims``
        outside the mask are ignored, and a None value is never bound),
        column ``M`` to the measure subspace with bitmask ``M``: a whole
        arrival's skyline sizes are this call on ``C^t``'s masks plus
        one gather.  A mask given as ``None``, or one beyond ``C^t``, is
        a row the caller does not read; it reads 0 and costs nothing.
        Valid for subspaces whose stores were filled by the discovery
        algorithms (stored tuples satisfy their constraints); a
        subspace nobody maintains reads 0.

        Up to 8 dimensions and 8 measures it reads the count-matrix
        index — the constraint table's ids of ``dims`` and one gather,
        independent of history size.  The index is built on the first
        call (one pass over the non-empty cells) — unscored ingestion
        never pays for it — after which every cell write keeps it
        current.  Past either cap, where that index's memory forbids
        it, the counts come straight from the anchor-bit matrix
        (:meth:`_counts_from_cells`).
        """
        if (
            self._n_dimensions > _MAX_INDEXED_DIMENSIONS
            or self._n_measures > _MAX_INDEXED_MEASURES
        ):
            return self._counts_from_cells(dims, masks)
        if self._counts is None:
            self._build_score_index()
        position_of = self._counter.position_of
        ids = self._counter.ids(dims).tolist()
        index = [
            0 if mask is None or position_of[mask] < 0 else ids[position_of[mask]]
            for mask in masks
        ]
        self._fit_counts(max(index, default=0))
        return self._counts[index]

    def _counts_from_cells(self, dims: Tuple[object, ...], masks) -> np.ndarray:
        """:meth:`skyline_counts` read off the anchor-bit matrix, one
        mask at a time, each at its canonical form ``m``: a row counts
        in subspace ``M`` when its cell meets ``closure_words()[m]`` (it
        is anchored at ``m`` or an ancestor) and it agrees with ``dims``
        on every position of ``m``.  Only the words of the cells the
        closure touches are read, and each position's agreement column
        is computed once — whole-column NumPy, no per-row Python."""
        n = self._n
        probe = self._interner.probe_row(dims)
        bindable = bindable_positions(dims)
        position_of = self._counter.position_of
        subspaces = list(self._slots)
        cells = self._cells[: len(subspaces), :n]
        closure = self.closure_words()
        out = np.zeros((len(masks), 1 << self._n_measures), dtype=np.int64)
        agree: Dict[int, np.ndarray] = {}
        for i, mask in enumerate(masks):
            if mask is None or position_of[mask] < 0:
                continue
            mask &= bindable
            words = np.flatnonzero(closure[mask])
            hit = (cells[:, :, words] & closure[mask, words]).any(axis=2)
            for position in bit_positions(mask):
                if position not in agree:
                    agree[position] = self._dims[:n, position] == probe[position]
                hit &= agree[position]
            out[i, subspaces] = hit.sum(axis=1)
        return out

    def approx_bytes(self) -> int:
        """Resident bytes of the store's own state: the allocated
        column arrays (tids and constraint ids included) and anchor-bit
        matrix, and the scoring index's count matrix and closure table
        (the records are the table's, the constraint table's keys the
        algorithm's)."""
        total = self._values.nbytes + self._dims.nbytes + self._cells.nbytes
        total += self._tids.nbytes + self._slot_ids.nbytes
        if self._counts is not None:
            total += self._counts.nbytes + self._up_bytes.nbytes
        return total

    def clear(self) -> None:
        """Drop every row and cell (the layout stays)."""
        self._n = 0
        self._slots = {}
        self._counts = None
        self._total = 0
        self._sweep = None
        self._dead_count = 0
        self.counters.stored_tuples = 0
        self._allocate()
