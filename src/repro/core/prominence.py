"""Prominence measure and the constraint table (paper §VII).

The prominence of a fact ``(C, M)`` is ``|σ_C(R)| / |λ_M(σ_C(R))|`` —
the cardinality ratio of the context to its skyline.  Large ratios mean
the new tuple is one of very few skyline tuples among many, i.e. a rare,
newsworthy event.

:class:`ContextCounter` is the one table from constraint to id: every
discovery algorithm owns one beside its history and registers each
arrival in it, bumping ``|σ_C(R)|`` of each distinct constraint of
``C^t`` the tuple satisfies (at most ``2^d̂`` per tuple).  ``svec``'s
columnar store keys its dimension columns by the table's interner and
its skyline-cardinality index by the table's ids, so
``|λ_M(σ_C(R))|`` (:meth:`~repro.algorithms.base.DiscoveryAlgorithm.\
skyline_column`) is read under the same key as ``|σ_C(R)|``.  Every
engine — any algorithm, and the sharded router, which keeps a table of
its own — scores a fact set with the same call::

    facts.set_scores(counter.context_column(facts), skyline_column)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import DiscoveryConfig, effective_bound_cap
from .constraint import UNBOUND, Constraint
from .facts import FactSet, SituationalFact
from .lattice import masks_by_level
from .record import Record

#: An interned id no value holds: a probe reads it for a value never
#: seen, where it can agree with nothing.
ABSENT_ID = -2


class ColumnInterner:
    """Per-column ``value → int32`` id tables for dimension matrices.

    The file codec's :class:`~repro.storage.codec.DimensionInterner` is
    a single bidirectional catalog; columnar math wants one dense id
    space *per column* (ids double as equality classes inside that
    column) and no reverse lookup.  Each :class:`ContextCounter` holds
    one, which keys its constraints, the columnar store's dimension
    columns and the vectorized baseline's.
    """

    __slots__ = ("_tables",)

    def __init__(self, n_columns: int) -> None:
        self._tables: List[Dict[object, int]] = [{} for _ in range(n_columns)]

    def lookup(self, column: int, value) -> Optional[int]:
        """The id of ``value`` in ``column`` (``None`` if never seen)."""
        return self._tables[column].get(value)

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

    def probe_row(self, values) -> np.ndarray:
        """:meth:`intern_row` without interning: a value never seen
        reads :data:`ABSENT_ID`."""
        return np.array(
            [
                ABSENT_ID if vid is None else vid
                for vid in map(self.lookup, range(len(self._tables)), values)
            ],
            dtype=np.int32,
        )


class ContextCounter:
    """The constraint table: one dense id and one live ``|σ_C(R)|`` per
    constraint of ``C^t`` (under the ``d̂`` cap) some live tuple
    satisfies.

    A constraint's key is the ``bytes`` of its ``int32`` id vector —
    interned value id + 1 at each bound position, 0 elsewhere — built
    at the *canonical* mask ``m & bindable_positions(dims)``: a
    dimension *value* equal to the unbound marker (``None``) cannot be
    bound, so every mask covering it collapses onto the constraint that
    leaves it free and reads the same key.  A row registers each
    *distinct* constraint once, so :meth:`count` is ``|σ_C(R)|`` exactly
    on None rows too.  Ids are dense and recycled: one is freed when its
    count reaches 0, so the table is bounded by the distinct constraints
    of the live rows; id 0 is no constraint and counts nothing.  The
    ids of the last registered arrival are kept, so the reads of its
    scoring — :meth:`context_column` and the store's skyline counts —
    derive nothing again.
    """

    def __init__(
        self, n_dimensions: int, max_bound_dims: Optional[int] = None
    ) -> None:
        cap = effective_bound_cap(n_dimensions, max_bound_dims)
        levels = masks_by_level(n_dimensions)
        self.n_dimensions = n_dimensions
        #: Allowed bound masks (the ``C^t`` skeleton under ``d̂``), most
        #: general first — the algorithms' ``masks_top_down`` order.
        self.masks: Tuple[int, ...] = tuple(
            m for level in levels[: cap + 1] for m in level
        )
        #: ``position_of[mask]``: the index of an allowed mask in
        #: :attr:`masks` (a fact's position along ``C^t``); -1 for a
        #: mask beyond ``d̂``.
        self.position_of = np.full(1 << n_dimensions, -1, dtype=np.int32)
        self.position_of[list(self.masks)] = np.arange(len(self.masks))
        #: The one per-column value interner.  It only grows: ids are
        #: never reused, so it does not shrink when rows leave.
        self.interner = ColumnInterner(n_dimensions)
        self._mask_column = np.asarray(self.masks, dtype=np.int64)
        #: ``_select[p, i]``: 1 iff mask ``masks[p]`` binds position i.
        self._select = (
            self._mask_column[:, None] >> np.arange(n_dimensions) & 1
        ).astype(np.int32)
        self._ids: Dict[bytes, int] = {}
        #: ``_live[id]``: ``|σ_C(R)|`` of the constraint holding ``id``.
        self._live = np.zeros(64, dtype=np.int32)
        self._free: List[int] = []
        #: ``(dims, ids)`` of the last registered arrival.
        self._last: Tuple[Optional[Tuple[object, ...]], Optional[np.ndarray]]
        self._last = (None, None)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def _keys(self, dims: Tuple[object, ...], vids: np.ndarray) -> List[bytes]:
        """One key per position along :attr:`masks`, at its canonical
        mask (masks collapsing on a None value repeat a key)."""
        codes = vids + 1
        if UNBOUND in dims:
            codes[[i for i, value in enumerate(dims) if value is UNBOUND]] = 0
        data = (codes * self._select).tobytes()
        size = 4 * self.n_dimensions
        return [data[p * size : (p + 1) * size] for p in range(len(self.masks))]

    def _own(self, dims: Tuple[object, ...], ids: np.ndarray) -> np.ndarray:
        """``ids`` with 0 at every position whose mask covers a None
        value: each distinct constraint of the row once, at its
        canonical position."""
        if UNBOUND not in dims:
            return ids
        unbound = sum(1 << i for i, value in enumerate(dims) if value is UNBOUND)
        return np.where(self._mask_column & unbound, 0, ids).astype(np.int32)

    def ids(self, dims: Tuple[object, ...]) -> np.ndarray:
        """The id of the constraint binding ``dims`` at each position
        along :attr:`masks` (collapsed masks read their canonical
        constraint's), 0 where no live row satisfies it.  Looks up only:
        values never seen are not interned."""
        last, ids = self._last
        if last == dims:
            return ids
        keys = self._keys(dims, self.interner.probe_row(dims))
        get = self._ids.get
        return np.array([get(key, 0) for key in keys], dtype=np.int32)

    def row_ids(self, dims: Tuple[object, ...]) -> np.ndarray:
        """The ids a row with these values holds along :attr:`masks`,
        each distinct constraint once: 0 where a mask collapses."""
        return self._own(dims, self.ids(dims))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def register(self, record: Record) -> None:
        """Account for one appended tuple: bump every distinct
        ``C ∈ C^t`` once, giving a constraint no live row held a fresh
        (or recycled) id."""
        dims = record.dims
        keys = self._keys(dims, self.interner.intern_row(dims))
        table = self._ids
        ids = list(map(table.get, keys))
        if None in ids:
            free = self._free
            for p, key in enumerate(keys):
                if ids[p] is None:
                    vid = table.get(key)
                    if vid is None:
                        vid = table[key] = free.pop() if free else len(table) + 1
                    ids[p] = vid
            if max(ids) >= len(self._live):
                self._live = np.concatenate(
                    [self._live, np.zeros(max(ids) + 1, dtype=np.int32)]
                )
        ids = np.array(ids, dtype=np.int32)
        self._live[self._own(dims, ids)] += 1
        self._live[0] = 0
        self._last = (dims, ids)

    def unregister(self, record: Record) -> None:
        """Reverse :meth:`register` (deletion extension, §VIII): a
        constraint no live row satisfies any more frees its id."""
        dims = record.dims
        keys = self._keys(dims, self.interner.intern_row(dims))
        table = self._ids
        own = self._own(dims, np.array([table[key] for key in keys], np.int32))
        live = self._live
        live[own] -= 1
        live[0] = 0
        for p in np.flatnonzero((live[own] == 0) & (own != 0)).tolist():
            self._free.append(table.pop(keys[p]))
        self._last = (None, None)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def count(self, constraint: Constraint) -> int:
        """Current ``|σ_C(R)|`` (0 for never-seen values or masks beyond
        ``d̂``)."""
        codes = np.zeros(self.n_dimensions, dtype=np.int32)
        for i, value in enumerate(constraint.values):
            if value is UNBOUND:
                continue
            vid = self.interner.lookup(i, value)
            if vid is None:
                return 0
            codes[i] = vid + 1
        return int(self._live[self._ids.get(codes.tobytes(), 0)])

    def covers(self, constraint: Constraint) -> bool:
        """True when :meth:`count` is *exactly* ``|σ_C(R)|`` for this
        constraint: its mask is within the maintained ``d̂`` skeleton (a
        mask beyond the cap was never registered, so its count is 0,
        not the context size)."""
        return self.position_of[constraint.bound_mask] >= 0

    def counts_for_dims(self, dims: Tuple[object, ...]) -> List[int]:
        """``|σ_C|`` for every allowed constraint of ``C^t``, parallel
        to :attr:`masks`: one gather of the live counts at
        :meth:`ids`.  Masks collapsing onto one constraint (``None``
        values) carry that constraint's count."""
        return self._live[self.ids(dims)].tolist()

    def context_column(self, facts: FactSet) -> np.ndarray:
        """``|σ_C|`` of every fact of ``S_t`` as one ``int32`` column in
        insertion order — the context half of the one scoring call.

        One :meth:`counts_for_dims` probe, gathered at each fact's
        position along :attr:`masks` (the cell positions of ``S_t``).
        """
        context = np.asarray(
            self.counts_for_dims(facts.record.dims), dtype=np.int32
        )
        return context[facts.cells()[1]]

    def __len__(self) -> int:
        return len(self._ids)


def select_reportable(facts: FactSet, config: DiscoveryConfig) -> List[SituationalFact]:
    """Apply the reporting policy of §VII to a scored ``S_t``.

    * ``tau`` set → the *prominent facts*: ties at the maximum
      prominence, provided it reaches ``τ`` (``top_k`` is then ignored:
      with both set, ``tau`` wins);
    * ``top_k`` set → the ``k`` most prominent (ties kept);
    * neither → everything, ranked.

    Winners are picked off the fact set's prominence *column*; only
    they are materialised as :class:`SituationalFact` objects.
    """
    if config.tau is not None:
        return facts.prominent(config.tau)
    if config.top_k is not None:
        return facts.top_k(config.top_k)
    return facts.ranked()
