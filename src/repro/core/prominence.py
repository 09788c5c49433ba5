"""Prominence measure and context bookkeeping (paper §VII).

The prominence of a fact ``(C, M)`` is ``|σ_C(R)| / |λ_M(σ_C(R))|`` —
the cardinality ratio of the context to its skyline.  Large ratios mean
the new tuple is one of very few skyline tuples among many, i.e. a rare,
newsworthy event.

``|σ_C(R)|`` is maintained incrementally by :class:`ContextCounter`:
every arriving tuple increments the count of each distinct constraint
it satisfies (at most ``2^d̂`` per tuple).  ``|λ_M(σ_C(R))|`` comes from
the discovery algorithm
(:meth:`~repro.algorithms.base.DiscoveryAlgorithm.skyline_column`).
Every engine — any algorithm, and the sharded router — scores a fact set
with the same call::

    facts.set_scores(counter.context_column(facts), skyline_column)
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .config import DiscoveryConfig, effective_bound_cap
from .constraint import UNBOUND, Constraint
from .facts import FactSet, SituationalFact
from .lattice import masks_by_level
from .record import Record

#: A count key: ``(bound mask, interned ids at the bound positions)``.
Key = Tuple[int, Tuple[int, ...]]


class ContextCounter:
    """Incremental ``|σ_C(R)|`` for every constraint of ``C^t`` under
    the ``d̂`` cap, keyed by interned integer ids.

    Dimension values are interned to per-column integer ids once, and
    each constraint is counted under the key ``(bound_mask,
    ids-at-bound-positions)`` instead of a materialised
    :class:`Constraint` — no tuple-of-values hashing, no constraint
    objects per ``(row, mask)``.  Only constraints some live tuple
    satisfies have entries, so memory is bounded by distinct
    dimension-value combinations, not by ``|C_D| = Π(|dom(di)|+1)``.
    :meth:`register_many` ingests whole blocks with one grouped
    ``np.unique`` per mask.

    A dimension *value* equal to the unbound marker (``None``) cannot be
    bound, so the masks covering such a position collapse onto the
    constraint that leaves it free: the row satisfies fewer distinct
    constraints than :attr:`masks` has entries.  Registration bumps each
    *distinct* constraint once, so :meth:`count` is ``|σ_C(R)|`` exactly
    on None rows too; :meth:`counts_for_dims` stays parallel to
    :attr:`masks` (a collapsed mask reads its constraint's count).
    """

    def __init__(
        self, n_dimensions: int, max_bound_dims: Optional[int] = None
    ) -> None:
        cap = effective_bound_cap(n_dimensions, max_bound_dims)
        levels = masks_by_level(n_dimensions)
        #: Allowed bound masks (the ``C^t`` skeleton under ``d̂``), most
        #: general first — the algorithms' ``masks_top_down`` order.
        self.masks: Tuple[int, ...] = tuple(
            m for level in levels[: cap + 1] for m in level
        )
        #: ``position_of[mask]``: the index of an allowed mask in
        #: :attr:`masks` (a fact's position along ``C^t``).
        self.position_of = np.zeros(1 << n_dimensions, dtype=np.int64)
        self.position_of[list(self.masks)] = np.arange(len(self.masks))
        self._positions: Dict[int, Tuple[int, ...]] = {
            mask: tuple(i for i in range(n_dimensions) if (mask >> i) & 1)
            for mask in self.masks
        }
        self._tables: List[Dict[object, int]] = [
            {} for _ in range(n_dimensions)
        ]
        self._counts: Dict[Key, int] = defaultdict(int)
        #: Memo of :meth:`_keys` by dims tuple — bounded-domain streams
        #: repeat dimension combinations constantly, and the engine
        #: derives the keys twice per arrival (registration and the
        #: scoring probe).  FIFO-capped like the algorithms' constraint
        #: cache.
        self._keys_memo: Dict[Tuple[object, ...], List[Key]] = {}

    # ------------------------------------------------------------------
    # Key derivation
    # ------------------------------------------------------------------
    def _intern(self, dims: Tuple[object, ...]) -> List[int]:
        ids = []
        for i, value in enumerate(dims):
            table = self._tables[i]
            vid = table.get(value)
            if vid is None:
                vid = len(table)
                table[value] = vid
            ids.append(vid)
        return ids

    def _keys(self, dims: Tuple[object, ...]) -> List[Key]:
        """One count key per allowed mask, parallel to :attr:`masks`
        (masks covering a ``None`` value collapse onto one key, so the
        list may repeat keys).  Memoised per dims tuple."""
        memo = self._keys_memo
        keys = memo.get(dims)
        if keys is not None:
            return keys
        ids = self._intern(dims)
        positions = self._positions
        if UNBOUND in dims:
            keys = []
            for mask in self.masks:
                bound = [i for i in positions[mask] if dims[i] is not UNBOUND]
                keys.append(
                    (sum(1 << i for i in bound), tuple(ids[i] for i in bound))
                )
        else:
            keys = [
                (mask, tuple(ids[i] for i in positions[mask]))
                for mask in self.masks
            ]
        if len(memo) >= 16384:
            memo.pop(next(iter(memo)))
        memo[dims] = keys
        return keys

    def _distinct_keys(self, dims: Tuple[object, ...]):
        """The keys of :meth:`_keys` once each: the distinct
        constraints of ``C^t`` a row with these values satisfies."""
        keys = self._keys(dims)
        return dict.fromkeys(keys) if UNBOUND in dims else keys

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def register(self, record: Record) -> None:
        """Account for one appended tuple: bump every distinct
        ``C ∈ C^t`` once."""
        counts = self._counts
        for key in self._distinct_keys(record.dims):
            counts[key] += 1

    def register_many(self, records: Iterable[Record]) -> None:
        """Batched registration: group the block's rows per mask with
        ``np.unique`` and bump each distinct key once."""
        records = list(records)
        if len(records) < 16 or any(UNBOUND in r.dims for r in records):
            for record in records:
                self.register(record)
            return
        ids = np.asarray(
            [self._intern(r.dims) for r in records], dtype=np.int64
        )
        counts = self._counts
        block = len(records)
        for mask in self.masks:
            positions = self._positions[mask]
            if not positions:
                counts[(0, ())] += block
                continue
            uniq, per_key = np.unique(
                ids[:, positions], axis=0, return_counts=True
            )
            for key_ids, bump in zip(uniq.tolist(), per_key.tolist()):
                counts[(mask, tuple(key_ids))] += bump

    def unregister(self, record: Record) -> None:
        """Reverse :meth:`register` (deletion extension, §VIII)."""
        counts = self._counts
        for key in self._distinct_keys(record.dims):
            remaining = counts[key] - 1
            if remaining <= 0:
                del counts[key]
            else:
                counts[key] = remaining

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def count(self, constraint: Constraint) -> int:
        """Current ``|σ_C(R)|`` (0 for never-seen values or masks beyond
        ``d̂``)."""
        ids = []
        for i, value in enumerate(constraint.values):
            if value is UNBOUND:
                continue
            vid = self._tables[i].get(value)
            if vid is None:
                return 0
            ids.append(vid)
        return self._counts.get((constraint.bound_mask, tuple(ids)), 0)

    def covers(self, constraint: Constraint) -> bool:
        """True when :meth:`count` is *exactly* ``|σ_C(R)|`` for this
        constraint: its mask is within the maintained ``d̂`` skeleton (a
        mask beyond the cap was never registered, so its count is 0,
        not the context size)."""
        return constraint.bound_mask in self._positions

    def counts_for_dims(self, dims: Tuple[object, ...]) -> List[int]:
        """``|σ_C|`` for every allowed constraint of ``C^t``, parallel
        to :attr:`masks`: one interning sweep plus one dict probe per
        mask.  Masks collapsing onto one constraint (``None`` values)
        carry that constraint's count."""
        counts = self._counts
        return [counts.get(key, 0) for key in self._keys(dims)]

    def context_column(self, facts: FactSet) -> np.ndarray:
        """``|σ_C|`` of every fact of ``S_t`` as one ``int64`` column in
        insertion order — the context half of the one scoring call.

        One :meth:`counts_for_dims` probe, gathered at each fact's
        position along :attr:`masks`: the walker's cell positions for a
        cell-form set, ``position_of[C.bound_mask]`` for a list-form one
        (a fact's constraint always sits at an allowed canonical mask).
        """
        context = np.asarray(
            self.counts_for_dims(facts.record.dims), dtype=np.int64
        )
        cells = facts.cells()
        if cells is not None:
            return context[cells[1]]
        masks = [constraint.bound_mask for constraint, _ in facts.iter_pairs()]
        return context[self.position_of[masks]]

    def __len__(self) -> int:
        return len(self._counts)


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
