"""Prominence measure and context bookkeeping (paper §VII).

The prominence of a fact ``(C, M)`` is ``|σ_C(R)| / |λ_M(σ_C(R))|`` —
the cardinality ratio of the context to its skyline.  Large ratios mean
the new tuple is one of very few skyline tuples among many, i.e. a rare,
newsworthy event.

``|σ_C(R)|`` is maintained incrementally by :class:`ContextCounter`:
every arriving tuple increments the count of each constraint it
satisfies (at most ``2^d̂`` per tuple).  ``|λ_M(σ_C(R))|`` comes from the
algorithm's skyline store (or a from-scratch oracle fallback).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .config import DiscoveryConfig, effective_bound_cap
from .constraint import UNBOUND, Constraint, satisfied_constraints
from .facts import FactSet, SituationalFact
from .lattice import masks_by_level
from .record import Record


class ContextCounter:
    """Incremental ``|σ_C(R)|`` for every constraint seen so far.

    Only constraints actually satisfied by some tuple have entries, so
    memory is bounded by distinct dimension-value combinations, not by
    ``|C_D| = Π(|dom(di)|+1)``.
    """

    def __init__(self, max_bound_dims: Optional[int] = None) -> None:
        self._counts: Dict[Constraint, int] = defaultdict(int)
        self._max_bound = max_bound_dims
        self._saw_unbindable = False

    def register(
        self, record: Record, constraints: Optional[Iterable[Constraint]] = None
    ) -> None:
        """Account for one appended tuple: bump every ``C ∈ C^t``.

        ``constraints`` lets callers that already hold ``C^t`` (the
        discovery algorithms memoise it per dims tuple — see
        ``DiscoveryAlgorithm.constraint_cache``) share it instead of
        re-deriving the same ``2^d̂`` objects here.
        """
        counts = self._counts
        if UNBOUND in record.dims:
            self._saw_unbindable = True
        if constraints is None:
            constraints = satisfied_constraints(record, self._max_bound)
        for constraint in constraints:
            counts[constraint] += 1

    def register_many(self, records: Iterable[Record]) -> None:
        """Batched :meth:`register` (no per-record result is needed, so
        callers ingesting blocks skip the per-call dispatch)."""
        for record in records:
            self.register(record)

    def unregister(
        self, record: Record, constraints: Optional[Iterable[Constraint]] = None
    ) -> None:
        """Reverse :meth:`register` (deletion extension, §VIII)."""
        counts = self._counts
        if constraints is None:
            constraints = satisfied_constraints(record, self._max_bound)
        for constraint in constraints:
            remaining = counts[constraint] - 1
            if remaining <= 0:
                del counts[constraint]
            else:
                counts[constraint] = remaining

    def count(self, constraint: Constraint) -> int:
        """Current ``|σ_C(R)|``."""
        return self._counts.get(constraint, 0)

    def covers(self, constraint: Constraint) -> bool:
        """True when :meth:`count` is *exactly* ``|σ_C(R)|`` for this
        constraint.

        Two things break exactness: a mask beyond the ``d̂`` cap was
        never registered (count is 0, not the context size), and a
        registered tuple with an unbindable (``None``) dimension value
        collapses several masks onto one constraint and bumps it once
        per covering mask — a multiset multiplicity, not a cardinality.
        """
        if self._saw_unbindable:
            return False
        cap = effective_bound_cap(constraint.arity, self._max_bound)
        return constraint.bound_count <= cap

    def __len__(self) -> int:
        return len(self._counts)


class ColumnarContextCounter:
    """``|σ_C(R)|`` with interned integer keys and batched registration.

    Drop-in replacement for :class:`ContextCounter` used by the
    vectorized engine: dimension values are interned to per-column
    integer ids once, and each constraint of ``C^t`` is counted under
    the key ``(bound_mask, ids-at-bound-positions)`` instead of a
    materialised :class:`Constraint` — no tuple-of-values hashing, no
    constraint objects per ``(row, mask)``.  :meth:`register_many`
    ingests whole blocks with one grouped ``np.unique`` per mask, so
    unscored batch ingestion touches the count table once per distinct
    key rather than once per row.

    A dimension *value* equal to the unbound marker (``None``) cannot be
    bound, so masks covering such positions collapse onto the constraint
    that leaves them free — exactly like the scalar counter, which
    counts the collapsed constraint once per covering mask.
    """

    def __init__(
        self, n_dimensions: int, max_bound_dims: Optional[int] = None
    ) -> None:
        self._n = n_dimensions
        self._max_bound = max_bound_dims
        cap = effective_bound_cap(n_dimensions, max_bound_dims)
        levels = masks_by_level(n_dimensions)
        #: Allowed bound masks (the ``C^t`` skeleton under ``d̂``), most
        #: general first — the algorithms' ``masks_top_down`` order.
        self.masks: Tuple[int, ...] = tuple(
            m for level in levels[: cap + 1] for m in level
        )
        self._positions: Dict[int, Tuple[int, ...]] = {
            mask: tuple(i for i in range(n_dimensions) if (mask >> i) & 1)
            for mask in self.masks
        }
        self._tables: List[Dict[object, int]] = [
            {} for _ in range(n_dimensions)
        ]
        self._counts: Dict[Tuple[int, Tuple[int, ...]], int] = defaultdict(int)
        #: Memo of :meth:`_keys` by dims tuple — bounded-domain streams
        #: repeat dimension combinations constantly, and the engine
        #: derives the keys twice per arrival (count registration and
        #: the bulk scoring probe).  FIFO-capped like the algorithms'
        #: constraint cache.
        self._keys_memo: Dict[Tuple[object, ...], List[Tuple[int, Tuple[int, ...]]]] = {}

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

    def _keys(self, dims: Tuple[object, ...]) -> List[Tuple[int, Tuple[int, ...]]]:
        """One count key per allowed mask (multiset — masks covering an
        unbindable ``None`` value collapse, preserving multiplicity).
        Memoised per dims tuple."""
        memo = self._keys_memo
        keys = memo.get(dims)
        if keys is not None:
            return keys
        ids = self._intern(dims)
        positions = self._positions
        if UNBOUND in dims:
            keys = []
            for mask in self.masks:
                eff_mask = 0
                eff_ids = []
                for i in positions[mask]:
                    if dims[i] is not UNBOUND:
                        eff_mask |= 1 << i
                        eff_ids.append(ids[i])
                keys.append((eff_mask, tuple(eff_ids)))
        else:
            keys = [
                (mask, tuple(ids[i] for i in positions[mask]))
                for mask in self.masks
            ]
        if len(memo) >= 16384:
            memo.pop(next(iter(memo)))
        memo[dims] = keys
        return keys

    # ------------------------------------------------------------------
    # ContextCounter API
    # ------------------------------------------------------------------
    def register(
        self, record: Record, constraints: Optional[Iterable[Constraint]] = None
    ) -> None:
        """Account for one appended tuple (``constraints`` is accepted
        for interface parity and ignored — keys come from the ids)."""
        counts = self._counts
        for key in self._keys(record.dims):
            counts[key] += 1

    def register_many(self, records: Iterable[Record]) -> None:
        """Batched registration: group the block's rows per mask with
        ``np.unique`` and bump each distinct key once."""
        records = list(records)
        if len(records) < 16 or any(UNBOUND in r.dims for r in records):
            for record in records:
                self.register(record)
            return
        import numpy as np

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

    def unregister(
        self, record: Record, constraints: Optional[Iterable[Constraint]] = None
    ) -> None:
        """Reverse :meth:`register` (deletion extension, §VIII)."""
        counts = self._counts
        for key in self._keys(record.dims):
            remaining = counts[key] - 1
            if remaining <= 0:
                del counts[key]
            else:
                counts[key] = remaining

    def count(self, constraint: Constraint) -> int:
        """Current ``|σ_C(R)|`` (0 for never-seen values or masks beyond
        ``d̂`` — same contract as the scalar counter)."""
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
        constraint: the mask is within the maintained ``C^t`` skeleton
        and no registered row carried an unbindable (``None``) dimension
        value — whose mask collapse makes counts multiset multiplicities
        rather than context sizes (see :meth:`_keys`).
        """
        if constraint.bound_mask not in self._positions:
            return False
        return not any(UNBOUND in table for table in self._tables)

    def counts_for_dims(self, dims: Tuple[object, ...]) -> List[int]:
        """``|σ_C|`` for every allowed constraint of ``C^t``, parallel
        to :attr:`masks`.

        One interning sweep plus one dict probe per mask — the columnar
        scoring path reads a whole arrival's context cardinalities here
        instead of calling :meth:`count` once per fact constraint.
        Masks collapsing onto one constraint (unbindable values) carry
        that constraint's count, exactly like :meth:`count` on the
        collapsed constraint.
        """
        counts = self._counts
        return [counts.get(key, 0) for key in self._keys(dims)]

    def __len__(self) -> int:
        return len(self._counts)


def score_facts(
    facts: FactSet,
    counter: ContextCounter,
    sizes_by_pair: Mapping,
) -> FactSet:
    """Attach context / skyline cardinalities to every fact in ``S_t``.

    ``sizes_by_pair[(C, M)]`` must be ``|λ_M(σ_C(R))|`` *after* the new
    tuple has been incorporated (algorithms produce it in bulk via
    :meth:`~repro.algorithms.base.DiscoveryAlgorithm.skyline_sizes`).
    Whole score columns are attached in one pass over the fact set's
    ``(C, M)`` columns — no fact objects are materialised here, and any
    already-materialised objects are annotated in place by
    :meth:`FactSet.set_scores`.  The same :class:`FactSet` is returned.
    """
    count_cache: Dict[Constraint, int] = {}
    context_sizes: List[int] = []
    skyline_sizes: List[int] = []
    for constraint, subspace in facts.iter_pairs():
        size = count_cache.get(constraint)
        if size is None:
            size = counter.count(constraint)
            count_cache[constraint] = size
        context_sizes.append(size)
        skyline_sizes.append(sizes_by_pair[(constraint, subspace)])
    facts.set_scores(context_sizes, skyline_sizes)
    return facts


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


