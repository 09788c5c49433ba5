"""TopDown — Algorithm 5 of the paper.

Maintains Invariant 2: ``µ_{C,M}`` stores a tuple **only at its maximal
skyline constraints** ``MSC^t_M`` (Defs. 9–10).  The skyline constraints
of any tuple are down-closed (Prop. 2: domination propagates to more
general contexts), so storing only the maximal ones avoids the duplicate
storage BottomUp pays — the paper's space–time trade-off.

Traversal note: the paper's breadth-first queue from ``⊤`` enqueues
every child regardless of pruning (the pruned region is *up-closed*
toward ``⊤``, so skyline constraints may lie below pruned ones).  That
order is exactly "iterate allowed masks by ascending popcount", which we
do directly.  Correctness of on-the-fly pruning is preserved because any
dominator of ``t`` in a context ``C`` is covered by a full-context
skyline tuple whose maximal constraint is an *ancestor* of ``C`` —
visited earlier in level order.

On a domination the whole intersection lattice ``C^{t,t'}`` is marked
pruned (Prop. 3); unlike BottomUp, the scan of ``µ_{C,M}`` continues
after a domination, because other stored tuples may prune constraints
outside ``C^{t,t'}``.  When the new tuple dominates a stored ``t'``,
``t'`` is deleted and re-anchored at the children of ``C`` that ``t'``
satisfies but ``t`` does not (procedure *Dominates*).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.config import DiscoveryConfig
from ..core.constraint import UNBOUND, Constraint, bindable_positions
from ..core.dominance import dominates
from ..core.facts import FactSet
from ..core.lattice import agreement_mask, iter_submasks, iter_supermasks
from ..core.record import Record
from ..core.schema import TableSchema
from ..metrics.counters import OpCounters
from ..storage.base import SkylineStore
from ..storage.memory_store import MemorySkylineStore
from .base import DiscoveryAlgorithm


def repair_demoted_tuple(
    store: SkylineStore,
    new_record: Record,
    demoted: Record,
    constraint: Constraint,
    subspace: int,
    allows_mask,
) -> None:
    """Procedure *Dominates* of Alg. 5.

    ``new_record`` dominates ``demoted`` at ``(constraint, subspace)``
    where ``constraint`` was a maximal skyline constraint of ``demoted``.
    Delete it there, then store it at each child ``C'`` of ``constraint``
    satisfied by ``demoted`` but not ``new_record`` (``CH^{t'}_C − C^t``)
    unless an ancestor of ``C'`` in ``C^{t'} − C^t`` already stores it
    (the ancestors *inside* ``C^t`` cannot: ``constraint`` was maximal).

    ``allows_mask(mask)`` enforces the ``d̂`` truncation: children beyond
    the cap are simply outside the maintained lattice.
    """
    store.delete(constraint, subspace, demoted)
    mask = constraint.bound_mask
    dims = demoted.dims
    new_dims = new_record.dims
    n = len(dims)
    cvalues = constraint.values
    # Candidate children bind one attribute that is currently free and on
    # which the two tuples disagree; iterate those bits only.
    free = ~mask & ((1 << n) - 1)
    while free:
        bit = free & -free
        free ^= bit
        j = bit.bit_length() - 1
        if dims[j] == new_dims[j]:
            # Child lies in C^t: new_record is in that context and still
            # dominates, so demoted is not in its skyline.
            continue
        if dims[j] is UNBOUND:
            # A value equal to the unbound marker cannot be bound —
            # there is no child on this attribute.
            continue
        if not allows_mask(mask | bit):
            continue
        child_mask = mask | bit
        # Ancestors of the child satisfied by demoted but not by
        # new_record all bind j; scan them for an existing anchor.
        stored_above = False
        for sub in iter_submasks(mask):
            if sub == mask:
                continue
            anc_values = [
                cvalues[i] if sub & (1 << i) else UNBOUND for i in range(n)
            ]
            anc_values[j] = dims[j]
            anc = Constraint.from_values_mask(tuple(anc_values), sub | bit)
            if store.contains(anc, subspace, demoted):
                stored_above = True
                break
        if not stored_above:
            child_values = list(cvalues)
            child_values[j] = dims[j]
            child = Constraint.from_values_mask(tuple(child_values), child_mask)
            store.insert(child, subspace, demoted)


class TopDown(DiscoveryAlgorithm):
    """Top-down lattice traversal with maximal-constraint materialisation
    (Alg. 5; Invariant 2)."""

    name = "topdown"

    def __init__(
        self,
        schema: TableSchema,
        config: Optional[DiscoveryConfig] = None,
        counters: Optional[OpCounters] = None,
        store: Optional[SkylineStore] = None,
    ) -> None:
        super().__init__(schema, config, counters)
        self.store = store if store is not None else MemorySkylineStore(self.counters)
        # parents_by_mask[m] lists m's parent masks (used for inAnces).
        self._parents: List[Tuple[int, ...]] = [
            tuple(m & ~(1 << i) for i in range(schema.n_dimensions) if m & (1 << i))
            for m in range(1 << schema.n_dimensions)
        ]

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def _discover(self, record: Record) -> FactSet:
        facts = FactSet(record)
        constraints = self.constraint_cache(record)
        for subspace in self.subspaces:
            self._discover_subspace(record, subspace, facts, constraints)
        return facts

    def _discover_subspace(
        self,
        record: Record,
        subspace: int,
        facts: FactSet,
        constraints: Dict[int, Constraint],
    ) -> None:
        store = self.store
        counters = self.counters
        pruned = bytearray(1 << self.schema.n_dimensions)
        parents = self._parents
        # Distinct constraints of C^t form the boolean lattice over the
        # *bindable* positions: a dimension value equal to the unbound
        # marker collapses every covering mask onto the constraint that
        # leaves it free.  Pruning state must therefore be read at the
        # collapsed canonical mask, or a duplicate raw mask re-reports a
        # constraint its canonical visit saw pruned (the historical
        # over-reporting bug on unbindable values).
        bindable = bindable_positions(record.dims)
        for mask in self.masks_top_down:
            constraint = constraints[mask]
            counters.traversed_constraints += 1
            canonical = mask & bindable
            # The µ scan runs even at already-pruned constraints: tuples
            # anchored here may prune constraints outside the already
            # marked C^{t,t'} families, and those are only discoverable
            # through this comparison (maximal storage keeps them
            # invisible at their descendants).
            for other in store.get(constraint, subspace):
                counters.comparisons += 1
                if dominates(other, record, subspace):
                    agree = agreement_mask(record.dims, other.dims)
                    for sub in iter_submasks(agree):
                        pruned[sub] = True
                elif dominates(record, other, subspace):
                    repair_demoted_tuple(
                        store, record, other, constraint, subspace, self.allowed_mask
                    )
            if not pruned[canonical]:
                facts.add_pair(constraint, subspace)
                # t is stored at an ancestor iff some parent is a skyline
                # constraint (then t sits at that parent or higher); this
                # is C maximal iff every parent is pruned.  Parents are
                # read at their canonical masks too: a raw duplicate has
                # a parent collapsing onto the constraint itself (still
                # unpruned here), so only the canonical visit anchors.
                if all(pruned[p & bindable] for p in parents[mask]):
                    store.insert(constraint, subspace, record)

    # ------------------------------------------------------------------
    # Prominence / accounting
    # ------------------------------------------------------------------
    def _skyline_sizes_bulk(
        self,
        dims: Tuple[object, ...],
        constraint_of,
        masks_by_subspace: Dict[int, Set[int]],
    ) -> Dict[Tuple[Constraint, int], int]:
        """Shared Invariant-2 size resolver, one sweep per subspace.

        ``constraint_of(mask)`` must return the constraint binding
        ``dims`` at exactly ``mask``'s positions.  A stored tuple ``u``
        is in ``λ_M(σ_C)`` for every fact mask between its anchor and
        its agreement mask with ``dims`` (it satisfies those contexts,
        and skyline-ness is down-closed below a maximal constraint).
        Both the bulk per-arrival path and the single-pair query path
        wrap this, so the two cannot drift.
        """
        store = self.store
        allowed = self.allowed_mask
        sizes: Dict[Tuple[Constraint, int], int] = {}
        agree_cache: Dict[int, int] = {}
        for subspace, fact_masks in masks_by_subspace.items():
            union = 0
            for fm in fact_masks:
                union |= fm
            tids_by_mask: Dict[int, Set[int]] = {m: set() for m in fact_masks}
            # Anchors above the d̂ cap store nothing; skip the probes.
            for anchor in iter_submasks(union):
                if not allowed(anchor):
                    continue
                for u in store.get(constraint_of(anchor), subspace):
                    agree = agree_cache.get(u.tid)
                    if agree is None:
                        agree = agreement_mask(u.dims, dims)
                        agree_cache[u.tid] = agree
                    for fm in iter_supermasks(anchor, agree & union):
                        bucket = tids_by_mask.get(fm)
                        if bucket is not None:
                            bucket.add(u.tid)
            for fm in fact_masks:
                sizes[(constraint_of(fm), subspace)] = len(tids_by_mask[fm])
        return sizes

    def skyline_size(self, constraint: Constraint, subspace: int) -> int:
        """Invariant 2: the skyline of ``(C, M)`` is the set of tuples
        anchored at ``C`` or any ancestor of ``C`` that also satisfy
        ``C`` (every skyline tuple's maximal constraint lies on or above
        ``C``).  Thin wrapper over :meth:`_skyline_sizes_bulk`."""
        values = constraint.values
        n = constraint.arity

        def constraint_of(mask: int) -> Constraint:
            if mask == constraint.bound_mask:
                return constraint
            return Constraint(
                tuple(
                    values[i] if mask & (1 << i) else UNBOUND for i in range(n)
                )
            )

        sizes = self._skyline_sizes_bulk(
            values, constraint_of, {subspace: {constraint.bound_mask}}
        )
        return sizes[(constraint, subspace)]

    def skyline_sizes(self, facts: FactSet) -> Dict[Tuple[Constraint, int], int]:
        """One sweep per subspace: every tuple anchored at a constraint
        of ``C^t`` contributes to each fact mask between its anchor and
        its agreement mask with the new tuple."""
        record = facts.record
        constraints = self.constraint_cache(record)
        masks_by_subspace: Dict[int, Set[int]] = {}
        for constraint, subspace in facts.iter_pairs():
            masks_by_subspace.setdefault(subspace, set()).add(
                constraint.bound_mask
            )
        return self._skyline_sizes_bulk(
            record.dims, constraints.__getitem__, masks_by_subspace
        )

    def _repair_after_retract(self, removed: Record) -> None:
        from .retraction import retract_top_down

        retract_top_down(
            self.store,
            self.table,
            removed,
            self.masks_top_down,
            self.maintained_subspaces(),
            self.allowed_mask,
            self.dim_universe,
        )

    def stored_tuple_count(self) -> int:
        return self.store.stored_tuple_count()

    def approx_bytes(self) -> int:
        return self.store.approx_bytes()

    def reset(self) -> None:
        super().reset()
        self.store.clear()
