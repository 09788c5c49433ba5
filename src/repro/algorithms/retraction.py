"""Tuple retraction — the paper's §VIII "deletion and update" extension.

The paper's model is append-only; deletions are named as future work.
This module adds them: :func:`retract_bottom_up` repairs an Invariant-1
store and :func:`retract_top_down` an Invariant-2 store after a tuple is
removed from the relation.

Key observation limiting the repair scope: removing ``u`` can only
change the skyline of a pair ``(C, M)`` where ``u`` itself was a skyline
tuple — if ``u`` was dominated at ``(C, M)`` by ``v``, then any tuple
``u`` dominated there is also dominated by ``v`` (transitivity), so the
skyline is unchanged.  For Invariant-1 stores that is exactly the set of
pairs storing ``u``; for Invariant-2 stores it is the up-set of ``u``'s
anchor masks (skyline constraints are down-closed from their maximal
elements — descendants of an anchor, not ancestors).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set

import numpy as np

from ..core.constraint import (
    UNBOUND,
    Constraint,
    bindable_positions,
    constraint_for_record,
)
from ..core.dominance import dominates
from ..core.lattice import (
    iter_submasks,
    iter_supermasks,
    popcount,
    submask_closure_table,
    supermask_closure_table,
)
from ..core.record import Record
from ..core.skyline import contextual_skyline
from ..storage.base import SkylineStore


def retract_bottom_up(
    store: SkylineStore,
    table: Iterable[Record],
    removed: Record,
    constraint_masks: Sequence[int],
    subspaces: Sequence[int],
) -> None:
    """Repair an Invariant-1 store after ``removed`` left the table.

    ``table`` must already exclude the removed record.  For every pair
    that stored the record, the contextual skyline is recomputed from
    the table and tuples previously suppressed by the record are
    re-inserted.
    """
    records = list(table)
    for mask in constraint_masks:
        constraint = constraint_for_record(removed, mask)
        for subspace in subspaces:
            if not store.contains(constraint, subspace, removed):
                continue
            store.delete(constraint, subspace, removed)
            current = {r.tid for r in store.get(constraint, subspace)}
            for record in contextual_skyline(records, constraint, subspace):
                if record.tid not in current:
                    store.insert(constraint, subspace, record)


def retract_top_down(
    store: SkylineStore,
    table: Iterable[Record],
    removed: Record,
    constraint_masks: Sequence[int],
    subspaces: Sequence[int],
    allows_mask,
    dim_universe: int,
) -> None:
    """Repair an Invariant-2 store after ``removed`` left the table.

    For each subspace: find the removed tuple's anchor masks, walk the
    up-set of those masks (all more specific constraints, where the
    tuple was a skyline tuple), recompute each affected contextual
    skyline, and re-anchor tuples that re-enter — inserting them at the
    now-maximal constraints and deleting their demoted descendants.
    Masks are processed most-general-first so maximality checks can rely
    on already-repaired ancestors.
    """
    records = list(table)
    allowed = [m for m in constraint_masks if allows_mask(m)]
    for subspace in subspaces:
        anchors = [
            mask
            for mask in allowed
            if store.contains(
                constraint_for_record(removed, mask), subspace, removed
            )
        ]
        if not anchors:
            continue
        # Up-set of the anchors: every allowed mask containing an anchor.
        affected: Set[int] = set()
        for anchor in anchors:
            for sup in iter_supermasks(anchor, dim_universe):
                if allows_mask(sup):
                    affected.add(sup)
        # Remove the tuple from its anchors first.
        for anchor in anchors:
            store.delete(
                constraint_for_record(removed, anchor), subspace, removed
            )
        for mask in sorted(affected, key=popcount):
            constraint = constraint_for_record(removed, mask)
            for record in contextual_skyline(records, constraint, subspace):
                if not dominates(removed, record, subspace):
                    continue  # was in the skyline already; anchors fine
                _anchor_if_maximal(store, record, constraint, mask, subspace)


def retract_top_down_columnar(
    store,
    removed: Record,
    constraint_masks: Sequence[int],
    subspaces: Sequence[int],
) -> None:
    """Columnar :func:`retract_top_down` over a ``ColumnarSkylineStore``.

    Same repair, answered from the columns instead of full-table
    scans: the removed tuple's anchors are its cells of the store's
    anchor-bit matrix, candidate re-entrants are the rows the removed
    tuple dominated (one dominance sweep over the measure columns,
    shared by every subspace), and per affected mask the "is the
    candidate back in the skyline?" check runs as a batched comparison
    against the context rows only.  Re-anchoring replays
    :func:`_anchor_if_maximal` with bitset arithmetic — "ancestor
    already anchored?" / "which descendant anchors are shadowed?" are
    single ANDs of the candidate's cell against the submask / supermask
    closure tables.  The victim's clears and every re-anchor accumulate
    in one ``{(subspace, row): anchor bitset}`` overlay, written to the
    store once (:meth:`ColumnarSkylineStore.apply_cells`).

    ``removed`` must be registered in the store.  Where it carries an
    unbindable (None) dimension value its anchors sit at canonical
    masks only, so the affected up-set is cut to the masks inside its
    bindable positions — the raw masks collapsing onto them repeat the
    same constraints and would re-anchor nothing.
    """
    row_u = store.row_of(removed.tid)
    n = store.n_rows
    n_dims = len(removed.dims)
    closure = submask_closure_table(n_dims)
    up = supermask_closure_table(n_dims)
    values = store.values_matrix()
    n_measures = values.shape[1]
    # Orientation as in the arrival sweep: lt[r] bits where row r beats
    # the removed tuple, gt[r] bits where the removed tuple beats row r.
    lt, gt, agree = store.partition_bitmasks(removed)
    alive = np.ones(n, dtype=bool)
    alive[row_u] = False
    bindable = closure[bindable_positions(removed.dims)]
    cells = {}
    for subspace in subspaces:
        ab_u = store.anchor_cell(subspace, row_u)
        if not ab_u:
            continue
        # Remove the tuple from its anchors first (scalar order).
        cells[subspace, row_u] = 0
        # Only tuples the removed one dominated there can re-enter.
        dominated_by_u = ((gt & subspace) != 0) & ((lt & subspace) == 0) & alive
        if not bool(dominated_by_u.any()):
            continue
        # Up-set of the anchors: every affected (more specific) mask.
        affected = 0
        remaining = ab_u
        while remaining:
            bit = remaining & -remaining
            remaining ^= bit
            affected |= up[bit.bit_length() - 1]
        affected &= bindable
        positions = [i for i in range(n_measures) if (subspace >> i) & 1]
        # constraint_masks is popcount-ascending (and d̂-filtered), so
        # maximality checks see already-repaired ancestors, exactly like
        # the scalar most-general-first walk.
        for mask in constraint_masks:
            if not (affected >> mask) & 1:
                continue
            in_context = ((agree & mask) == mask) & alive
            candidates = np.nonzero(in_context & dominated_by_u)[0]
            if candidates.size == 0:
                continue
            context_values = values[np.nonzero(in_context)[0]][:, positions]
            for r in candidates.tolist():
                candidate_values = values[r, positions]
                ge_all = (context_values >= candidate_values).all(axis=1)
                gt_any = (context_values > candidate_values).any(axis=1)
                if bool((ge_all & gt_any).any()):
                    continue  # still dominated in this context
                anchored = cells.get((subspace, r))
                if anchored is None:
                    anchored = store.anchor_cell(subspace, r)
                # Bitset replay of _anchor_if_maximal: anchor here
                # unless a more general anchor covers this constraint,
                # shedding the descendant anchors it shadows.
                if not anchored & closure[mask] & ~(1 << mask):
                    cells[subspace, r] = anchored & ~up[mask] | 1 << mask
    if cells:
        store.apply_cells(*zip(*cells), list(cells.values()))


def _anchor_if_maximal(
    store: SkylineStore,
    record: Record,
    constraint: Constraint,
    mask: int,
    subspace: int,
) -> None:
    """``constraint`` just became a skyline constraint of ``record``:
    anchor it there unless an ancestor already is one, and demote any
    descendant anchors it shadows."""
    n = constraint.arity
    for sub in iter_submasks(mask):
        if sub == mask:
            continue
        anc = Constraint(
            tuple(constraint.values[i] if sub & (1 << i) else UNBOUND for i in range(n))
        )
        if store.contains(anc, subspace, record):
            return  # a more general anchor covers this constraint
    # Demote shadowed descendant anchors (they are no longer maximal).
    for sup in iter_supermasks(mask, (1 << n) - 1):
        if sup == mask:
            continue
        desc = constraint_for_record(record, sup)
        if store.contains(desc, subspace, record):
            store.delete(desc, subspace, record)
    store.insert(constraint, subspace, record)
