"""SBottomUp — BottomUp with computation shared across measure subspaces
(paper §V-C, sketched after Alg. 6).

The root pass sweeps the *full* measure space over all of ``C^t``
(level order, most specific first), comparing ``t`` with the full
contextual skylines materialised by Invariant 1.  Each comparison is
partitioned once into ``(M>, M<, M=)`` and Proposition 4 marks
``C^{t,t'}`` pruned in every subspace where ``t`` is dominated.

Because BottomUp stores a skyline tuple at *every* skyline constraint,
the full skyline of each visited context sits right at that constraint;
sweeping all of ``C^t`` in the root pass therefore yields a complete
pruned matrix (if anything dominates ``t`` in ``(C, M)``, some
full-space skyline tuple of ``σ_C(R)`` is stored at ``C`` itself and is
met during the root pass).  The per-subspace passes then *stop at* the
pruned frontier — they visit only skyline constraints, emit facts,
insert ``t``, and delete tuples ``t`` newly dominates ("SBottomUp skips
all non-skyline constraints", §VI-B).

The root pass always runs in the full measure space even when the ``m̂``
cap excludes it from reported subspaces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.config import DiscoveryConfig
from ..core.constraint import Constraint, bindable_positions
from ..core.dominance import ComparisonOutcome, compare, dominates
from ..core.facts import FactSet
from ..core.lattice import agreement_mask, submask_closure_table
from ..core.record import Record
from ..core.schema import TableSchema
from ..metrics.counters import OpCounters
from ..storage.base import SkylineStore
from .bottom_up import BottomUp


class SBottomUp(BottomUp):
    """BottomUp sharing dominance comparisons across measure subspaces."""

    name = "sbottomup"

    def __init__(
        self,
        schema: TableSchema,
        config: Optional[DiscoveryConfig] = None,
        counters: Optional[OpCounters] = None,
        store: Optional[SkylineStore] = None,
    ) -> None:
        super().__init__(schema, config, counters, store)
        self._closure = submask_closure_table(schema.n_dimensions)

    def maintained_subspaces(self):
        """The full space is always maintained — it is the sharing
        substrate — even when the m̂ cap excludes it from reporting."""
        out = list(self.subspaces)
        if self.full_space not in out:
            out.insert(0, self.full_space)
        return out

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def _discover(self, record: Record) -> FactSet:
        pairs: List[Tuple[int, int]] = []
        constraints = self.constraint_cache(record)
        pruned_matrix: Dict[int, int] = {m: 0 for m in self.subspaces}
        pruned_matrix.setdefault(self.full_space, 0)
        self._root_pass(record, pairs, pruned_matrix, constraints)
        for subspace in self.subspaces:
            if subspace == self.full_space:
                continue
            self._node_pass(
                record, subspace, pairs, pruned_matrix[subspace], constraints
            )
        return self._fact_set(record, pairs)

    def _root_pass(
        self,
        record: Record,
        pairs: List[Tuple[int, int]],
        pruned_matrix: Dict[int, int],
        constraints: Dict[int, Constraint],
    ) -> None:
        """Full-space sweep over *all* of ``C^t``.

        Unlike plain BottomUp, the sweep does not stop at the domination
        frontier: comparisons at full-space non-skyline constraints are
        precisely what fills the pruned matrix for the other subspaces.
        """
        full = self.full_space
        store = self.store
        counters = self.counters
        report_full = self.config.allows_subspace(full)
        outcomes: Dict[int, ComparisonOutcome] = {}
        subspace_keys = list(pruned_matrix)
        # Prune/test on the collapsed canonical mask: raw masks covering
        # an unbindable (None) dimension value collapse onto one
        # constraint and must share its pruning state (see TopDown).
        bindable = bindable_positions(record.dims)
        for mask in self.masks_bottom_up:
            constraint = constraints[mask]
            counters.traversed_constraints += 1
            for other in store.get(constraint, full):
                counters.comparisons += 1
                outcome = outcomes.get(other.tid)
                if outcome is None:
                    outcome = compare(record, other)
                    outcomes[other.tid] = outcome
                    agree_closure = self._closure[
                        agreement_mask(record.dims, other.dims)
                    ]
                    for sub in subspace_keys:
                        if outcome.dominated_in(sub):
                            pruned_matrix[sub] |= agree_closure
                if outcome.dominates_in(full):
                    store.delete(constraint, full, other)
            if not (pruned_matrix[full] >> (mask & bindable)) & 1:
                if report_full:
                    pairs.append((mask, full))
                store.insert(constraint, full, record)

    def _node_pass(
        self,
        record: Record,
        subspace: int,
        pairs: List[Tuple[int, int]],
        pruned_bits: int,
        constraints: Dict[int, Constraint],
    ) -> None:
        """Per-subspace sweep that stops at the (pre-computed) pruned
        frontier; only skyline constraints are visited."""
        store = self.store
        counters = self.counters
        bindable = bindable_positions(record.dims)
        for mask in self.masks_bottom_up:
            if (pruned_bits >> (mask & bindable)) & 1:
                continue
            constraint = constraints[mask]
            counters.traversed_constraints += 1
            pairs.append((mask, subspace))
            for other in store.get(constraint, subspace):
                counters.comparisons += 1
                if dominates(record, other, subspace):
                    store.delete(constraint, subspace, other)
            store.insert(constraint, subspace, record)
