"""STopDown — Algorithm 6 of the paper (TopDown + subspace sharing).

One traversal of ``C^t`` in the *full* measure space compares ``t``
against every stored tuple ``t'`` it meets; each comparison partitions
the measure space into ``(M>, M<, M=)`` once, and Proposition 4 then
identifies **every** subspace in which ``t'`` dominates ``t``.  The
constraints of ``C^{t,t'}`` are marked pruned in each such subspace via
the ``pruned[C][M]`` matrix (here: one bitset over constraint masks per
subspace, updated with a precomputed submask-closure table).

After the root pass, the per-subspace pass (``STopDownNode``) never
needs a dominated-check again: full-space contextual skyline tuples
*cover* all dominators — if anything dominates ``t`` in ``(C, M)``, some
tuple of ``λ_M(σ_C(R))``'s full-space counterpart does too, and it is
anchored at a constraint the root pass visits.  The node pass only adds
facts, stores ``t`` at its maximal skyline constraints, and demotes
tuples ``t`` dominates.

The root pass always runs in the full measure space even when the ``m̂``
cap excludes it from *reported* subspaces — the full-space stores are
the sharing substrate.
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
from .top_down import TopDown, repair_demoted_tuple


class STopDown(TopDown):
    """TopDown with computation shared across measure subspaces (Alg. 6)."""

    name = "stopdown"

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
        # pruned[M] is a bitset over constraint masks (bit c = pruned).
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

    # ------------------------------------------------------------------
    # STopDownRoot: full-space traversal + Prop. 4 subspace pruning
    # ------------------------------------------------------------------
    def _root_pass(
        self,
        record: Record,
        pairs: List[Tuple[int, int]],
        pruned_matrix: Dict[int, int],
        constraints: Dict[int, Constraint],
    ) -> None:
        full = self.full_space
        store = self.store
        counters = self.counters
        parents = self._parents
        report_full = self.config.allows_subspace(full)
        outcomes: Dict[int, ComparisonOutcome] = {}
        subspace_keys = list(pruned_matrix)
        # Prune/test on the collapsed canonical mask: raw masks covering
        # an unbindable (None) dimension value collapse onto one
        # constraint and must share its pruning state (see TopDown).
        bindable = bindable_positions(record.dims)
        full_pruned_bits = 0
        for mask in self.masks_top_down:
            constraint = constraints[mask]
            counters.traversed_constraints += 1
            canonical = mask & bindable
            for other in store.get(constraint, full):
                counters.comparisons += 1
                outcome = outcomes.get(other.tid)
                if outcome is None:
                    outcome = compare(record, other)
                    outcomes[other.tid] = outcome
                    # Lines 13-16 of STopDownRoot: one partition prunes
                    # C^{t,t'} in every subspace where t is dominated.
                    agree_closure = self._closure[
                        agreement_mask(record.dims, other.dims)
                    ]
                    for sub in subspace_keys:
                        if outcome.dominated_in(sub):
                            pruned_matrix[sub] |= agree_closure
                if outcome.dominates_in(full):
                    repair_demoted_tuple(
                        store, record, other, constraint, full, self.allowed_mask
                    )
            full_pruned_bits = pruned_matrix[full]
            if not (full_pruned_bits >> canonical) & 1:
                if report_full:
                    pairs.append((mask, full))
                if all(
                    (full_pruned_bits >> (p & bindable)) & 1
                    for p in parents[mask]
                ):
                    store.insert(constraint, full, record)

    # ------------------------------------------------------------------
    # STopDownNode: per-subspace pass over the pre-pruned lattice
    # ------------------------------------------------------------------
    def _node_pass(
        self,
        record: Record,
        subspace: int,
        pairs: List[Tuple[int, int]],
        pruned_bits: int,
        constraints: Dict[int, Constraint],
    ) -> None:
        store = self.store
        counters = self.counters
        parents = self._parents
        bindable = bindable_positions(record.dims)
        for mask in self.masks_top_down:
            if (pruned_bits >> (mask & bindable)) & 1:
                # Pruned constraints are skipped outright — the point of
                # sharing (Fig. 11b counts them as not traversed).
                continue
            counters.traversed_constraints += 1
            constraint = constraints[mask]
            pairs.append((mask, subspace))
            for other in store.get(constraint, subspace):
                counters.comparisons += 1
                if dominates(record, other, subspace):
                    repair_demoted_tuple(
                        store, record, other, constraint, subspace, self.allowed_mask
                    )
            if all((pruned_bits >> (p & bindable)) & 1 for p in parents[mask]):
                store.insert(constraint, subspace, record)
