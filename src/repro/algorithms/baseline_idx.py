"""BaselineIdx — the indexed baseline of §IV.

Identical to BaselineSeq except that the tuples dominating ``t`` are
found through a one-sided range query ``∧_{mi∈M}(mi ≥ t.mi)`` on a k-d
tree over the full measure space [3], instead of a sequential scan.
"""

from __future__ import annotations

from typing import Set

from ..core.constraint import bindable_positions
from ..core.dominance import dominates
from ..core.facts import FactSet
from ..core.lattice import agreement_mask, iter_submasks
from ..core.record import Record
from ..index.kdtree import KDTree
from .base import DiscoveryAlgorithm


class BaselineIdx(DiscoveryAlgorithm):
    """k-d-tree-indexed baseline (§IV, "BaselineIdx")."""

    name = "baselineidx"

    def __init__(self, schema, config=None, counters=None) -> None:
        super().__init__(schema, config, counters)
        self._tree = KDTree(schema.n_measures)

    def _discover(self, record: Record) -> FactSet:
        pairs = []
        allowed = self.constraint_masks()
        # A mask survives when its canonical form does: masks covering a
        # None value collapse onto the constraint leaving it free.
        bindable = bindable_positions(record.dims)
        for subspace in self.subspaces:
            surviving: Set[int] = set(allowed)
            # Weak-dominance candidates straight from the index; strict
            # dominance still needs one per-candidate check.
            for other in self._tree.dominating_candidates(record.values, subspace):
                self.counters.comparisons += 1
                if dominates(other, record, subspace):
                    agree = agreement_mask(record.dims, other.dims)
                    for sub in iter_submasks(agree):
                        surviving.discard(sub)
                    if not surviving:
                        break
            for mask in surviving:
                if mask & bindable not in surviving:
                    continue
                self.counters.traversed_constraints += 1
                pairs.append((mask, subspace))
        return self._fact_set(record, pairs)

    def _after_append(self, record: Record) -> None:
        self._tree.insert(record)

    def _repair_after_retract(self, record: Record) -> None:
        # The k-d tree has no single-point delete; rebuild from the
        # table (retraction is an extension path, not the hot loop).
        self._tree = KDTree(self.schema.n_measures)
        for rec in self.table:
            self._tree.insert(rec)

    def reset(self) -> None:
        super().reset()
        self._tree = KDTree(self.schema.n_measures)
