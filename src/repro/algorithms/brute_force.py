"""BruteForce — Algorithm 2 of the paper.

For every measure subspace and every constraint satisfied by the new
tuple, scan the *entire* historical table looking for a dominating tuple
inside the context.  Exists purely as the correctness yardstick and the
worst-case baseline the three optimisation ideas are measured against.
"""

from __future__ import annotations

from ..core.constraint import constraint_for_record
from ..core.dominance import dominates
from ..core.facts import FactSet
from ..core.record import Record
from .base import DiscoveryAlgorithm


class BruteForce(DiscoveryAlgorithm):
    """Exhaustive comparison: every tuple × every constraint × every
    subspace (Alg. 2)."""

    name = "bruteforce"

    def _discover(self, record: Record) -> FactSet:
        pairs = []
        for subspace in self.subspaces:
            for mask in self.constraint_masks():
                constraint = constraint_for_record(record, mask)
                self.counters.traversed_constraints += 1
                pruned = False
                for other in self.table:
                    self.counters.comparisons += 1
                    if dominates(other, record, subspace) and constraint.satisfied_by(
                        other
                    ):
                        pruned = True
                        break
                if not pruned:
                    pairs.append((mask, subspace))
        return self._fact_set(record, pairs)
