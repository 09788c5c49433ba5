"""BaselineSeq — Algorithm 3 of the paper.

A first use of constraint pruning (Proposition 3): per measure subspace,
start from all of ``C^t`` and, for every historical tuple ``t'`` that
dominates ``t``, subtract the whole intersection lattice ``C^{t,t'}``
(all submasks of the agreement mask).  What survives the scan is exactly
the set of skyline constraints for ``t``.
"""

from __future__ import annotations

from typing import Set

from ..core.constraint import bindable_positions
from ..core.dominance import dominates
from ..core.facts import FactSet
from ..core.lattice import agreement_mask, iter_submasks
from ..core.record import Record
from .base import DiscoveryAlgorithm


class BaselineSeq(DiscoveryAlgorithm):
    """Sequential-scan baseline exploiting Proposition 3 (Alg. 3)."""

    name = "baselineseq"

    def _discover(self, record: Record) -> FactSet:
        pairs = []
        allowed = self.constraint_masks()
        # A mask survives when its canonical form does: masks covering a
        # None value collapse onto the constraint leaving it free.
        bindable = bindable_positions(record.dims)
        for subspace in self.subspaces:
            surviving: Set[int] = set(allowed)
            for other in self.table:
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
