"""C-CSC — the Compressed-Skycube adaptation the paper compares against.

Xia & Zhang's CSC [12] maintains, for a *single* context, each tuple in
its minimum skyline subspaces and supports incremental updates.  It has
no notion of contexts, so the adaptation (paper §II) keeps **one CSC per
constraint**.  On arrival of ``t``, the CSC of every context containing
``t`` (every ``C ∈ C^t``) is updated, and the CSC's query machinery is
used to decide, per measure subspace, whether ``t`` entered the skyline.

The paper's analysis of why this is slow — per-context updates cannot be
shared, and the CSC must effectively answer skyline queries for all
subspaces just to test membership — is exactly what this implementation
exhibits (Figs. 7–9 show it an order of magnitude behind
BottomUp/TopDown).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.config import DiscoveryConfig
from ..core.constraint import Constraint, constraint_for_record
from ..core.facts import FactSet
from ..core.record import Record
from ..core.schema import TableSchema
from ..index.skycube import CompressedSkycube
from ..metrics.counters import OpCounters
from .base import DiscoveryAlgorithm


class CCSC(DiscoveryAlgorithm):
    """One Compressed Skycube per context (the paper's "C-CSC")."""

    name = "ccsc"

    def __init__(
        self,
        schema: TableSchema,
        config: Optional[DiscoveryConfig] = None,
        counters: Optional[OpCounters] = None,
    ) -> None:
        super().__init__(schema, config, counters)
        self._cscs: Dict[Constraint, CompressedSkycube] = {}
        self._subspace_bits = {m: 1 << m for m in self.subspaces}

    def _discover(self, record: Record) -> FactSet:
        pairs = []
        for mask in self.constraint_masks():
            constraint = constraint_for_record(record, mask)
            self.counters.traversed_constraints += 1
            csc = self._cscs.get(constraint)
            if csc is None:
                csc = CompressedSkycube(self.full_space)
                self._cscs[constraint] = csc
            before = csc.comparisons
            sky_bits = csc.insert(record)
            self.counters.comparisons += csc.comparisons - before
            for subspace, bit in self._subspace_bits.items():
                if sky_bits & bit:
                    pairs.append((mask, subspace))
        self.counters.stored_tuples = self.stored_tuple_count()
        return self._fact_set(record, pairs)

    # ------------------------------------------------------------------
    # Prominence / accounting
    # ------------------------------------------------------------------
    def skyline_size(self, constraint: Constraint, subspace: int) -> int:
        csc = self._cscs.get(constraint)
        if csc is None:
            return 0
        return len(csc.skyline(subspace))

    def _repair_after_retract(self, removed: Record) -> None:
        # Rebuild the CSC of every context that contained the tuple (the
        # CSC of [12] supports insertion, not deletion).
        for mask in self.constraint_masks():
            constraint = constraint_for_record(removed, mask)
            if constraint not in self._cscs:
                continue
            rebuilt = CompressedSkycube(self.full_space)
            for record in self.table.select_constraint(constraint):
                rebuilt.insert(record)
            self._cscs[constraint] = rebuilt

    def stored_tuple_count(self) -> int:
        return sum(c.stored_tuple_count() for c in self._cscs.values())

    def approx_bytes(self) -> int:
        from ..metrics.memory import approximate_store_bytes

        def entries():
            for constraint, csc in self._cscs.items():
                for subspace, records in csc.iter_stored():
                    yield (constraint, subspace), records

        return approximate_store_bytes(entries())

    def reset(self) -> None:
        super().reset()
        self._cscs.clear()
