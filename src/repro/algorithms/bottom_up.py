"""BottomUp — Algorithm 4 of the paper.

Maintains Invariant 1: ``µ_{C,M}`` stores **all** contextual skyline
tuples ``λ_M(σ_C(R))`` for every (allowed) constraint–measure pair.  On
arrival of ``t`` it traverses the lattice ``C^t`` bottom-up (most
specific constraints first), comparing ``t`` only against current
skyline tuples (tuple reduction, Prop. 1) and pruning all ancestors of
any constraint where ``t`` is dominated (constraint pruning,
Props. 2–3).

Traversal note: the paper's breadth-first queue visits constraints level
by level and enqueues every not-yet-pruned parent.  Because the set of
constraints where ``t`` is dominated is *up-closed* toward ``⊤``
(Prop. 2) — equivalently, pruned masks are closed under taking submasks
— that queue order is exactly "iterate allowed masks by descending
popcount, skipping pruned ones".  We use the level-order loop directly:
identical visit set and comparisons, no queue bookkeeping.

With the ``d̂`` cap (§VI-A) the lattice is truncated to constraints with
at most ``d̂`` bound attributes; level order then starts at popcount
``min(d̂, n)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.config import DiscoveryConfig
from ..core.constraint import Constraint
from ..core.dominance import dominates
from ..core.facts import FactSet
from ..core.lattice import iter_submasks
from ..core.record import Record
from ..core.schema import TableSchema
from ..metrics.counters import OpCounters
from ..storage.base import SkylineStore
from ..storage.memory_store import MemorySkylineStore
from .base import DiscoveryAlgorithm


class BottomUp(DiscoveryAlgorithm):
    """Bottom-up lattice traversal with full skyline materialisation
    (Alg. 4; Invariant 1)."""

    name = "bottomup"

    def __init__(
        self,
        schema: TableSchema,
        config: Optional[DiscoveryConfig] = None,
        counters: Optional[OpCounters] = None,
        store: Optional[SkylineStore] = None,
    ) -> None:
        super().__init__(schema, config, counters)
        self.store = store if store is not None else MemorySkylineStore(self.counters)

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def _discover(self, record: Record) -> FactSet:
        pairs: List[Tuple[int, int]] = []
        constraints = self.constraint_cache(record)
        for subspace in self.subspaces:
            self._discover_subspace(record, subspace, pairs, constraints)
        return self._fact_set(record, pairs)

    def _discover_subspace(
        self,
        record: Record,
        subspace: int,
        pairs: List[Tuple[int, int]],
        constraints: Dict[int, Constraint],
    ) -> None:
        """One bottom-up sweep of ``C^t`` for one measure subspace (no
        cross-subspace sharing — that is SBottomUp's job)."""
        store = self.store
        counters = self.counters
        pruned = bytearray(1 << self.schema.n_dimensions)
        for mask in self.masks_bottom_up:
            if pruned[mask]:
                continue
            constraint = constraints[mask]
            counters.traversed_constraints += 1
            dominated = False
            for other in store.get(constraint, subspace):
                counters.comparisons += 1
                if dominates(other, record, subspace):
                    dominated = True
                    # Prop. 3: t is out at every constraint both tuples
                    # satisfy; all ancestors of C (the submasks of its
                    # bound mask) are among them.
                    for sub in iter_submasks(mask):
                        pruned[sub] = True
                    break
                if dominates(record, other, subspace):
                    store.delete(constraint, subspace, other)
            if not dominated:
                pairs.append((mask, subspace))
                store.insert(constraint, subspace, record)

    # ------------------------------------------------------------------
    # Prominence / accounting
    # ------------------------------------------------------------------
    def skyline_size(self, constraint: Constraint, subspace: int) -> int:
        """Invariant 1 makes this a single store lookup."""
        return len(self.store.get(constraint, subspace))

    def skyline_sizes(self, facts: FactSet) -> Dict[Tuple[Constraint, int], int]:
        return {
            (constraint, subspace): len(self.store.get(constraint, subspace))
            for constraint, subspace in facts.iter_pairs()
        }

    def _repair_after_retract(self, removed: Record) -> None:
        from .retraction import retract_bottom_up

        retract_bottom_up(
            self.store,
            self.table,
            removed,
            self.masks_top_down,
            self.maintained_subspaces(),
        )

    def stored_tuple_count(self) -> int:
        return self.store.stored_tuple_count()

    def approx_bytes(self) -> int:
        return self.store.approx_bytes()

    def reset(self) -> None:
        super().reset()
        self.store.clear()
