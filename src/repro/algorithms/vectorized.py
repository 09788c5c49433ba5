"""VectorizedBaseline — BaselineSeq with NumPy tuple-at-a-time sharing.

The paper shares computation *across measure subspaces* (Prop. 4).  An
orthogonal axis, natural in Python, is sharing *across tuples*: one
vectorised pass over the whole history computes, for the new tuple
``t`` against every historical ``t'`` simultaneously,

* the ``M<`` / ``M>`` partition bitmasks (so Prop. 4 answers dominance
  in every subspace with two integer ops per tuple), and
* the dimension agreement bitmask (so ``C^{t,t'}`` is one closure-table
  lookup).

Per subspace, the surviving constraint set is then the complement of a
union of submask closures — pure integer arithmetic.  Output-equivalent
to BaselineSeq/BruteForce; the ablation bench quantifies the win.

Arrays grow geometrically; dimension values are interned to int32 ids
by the constraint table's interner.  A retraction rebuilds the columns
from the table.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.config import DiscoveryConfig
from ..core.constraint import bindable_positions
from ..core.facts import FactSet
from ..core.lattice import submask_closure_table
from ..core.record import Record
from ..core.schema import TableSchema
from ..metrics.counters import OpCounters
from ..storage.columnar_store import grow_2d
from .base import DiscoveryAlgorithm

_INITIAL_CAPACITY = 256


class VectorizedBaseline(DiscoveryAlgorithm):
    """NumPy-accelerated baseline (tuple-at-a-time sharing)."""

    name = "baselinevec"

    def __init__(
        self,
        schema: TableSchema,
        config: Optional[DiscoveryConfig] = None,
        counters: Optional[OpCounters] = None,
    ) -> None:
        super().__init__(schema, config, counters)
        self._closure = submask_closure_table(schema.n_dimensions)
        self._capacity = _INITIAL_CAPACITY
        self._size = 0
        self._values = np.empty((self._capacity, schema.n_measures), dtype=np.float64)
        self._dims = np.empty((self._capacity, schema.n_dimensions), dtype=np.int32)
        #: Bit weights for measure positions (column -> bit).
        self._measure_bits = (1 << np.arange(schema.n_measures)).astype(np.int64)
        self._dim_bits = (1 << np.arange(schema.n_dimensions)).astype(np.int64)

    # ------------------------------------------------------------------
    # Array maintenance
    # ------------------------------------------------------------------
    def _after_append(self, record: Record) -> None:
        self._values = grow_2d(self._values, self._size)
        self._dims = grow_2d(self._dims, self._size)
        self._capacity = self._values.shape[0]
        self._values[self._size] = record.values
        self._dims[self._size] = self.context_counter.interner.intern_row(
            record.dims
        )
        self._size += 1

    def _repair_after_retract(self, record: Record) -> None:
        # The columns hold rows by position; rebuild them from the table
        # (retraction is an extension path, not the hot loop).
        self._size = 0
        for rec in self.table:
            self._after_append(rec)

    def reserve(self, extra: int) -> None:
        """Pre-grow both column arrays once for a known-size block."""
        if extra <= 0:
            return
        self._values = grow_2d(self._values, self._size, self._size + extra)
        self._dims = grow_2d(self._dims, self._size, self._size + extra)
        self._capacity = self._values.shape[0]

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def _discover(self, record: Record) -> FactSet:
        pairs: List[Tuple[int, int]] = []
        n = self._size
        allowed = self.masks_top_down
        if n == 0:
            for subspace in self.subspaces:
                self.counters.traversed_constraints += len(allowed)
                pairs.extend((mask, subspace) for mask in allowed)
            return self._fact_set(record, pairs)

        probe_values = np.asarray(record.values, dtype=np.float64)
        probe_dims = self.context_counter.interner.intern_row(record.dims)

        values = self._values[:n]
        dims = self._dims[:n]
        # One vectorised pass: M< / M> partitions and dim agreement, as
        # per-tuple integer bitmasks.
        lt = ((values > probe_values) @ self._measure_bits).astype(np.int64)
        gt = ((values < probe_values) @ self._measure_bits).astype(np.int64)
        agree = ((dims == probe_dims) @ self._dim_bits).astype(np.int64)
        # Counting convention (see metrics.counters): the shared sweep
        # resolves one tuple-pair comparison per historical tuple *per
        # consuming subspace*, mirroring BaselineSeq's per-subspace scan.
        self.counters.comparisons += n * len(self.subspaces)

        full_universe_bits = (1 << (1 << self.schema.n_dimensions)) - 1
        # A mask survives when its canonical form does: masks covering a
        # None value collapse onto the constraint leaving it free.
        bindable = bindable_positions(record.dims)
        allowed_bits = 0
        for mask in allowed:
            allowed_bits |= 1 << mask

        for subspace in self.subspaces:
            # Prop. 4 vectorised: t dominated by row i in `subspace` iff
            # lt[i] hits the subspace and gt[i] misses it entirely.
            dominated = ((lt & subspace) != 0) & ((gt & subspace) == 0)
            pruned_bits = 0
            if dominated.any():
                # Distinct agreement masks bound this loop at 2^n no
                # matter how many dominators the history holds.
                for agree_mask in np.unique(agree[dominated]):
                    pruned_bits |= self._closure[int(agree_mask)]
                    if pruned_bits & allowed_bits == allowed_bits:
                        break  # everything allowed is already pruned
            surviving = allowed_bits & ~pruned_bits & full_universe_bits
            if not surviving:
                continue
            for mask in allowed:
                if (surviving >> (mask & bindable)) & 1:
                    self.counters.traversed_constraints += 1
                    pairs.append((mask, subspace))
        return self._fact_set(record, pairs)

    def reset(self) -> None:
        super().reset()
        self._size = 0
