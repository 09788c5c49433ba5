"""Shared machinery for the seven discovery algorithms (§IV–V).

Every algorithm consumes a stream of rows and, per arrival, returns
``S_t`` — the set of constraint–measure pairs qualifying the new tuple as
a contextual skyline tuple.  The uniform entry point is
:meth:`DiscoveryAlgorithm.process`; subclasses implement
:meth:`DiscoveryAlgorithm._discover` against the *historical* table (the
new tuple is appended afterwards, exactly as Algs. 2–6 do on their last
line).

The base class also owns:

* the append-only :class:`~repro.core.record.Table`;
* the measure-subspace list (full space first, respecting ``m̂``);
* the per-algorithm :class:`~repro.metrics.counters.OpCounters` sink;
* a from-scratch ``skyline_size`` fallback used for prominence scoring
  by algorithms that do not materialise ``µ`` stores.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.config import DiscoveryConfig
from ..core.constraint import Constraint, constraint_for_record
from ..core.facts import FactSet
from ..core.lattice import masks_by_level, nonempty_subspaces
from ..core.record import Record, Table
from ..core.schema import TableSchema
from ..core.skyline import contextual_skyline
from ..metrics.counters import OpCounters

Row = Union[Mapping[str, object], Record]


class DiscoveryAlgorithm(abc.ABC):
    """Base class of all situational-fact discovery algorithms.

    Parameters
    ----------
    schema:
        The relation schema ``R(D; M)``.
    config:
        ``d̂``/``m̂`` caps and reporting knobs; defaults to unrestricted.
    counters:
        Optional shared operation-counter sink.
    """

    #: Short name used by benches and the engine registry.
    name: str = "abstract"

    def __init__(
        self,
        schema: TableSchema,
        config: Optional[DiscoveryConfig] = None,
        counters: Optional[OpCounters] = None,
    ) -> None:
        self.schema = schema
        self.config = config or DiscoveryConfig()
        self.counters = counters if counters is not None else OpCounters()
        self.table = Table(schema)
        self.full_space = schema.full_measure_mask
        #: Non-empty measure subspaces to examine, largest (full space) first.
        self.subspaces: List[int] = nonempty_subspaces(
            self.full_space, self.config.max_measure_dims
        )
        #: Universe mask over dimension-attribute positions.
        self.dim_universe = (1 << schema.n_dimensions) - 1
        #: Max bound attributes actually allowed (``min(d̂, n)``).
        self.bound_cap = self.config.effective_bound_cap(schema.n_dimensions)
        cap = self.bound_cap
        levels = masks_by_level(schema.n_dimensions)
        #: Allowed constraint masks, most general first (``⊤`` → level d̂).
        self.masks_top_down: Tuple[int, ...] = tuple(
            m for level in levels[: cap + 1] for m in level
        )
        #: Allowed constraint masks, most specific first.
        self.masks_bottom_up: Tuple[int, ...] = tuple(
            m for level in reversed(levels[: cap + 1]) for m in level
        )
        #: Memo for :meth:`constraint_cache`, keyed by dims tuple.
        self._ct_by_dims: Dict[Tuple[object, ...], Dict[int, Constraint]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def process(self, row: Row) -> FactSet:
        """Handle one arriving tuple: discover ``S_t``, then append.

        Accepts a mapping keyed by attribute names or a pre-built
        :class:`Record` (tid is re-assigned to the arrival index).
        """
        if isinstance(row, Record):
            record = Record(len(self.table), row.dims, row.values, row.raw)
        else:
            record = self.table.make_record(row)
        facts = self._discover(record)
        self.table.append(record)
        self._after_append(record)
        return facts

    def process_stream(self, rows: Iterable[Row]) -> List[FactSet]:
        """Process many rows; returns one ``S_t`` per row, in order."""
        return [self.process(row) for row in rows]

    def process_many(self, rows: Iterable[Row]) -> List[FactSet]:
        """Batched ingestion: like :meth:`process_stream`, but the whole
        block is announced upfront via :meth:`reserve` so vectorized
        algorithms can intern/append in blocks (grow their column arrays
        once instead of geometrically along the way).

        Discovery itself stays per-arrival — each tuple is compared
        against the history *including* the earlier tuples of the same
        block, so the output is identical to a loop of :meth:`process`.
        """
        rows = list(rows)
        self.reserve(len(rows))
        return [self.process(row) for row in rows]

    def reserve(self, extra: int) -> None:
        """Capacity hint: ``extra`` more arrivals are imminent.

        Default is a no-op; algorithms with columnar state override it
        to pre-grow their arrays in one allocation.
        """

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _discover(self, record: Record) -> FactSet:
        """Compute ``S_t`` for ``record`` against the historical table.

        Must *not* append the record; :meth:`process` does that.
        """

    def _after_append(self, record: Record) -> None:
        """Hook for algorithms that maintain auxiliary indexes (k-d tree,
        CSCs) keyed on appended data.  Default: nothing."""

    # ------------------------------------------------------------------
    # Retraction (§VIII deletion extension)
    # ------------------------------------------------------------------
    def retract(self, tid: int) -> Record:
        """Remove the tuple with id ``tid`` and repair internal state.

        The base implementation only mutates the table — correct for the
        store-free baselines (BruteForce / BaselineSeq recompute from
        the table each arrival).  Store-maintaining algorithms override
        :meth:`_repair_after_retract`.
        """
        removed = self.table.delete(tid)
        self._repair_after_retract(removed)
        return removed

    def retract_many(self, tids) -> List[Record]:
        """Grouped :meth:`retract`: removed records in argument order.

        Repair is inherently sequential (each retraction must observe
        the state the previous one left), so the default loops;
        store-maintaining algorithms override to batch the physical
        reclamation around the loop.
        """
        return [self.retract(tid) for tid in tids]

    def _repair_after_retract(self, removed: Record) -> None:
        """Fix any materialised state after ``removed`` left the table."""

    # ------------------------------------------------------------------
    # Constraint-mask helpers (C^t in bitmask form)
    # ------------------------------------------------------------------
    def allowed_mask(self, mask: int) -> bool:
        """True iff a constraint with bound-position ``mask`` respects
        the ``d̂`` cap."""
        return self.config.allows_constraint_mask(mask)

    def constraint_masks(self) -> List[int]:
        """All bound-position masks allowed by ``d̂`` (the ``C^t``
        skeleton; identical for every tuple)."""
        return list(self.masks_top_down)

    def maintained_subspaces(self) -> List[int]:
        """Measure subspaces whose ``µ`` stores this algorithm maintains.

        Equals :attr:`subspaces` for the non-sharing algorithms; the
        sharing variants additionally always maintain the full space
        (their sharing substrate), even under an ``m̂`` cap.
        """
        return list(self.subspaces)

    def constraint_cache(self, record: Record) -> Dict[int, Constraint]:
        """The constraints of ``C^t`` keyed by bound mask.

        ``C^t`` depends only on the record's dimension values, which
        bounded-domain streams repeat constantly, so the per-arrival
        build is memoised by dims tuple (capped FIFO to bound memory on
        unbounded domains)."""
        cached = self._ct_by_dims.get(record.dims)
        if cached is not None:
            return cached
        cached = {
            mask: constraint_for_record(record, mask) for mask in self.masks_top_down
        }
        if len(self._ct_by_dims) >= 16384:
            self._ct_by_dims.pop(next(iter(self._ct_by_dims)))
        self._ct_by_dims[record.dims] = cached
        return cached

    # ------------------------------------------------------------------
    # Prominence support
    # ------------------------------------------------------------------
    def skyline_size(self, constraint: Constraint, subspace: int) -> int:
        """``|λ_M(σ_C(R))|`` after the newest append.

        Base implementation recomputes from scratch; store-maintaining
        algorithms override this with O(stored) lookups.
        """
        return len(contextual_skyline(self.table, constraint, subspace))

    def skyline_sizes(self, facts: FactSet) -> Dict[Tuple[Constraint, int], int]:
        """``|λ_M(σ_C(R))|`` for every pair in ``S_t``, in bulk.

        The default loops over :meth:`skyline_size`; algorithms with
        materialised stores override it with one shared sweep (``S_t``
        routinely holds thousands of pairs per arrival, so this path is
        performance-critical for prominence scoring).
        """
        return {
            (constraint, subspace): self.skyline_size(constraint, subspace)
            for constraint, subspace in facts.iter_pairs()
        }

    def skyline_column(self, facts: FactSet) -> np.ndarray:
        """``|λ_M(σ_C(R))|`` for every fact of ``S_t`` as one ``int64``
        column in insertion order — the skyline half of the one scoring
        call (the context half is
        :meth:`~repro.core.prominence.ContextCounter.context_column`).

        The default reads this family's :meth:`skyline_sizes` —
        recomputation here, Invariant-1 buckets in ``BottomUp``, the
        Invariant-2 sweep in ``TopDown``; ``svec`` overrides it with a
        gather from its store's count index.
        """
        sizes = self.skyline_sizes(facts)
        return np.fromiter(
            (sizes[pair] for pair in facts.iter_pairs()),
            dtype=np.int64,
            count=len(facts),
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stored_tuple_count(self) -> int:
        """Stored skyline-tuple references (0 for store-free baselines)."""
        return 0

    def approx_bytes(self) -> int:
        """Approximate bytes of materialised skyline state."""
        return 0

    def reset(self) -> None:
        """Forget all state (fresh table, fresh counters)."""
        self.table = Table(self.schema)
        self.counters.reset()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self.table)})"
