"""Shared machinery for the seven discovery algorithms (§IV–V).

Every algorithm consumes a stream of rows and, per arrival, returns
``S_t`` — the set of constraint–measure pairs qualifying the new tuple as
a contextual skyline tuple.  The uniform entry point is
:meth:`DiscoveryAlgorithm.process`; subclasses implement
:meth:`DiscoveryAlgorithm._discover` against the *historical* table (the
new tuple is appended afterwards, exactly as Algs. 2–6 do on their last
line).

The base class also owns:

* the append-only :class:`~repro.core.record.Table` — a dict of
  records, or, for an algorithm that owns a columnar store, its columns
  (:meth:`DiscoveryAlgorithm._new_table`);
* the constraint table beside it
  (:class:`~repro.core.prominence.ContextCounter`): ``|σ_C|`` of every
  constraint of ``C^t`` a live tuple satisfies, registered before each
  discovery and unregistered after each retraction repair;
* the measure-subspace list (full space first, respecting ``m̂``);
* the per-algorithm :class:`~repro.metrics.counters.OpCounters` sink;
* a from-scratch ``skyline_size`` fallback used for prominence scoring
  by algorithms that do not materialise ``µ`` stores.
"""

from __future__ import annotations

import abc
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.config import DiscoveryConfig
from ..core.constraint import Constraint, constraints_for_record, lattice_getters
from ..core.facts import FactSet
from ..core.lattice import masks_by_level, nonempty_subspaces
from ..core.prominence import ContextCounter
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
        #: ``|σ_C|`` per constraint of ``C^t``, and the one table from
        #: constraint to id; its ``position_of[mask]`` is a fact's
        #: position along ``C^t`` in the cell form of ``S_t``.
        self.context_counter = ContextCounter(schema.n_dimensions, cap)
        self.table = self._new_table()
        #: Allowed constraint masks, most general first (``⊤`` → level d̂).
        self.masks_top_down: Tuple[int, ...] = self.context_counter.masks
        #: Allowed constraint masks, most specific first.
        levels = masks_by_level(schema.n_dimensions)[: cap + 1]
        self.masks_bottom_up: Tuple[int, ...] = tuple(
            m for level in reversed(levels) for m in level
        )
        self._ct_getters = lattice_getters(schema.n_dimensions, self.masks_top_down)
        #: ``(dims, C^t)`` of the arrival being processed — the one
        #: entry :meth:`constraint_cache` keeps.
        self._ct: Tuple[Optional[Tuple[object, ...]], Dict[int, Constraint]]
        self._ct = (None, {})

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def process(self, row: Row) -> FactSet:
        """Handle one arriving tuple: count it, discover ``S_t``, then
        append.

        Accepts a mapping keyed by attribute names or a pre-built
        :class:`Record` (tid is re-assigned to the arrival index, which
        deletions do not lower).  The tuple enters the constraint table
        first: a columnar store takes the row's constraint ids from it.
        """
        if isinstance(row, Record):
            record = Record(self.table.arrivals, row.dims, row.values, row.raw)
        else:
            record = self.table.make_record(row)
        self.context_counter.register(record)
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

    def _new_table(self) -> Table:
        """The relation this algorithm streams into, built beside a
        fresh constraint table: one dict of the arrivals' records.  An
        algorithm that owns a
        :class:`~repro.storage.columnar_store.ColumnarSkylineStore`
        returns a :class:`~repro.storage.columnar_store.ColumnTable`
        instead, whose rows are the store's columns."""
        return Table(self.schema)

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

        The base implementation only mutates the table and the
        constraint table — correct for the store-free baselines
        (BruteForce / BaselineSeq recompute from the table each
        arrival).  Store-maintaining algorithms override
        :meth:`_repair_after_retract`, which runs before the tuple's
        constraints leave the constraint table (a store clears the
        row's cells before any of its ids is freed).
        """
        removed = self.table.delete(tid)
        self._repair_after_retract(removed)
        self.context_counter.unregister(removed)
        return removed

    def retract_many(self, tids) -> List[Record]:
        """Grouped :meth:`retract`: removed records in argument order.

        Every tid is checked against the table first
        (:meth:`~repro.core.record.Table.check_live`): a batch naming an
        unknown or repeated tid raises ``KeyError`` and removes nothing.
        Repair is inherently sequential (each retraction must observe
        the state the previous one left), so the default loops;
        store-maintaining algorithms override to batch the physical
        reclamation around the loop.
        """
        return [self.retract(tid) for tid in self.table.check_live(tids)]

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
        """The constraints of ``C^t`` keyed by bound mask, in
        :attr:`masks_top_down` order.

        Built once per arrival from index tables made in ``__init__``
        (:func:`~repro.core.constraint.constraints_for_record`); the
        repeated calls of one arrival — discovery, the cell form of
        ``S_t``, a ladder's skyline sizes — share the build.  Only that
        arrival's ``C^t`` is kept, so memory does not grow with the
        distinct dimension tuples a stream carries."""
        dims, constraints = self._ct
        if dims != record.dims:
            built = constraints_for_record(record, self._ct_getters)
            constraints = dict(zip(self.masks_top_down, built))
            self._ct = (record.dims, constraints)
        return constraints

    def _constraint_sequence(self, record: Record) -> Tuple[Constraint, ...]:
        """``C^t`` as one sequence in :attr:`masks_top_down` order — the
        constraint axis of the cell form of ``S_t``."""
        return tuple(self.constraint_cache(record).values())

    def _fact_set(
        self, record: Record, pairs: Sequence[Tuple[int, int]]
    ) -> FactSet:
        """``S_t`` from the ``(mask, subspace)`` pairs a scalar discovery
        pass collected, in emission order: each mask is placed at its
        position along :meth:`_constraint_sequence`, so every algorithm
        hands scoring and the feed fold the walker's cell form."""
        facts = FactSet(record)
        masks, subspaces = zip(*pairs) if pairs else ((), ())
        facts.add_cells(
            self._constraint_sequence(record),
            self.context_counter.position_of[list(masks)],
            np.array(subspaces, dtype=np.int32),
        )
        return facts

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
        """``|λ_M(σ_C(R))|`` for every fact of ``S_t`` as one ``int32``
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
            dtype=np.int32,
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
        """Forget all state (fresh table, constraint table and
        counters)."""
        self.context_counter = ContextCounter(
            self.schema.n_dimensions, self.bound_cap
        )
        self.table = self._new_table()
        self.counters.reset()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self.table)})"
