"""Forward contextual-skyline queries (the classic direction, [13]).

The paper solves the *reverse* problem — given an answer tuple, find the
queries.  Downstream users still need the forward direction: given a
``(constraint, measure-subspace)`` pair, return the contextual skyline,
the k-skyband, or context statistics.  :class:`ContextualQueryEngine`
answers those against a live discovery algorithm, using its maintained
``µ`` stores when the algorithm has them, the columnar read kernels
(:mod:`repro.query.kernels`) when the algorithm keeps a columnar
history, and falling back to exact scalar recomputation otherwise.

Batched reads go through the cost-ordered planner
(:mod:`repro.query.planner`) via :meth:`ContextualQueryEngine.batch`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from ..algorithms.base import DiscoveryAlgorithm
from ..algorithms.bottom_up import BottomUp
from ..algorithms.top_down import TopDown
from ..core.constraint import UNBOUND, Constraint
from ..core.dominance import dominates
from ..core.lattice import iter_submasks
from ..core.record import Record
from ..core.schema import TableSchema
from .kernels import ColumnarQueryKernels
from .parser import parse_query


class ContextualQueryEngine:
    """Query façade over a discovery algorithm's state.

    Obtained uniformly from any engine via ``engine.query()`` (a
    member of every :class:`~repro.core.engine_protocol.Engine`); sharded
    engines return the router-merged subclass from
    :mod:`repro.service.sharding`.  ``algorithm`` may be any
    algorithm-shaped state view: an object with ``table``, ``schema``,
    ``config``, ``context_counter`` and ``maintained_subspaces()``
    (store-backed fast paths engage only for real :class:`BottomUp` /
    :class:`TopDown` instances, the columnar kernels only for ``svec``).

    The view's ``context_counter`` (its incremental ``|σ_C|`` counter)
    and the columnar kernels are accelerations — every answer they
    produce is property-identical to the scalar path, which
    ``use_kernels=False`` pins for differential testing.

    Examples
    --------
    >>> from repro import TableSchema, make_algorithm
    >>> schema = TableSchema(("team",), ("pts", "ast"))
    >>> algo = make_algorithm("bottomup", schema)
    >>> _ = algo.process({"team": "T", "pts": 10, "ast": 2})
    >>> queries = ContextualQueryEngine(algo)
    >>> [r.tid for r in queries.skyline_text("team=T | pts")]
    [0]
    """

    def __init__(
        self,
        algorithm: "DiscoveryAlgorithm",
        use_kernels: bool = True,
    ) -> None:
        self.algorithm = algorithm
        self.schema: TableSchema = algorithm.schema
        self._use_kernels = use_kernels
        self._kernels_cache: Optional[ColumnarQueryKernels] = None
        self._kernels_resolved = False

    def _kernels(self) -> Optional[ColumnarQueryKernels]:
        if not self._use_kernels:
            return None
        if not self._kernels_resolved:
            self._kernels_cache = ColumnarQueryKernels.for_algorithm(self.algorithm)
            self._kernels_resolved = True
        return self._kernels_cache

    # ------------------------------------------------------------------
    # Skyline queries
    # ------------------------------------------------------------------
    def skyline(self, constraint: Constraint, subspace: int) -> List[Record]:
        """``λ_M(σ_C(R))`` — from the store when the pair is maintained,
        via the columnar kernels when the algorithm keeps a columnar
        history, exactly recomputed otherwise.

        The store paths reconstruct from maintained anchors, which is
        exact only for constraints within the ``d̂`` bound cap — a
        beyond-cap constraint's skyline tuple may be anchored nowhere
        (dominated in every maintained ancestor context), so those
        queries take the exact kernel/scalar path instead."""
        kernels = self._kernels()
        if self._maintained(subspace) and self._within_bound_cap(constraint):
            if isinstance(self.algorithm, BottomUp):
                return list(self.algorithm.store.get(constraint, subspace))
            if kernels is not None:
                return kernels.maintained_skyline(constraint, subspace)
            # svec's columnar store is read through the kernels only;
            # with them pinned off its pairs are recomputed below.
            if isinstance(self.algorithm, TopDown):
                return self._skyline_from_maximal(constraint, subspace)
        if subspace == 0:
            return []
        if kernels is not None:
            return kernels.skyband_records(constraint, subspace, 1)
        from ..core.skyline import contextual_skyline

        return contextual_skyline(self.algorithm.table, constraint, subspace)

    def skyline_text(self, query: str) -> List[Record]:
        """Skyline for a textual query (see :mod:`repro.query.parser`)."""
        constraint, subspace = parse_query(query, self.schema)
        return self.skyline(constraint, subspace)

    def _maintained(self, subspace: int) -> bool:
        return subspace in self.algorithm.maintained_subspaces()

    def _within_bound_cap(self, constraint: Constraint) -> bool:
        """True when the algorithm's anchor skeleton covers this
        constraint (bound count within ``d̂``) — the validity condition
        for store reconstruction and scoring-index probes alike."""
        cap = self.algorithm.config.effective_bound_cap(constraint.arity)
        return constraint.bound_count <= cap

    def _skyline_from_maximal(
        self, constraint: Constraint, subspace: int
    ) -> List[Record]:
        """Invariant 2 reconstruction: a skyline tuple of ``(C, M)`` is
        anchored at ``C`` or one of its ancestors and satisfies ``C`` —
        one bucket read per ancestor (the columnar store answers the
        same question as one selection,
        :meth:`ColumnarQueryKernels.maintained_skyline`)."""
        store = self.algorithm.store
        seen = {}
        mask = constraint.bound_mask
        n = constraint.arity
        for sub in iter_submasks(mask):
            anc = Constraint(
                tuple(
                    constraint.values[i] if sub & (1 << i) else UNBOUND
                    for i in range(n)
                )
            )
            for record in store.get(anc, subspace):
                if record.tid not in seen and constraint.satisfied_by(record):
                    seen[record.tid] = record
        return list(seen.values())

    # ------------------------------------------------------------------
    # k-skyband and statistics
    # ------------------------------------------------------------------
    def skyband(
        self, constraint: Constraint, subspace: int, k: int
    ) -> List[Record]:
        """The k-skyband of the context: tuples dominated by fewer than
        ``k`` others (``k=1`` is the skyline).  Related work [11] builds
        its "one-of-the-few" objects on this notion.  Columnar
        algorithms answer with one chunked dominance-count reduction;
        the scalar double loop remains the fallback."""
        if k < 1:
            raise ValueError("k must be >= 1")
        kernels = self._kernels()
        if kernels is not None:
            return kernels.skyband_records(constraint, subspace, k)
        context = self.algorithm.table.select_constraint(constraint)
        out = []
        for record in context:
            dominators = 0
            for other in context:
                if other.tid != record.tid and dominates(other, record, subspace):
                    dominators += 1
                    if dominators >= k:
                        break
            if dominators < k:
                out.append(record)
        return out

    def context_size(self, constraint: Constraint) -> int:
        """``|σ_C(R)|`` — O(1) off the engine's context counter when it
        covers the constraint exactly, one columnar selection reduction
        otherwise, scalar table scan as the last resort."""
        counted = self._counted_context(constraint)
        if counted is not None:
            return counted
        kernels = self._kernels()
        if kernels is not None:
            return kernels.context_size(constraint)
        return len(self.algorithm.table.select_constraint(constraint))

    def prominence(self, constraint: Constraint, subspace: int) -> Optional[float]:
        """Prominence of the pair (§VII): ``|σ_C| / |λ_M(σ_C)|``, or
        ``None`` for an empty context (or empty subspace).  Both
        cardinalities come from one shared selection — O(1) when the
        counter and scoring index cover the pair, never two table
        scans."""
        stats = self._fast_statistics(constraint, subspace)
        if stats is not None:
            ctx, sky = stats
            return None if sky == 0 else ctx / sky
        if (
            self._maintained(subspace)
            and self._within_bound_cap(constraint)
            and isinstance(self.algorithm, (BottomUp, TopDown))
        ):
            sky = len(self.skyline(constraint, subspace))
            if sky == 0:
                return None
            return self.context_size(constraint) / sky
        kernels = self._kernels()
        if kernels is not None:
            ctx, sky = kernels.context_and_skyline_size(constraint, subspace)
            return None if sky == 0 else ctx / sky
        from ..core.skyline import skyline_bnl

        context = self.algorithm.table.select_constraint(constraint)
        sky = len(skyline_bnl(context, subspace))
        if sky == 0:
            return None
        return len(context) / sky

    def is_skyline_tuple(
        self, tid: int, constraint: Constraint, subspace: int
    ) -> bool:
        """Membership test for a specific live tuple — short-circuits on
        the first dominator instead of materialising the skyline."""
        if subspace == 0:
            return False
        target = self.algorithm.table.get(tid)
        if target is None or not constraint.satisfied_by(target):
            return False
        kernels = self._kernels()
        if kernels is not None:
            return not kernels.has_dominator(target, constraint, subspace)
        for other in self.algorithm.table:
            if (
                other.tid != tid
                and constraint.satisfied_by(other)
                and dominates(other, target, subspace)
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # Planner hooks (overridable per composition — sharded push-down)
    # ------------------------------------------------------------------
    def _counted_context(self, constraint: Constraint) -> Optional[int]:
        """``|σ_C|`` in O(1) from the engine's counter, or ``None`` when
        the counter does not cover the constraint exactly."""
        counter = self.algorithm.context_counter
        if not counter.covers(constraint):
            return None
        return counter.count(constraint)

    def _skyline_size_indexed(
        self, constraint: Constraint, subspace: int
    ) -> Optional[int]:
        """``|λ_M(σ_C)|`` as one scoring-index probe, or ``None`` when
        the pair is not covered (non-maintained subspace, beyond-cap
        constraint, no columnar store)."""
        if not self._maintained(subspace) or not self._within_bound_cap(constraint):
            return None
        kernels = self._kernels()
        if kernels is None:
            return None
        return kernels.skyline_size(constraint, subspace)

    def _fast_statistics(
        self, constraint: Constraint, subspace: int
    ) -> Optional[Tuple[int, int]]:
        """Exact ``(|σ_C|, |λ_M(σ_C)|)`` without touching any rows, or
        ``None``.  The planner prices and short-circuits queries with
        this."""
        ctx = self._counted_context(constraint)
        if ctx is None:
            return None
        if ctx == 0:
            return 0, 0
        sky = self._skyline_size_indexed(constraint, subspace)
        if sky is None:
            return None
        return ctx, sky

    # ------------------------------------------------------------------
    # Batched, cost-ordered execution
    # ------------------------------------------------------------------
    def batch(
        self,
        queries: Sequence[Union[str, Tuple[Constraint, int]]],
        top_k: Optional[int] = None,
        tau: Optional[float] = None,
        _fixed_order: bool = False,
    ):
        """Answer many ``(constraint, subspace)`` queries (or query
        strings) through the cost-ordered planner: cheapest first, with
        early termination once the ``tau`` / ``top_k`` bounds are
        provably met.  Returns the reported
        :class:`~repro.query.planner.QueryResult` list in input order;
        ``_fixed_order=True`` pins naive input-order execution for
        differential testing and benchmarks.  See
        :class:`~repro.query.planner.QueryPlan`.
        """
        from .planner import QueryPlan

        plan = QueryPlan(
            self, queries, top_k=top_k, tau=tau, ordered=not _fixed_order
        )
        return plan.execute()
