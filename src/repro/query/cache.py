"""Versioned result caching for the forward query surface (PR 8).

Read-heavy serving workloads repeat queries far more often than they
write.  :class:`QueryResultCache` is a small LRU keyed by
``(query key, engine version)`` where the version is the pair
``(arrivals, deletions)`` — every engine mutation strictly increases one
of the two, so a version match proves the cached answer is still exact
and *no explicit invalidation hook is needed*: a write simply makes
every cached version stale, and stale entries are overwritten (or aged
out by the LRU) on their next probe.

:class:`CachedQueryEngine` wraps any
:class:`~repro.query.contextual.ContextualQueryEngine` (the router-
merged sharded subclass included) and memoises its full read surface —
``skyline`` / ``skyband`` / ``context_size`` / ``prominence`` /
``is_skyline_tuple`` / ``batch``.  List-valued answers are copied on
every hit so callers mutating their result cannot poison the cache.

The layer composes over any engine via
:class:`~repro.api.middleware.QueryCacheMiddleware`
(``EngineSpec(query_cache=N)``); hit/miss/eviction counters surface
through ``engine.stats()["query_cache"]`` and the server's ``stats`` reply.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.constraint import Constraint
from ..core.record import Record
from .parser import parse_query
from .planner import QueryResult, normalize_queries

#: ``(arrivals, deletions)`` — totally ordered by engine mutations.
Version = Tuple[int, int]


class QueryResultCache:
    """LRU of ``key -> (version, value)`` with occupancy accounting.

    A probe whose stored version differs from the live engine version is
    a *miss* (the entry is stale); the fresh answer then overwrites it
    in place, so writes never grow the cache beyond ``capacity``.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("query cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[object, Tuple[Version, object]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: object, version: Version) -> Tuple[bool, object]:
        """``(hit, value)`` — a version mismatch counts as a miss."""
        entry = self._entries.get(key)
        if entry is not None and entry[0] == version:
            self._entries.move_to_end(key)
            self.hits += 1
            return True, entry[1]
        self.misses += 1
        return False, None

    def put(self, key: object, version: Version, value: object) -> None:
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = (version, value)
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> Dict[str, int]:
        """JSON-able counter rendering (feeds ``engine.stats()``)."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class CachedQueryEngine:
    """Memoising façade over a :class:`ContextualQueryEngine`.

    ``version_fn`` returns the live engine's ``(arrivals, deletions)``
    pair; answers are cached against the version current at compute
    time, so any interleaved write invalidates them for free.  Exposes
    the same read surface as the wrapped engine (it *is* the object
    ``engine.query()`` returns for cached compositions).
    """

    def __init__(
        self,
        inner,
        cache: QueryResultCache,
        version_fn: Callable[[], Version],
    ) -> None:
        self.inner = inner
        self.algorithm = inner.algorithm
        self.schema = inner.schema
        self.cache = cache
        self._version = version_fn

    # ------------------------------------------------------------------
    # Memoisation core
    # ------------------------------------------------------------------
    def _memo(self, key: object, compute: Callable[[], object], copy: bool = False):
        version = self._version()
        hit, value = self.cache.get(key, version)
        if not hit:
            value = compute()
            self.cache.put(key, version, value)
        # Hand out a fresh list each time so callers mutating their
        # answer cannot corrupt the cached one.
        return list(value) if copy else value  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Cached read surface (mirrors ContextualQueryEngine)
    # ------------------------------------------------------------------
    def skyline(self, constraint: Constraint, subspace: int) -> List[Record]:
        return self._memo(
            ("skyline", constraint, subspace),
            lambda: self.inner.skyline(constraint, subspace),
            copy=True,
        )

    def skyline_text(self, query: str) -> List[Record]:
        constraint, subspace = parse_query(query, self.schema)
        return self.skyline(constraint, subspace)

    def skyband(
        self, constraint: Constraint, subspace: int, k: int
    ) -> List[Record]:
        if k < 1:
            raise ValueError("k must be >= 1")
        return self._memo(
            ("skyband", constraint, subspace, k),
            lambda: self.inner.skyband(constraint, subspace, k),
            copy=True,
        )

    def context_size(self, constraint: Constraint) -> int:
        return self._memo(
            ("context", constraint),
            lambda: self.inner.context_size(constraint),
        )

    def prominence(
        self, constraint: Constraint, subspace: int
    ) -> Optional[float]:
        return self._memo(
            ("prominence", constraint, subspace),
            lambda: self.inner.prominence(constraint, subspace),
        )

    def is_skyline_tuple(
        self, tid: int, constraint: Constraint, subspace: int
    ) -> bool:
        return self._memo(
            ("member", tid, constraint, subspace),
            lambda: self.inner.is_skyline_tuple(tid, constraint, subspace),
        )

    def batch(
        self,
        queries: Sequence[Union[str, Tuple[Constraint, int]]],
        top_k: Optional[int] = None,
        tau: Optional[float] = None,
        _fixed_order: bool = False,
    ) -> List[QueryResult]:
        pairs = tuple(normalize_queries(queries, self.schema))
        return self._memo(
            ("batch", pairs, top_k, tau, _fixed_order),
            lambda: self.inner.batch(
                pairs, top_k=top_k, tau=tau, _fixed_order=_fixed_order
            ),
            copy=True,
        )

    # ------------------------------------------------------------------
    # Planner hooks (delegated — a QueryPlan built over this engine
    # prices from the same statistics as the uncached one)
    # ------------------------------------------------------------------
    def _counted_context(self, constraint: Constraint) -> Optional[int]:
        return self.inner._counted_context(constraint)

    def _skyline_size_indexed(
        self, constraint: Constraint, subspace: int
    ) -> Optional[int]:
        return self.inner._skyline_size_indexed(constraint, subspace)
