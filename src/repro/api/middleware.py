"""Composable engine middleware: windows, aggregation, query caching.

Each middleware wraps *any* :class:`~repro.core.engine_protocol.Engine`
and is another one — so a window can sit over an in-proc engine or a
sharded service, and a wrapped engine is still servable by
:class:`~repro.service.server.StreamServer`, checkpointable via snapshot
format v3, and queryable via ``engine.query()``.

:func:`~repro.api.facade.open_engine` applies the layers the spec
activates (``aggregate=GroupSpec``, ``window=N``, ``query_cache=N``),
inner to outer in that order.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from ..core.engine_protocol import Engine, EngineBase, Row
from ..core.facts import FactSet
from ..core.record import Record
from ..core.schema import TableSchema
from ..query.cache import CachedQueryEngine, QueryResultCache
from .spec import EngineSpec


class EngineMiddleware(EngineBase):
    """Base wrapper: delegate the whole engine surface to ``inner``.

    Subclasses override the streaming calls they mediate and inherit
    transparent delegation for everything else (schemas, config, table,
    counters, queries, lifecycle).
    """

    kind = "middleware"

    def __init__(self, inner: Engine, spec: EngineSpec) -> None:
        self.inner = inner
        #: The spec of the composition this layer tops; the layer reads
        #: its own section from it.
        self.spec = spec
        #: Callbacks fired with the records a layer retracts *internally*
        #: (window evictions, aggregate group updates) — removals that
        #: never surface as server-level delete ops.  The feed tier
        #: (:class:`~repro.service.feeds.FeedStore`) registers here so
        #: its repair pass stays exact under those compositions.
        self._retraction_listeners: List = []

    def add_retraction_listener(self, listener) -> None:
        """Register ``listener(records)`` for internal retractions."""
        self._retraction_listeners.append(listener)

    def _notify_retraction(self, records: List[Record]) -> None:
        if records:
            for listener in self._retraction_listeners:
                listener(records)

    # -- delegated data members -----------------------------------------
    @property
    def schema(self) -> TableSchema:
        return self.inner.schema

    @property
    def discovery_schema(self) -> TableSchema:
        return self.inner.discovery_schema

    @property
    def config(self):
        return self.inner.config

    @property
    def table(self):
        return self.inner.table

    @property
    def counters(self):
        return self.inner.counters

    @property
    def score(self) -> bool:
        return self.inner.score

    @property
    def degraded(self) -> bool:
        """Whether a sharded engine underneath fell back to in-router
        execution (``False`` for every other composition)."""
        return self.inner.degraded

    # -- delegated behaviour --------------------------------------------
    def facts_for(self, row: Row) -> FactSet:
        return self.inner.facts_for(row)

    def facts_for_many(self, rows: Iterable[Row]) -> List[FactSet]:
        return [self.facts_for(row) for row in rows]

    def delete(self, tid: int) -> Record:
        return self.inner.delete(tid)

    def delete_many(self, tids: Iterable[int]) -> List[Record]:
        return self.inner.delete_many(tids)

    def resume_at(self, tid: int) -> None:
        self.inner.resume_at(tid)

    def query(self):
        return self.inner.query()

    def stats(self) -> Dict[str, object]:
        out = self.inner.stats()
        out["kind"] = self.kind
        out["inner_kind"] = self.inner.kind
        return out

    def close(self) -> None:
        self.inner.close()

    def __len__(self) -> int:
        return len(self.inner)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.inner!r})"


class WindowMiddleware(EngineMiddleware):
    """Count-based sliding window over any engine (§VIII deletions).

    Keeps only the ``window`` most recent tuples live: each arrival
    beyond the horizon retracts the oldest first, so every reported fact
    is a statement about the window, not all history.  The live tuples
    are the inner engine's table (arrival order), so explicit deletes
    need no bookkeeping here.

    Examples
    --------
    >>> from repro import TableSchema
    >>> from repro.api import EngineSpec, open_engine
    >>> spec = EngineSpec(TableSchema(("d",), ("m",)), window=3)
    >>> engine = open_engine(spec)
    >>> for v in (5, 1, 1, 1):
    ...     _ = engine.observe({"d": "x", "m": v})
    >>> len(engine)  # the 5 has slid out
    3
    """

    kind = "windowed"

    def __init__(self, inner: Engine, spec: EngineSpec) -> None:
        super().__init__(inner, spec)
        self.window = spec.window

    def facts_for(self, row: Row) -> FactSet:
        """Discover one arrival; evict the oldest tuples when the window
        overflows (eviction happens *before* discovery so the new tuple
        is compared only against live ones)."""
        inner = self.inner
        table = inner.table
        overflow = len(table) - self.window + 1
        if overflow > 0:
            evicted = [record.tid for record in islice(table, overflow)]
            # One grouped retraction: the inner store compacts (at most)
            # once for the whole eviction burst, not once per tuple.
            self._notify_retraction(inner.delete_many(evicted))
        return inner.facts_for(row)

    @property
    def live_tids(self) -> List[int]:
        """Arrival ids currently inside the window, oldest first."""
        return [record.tid for record in self.inner.table]

    def stats(self) -> Dict[str, object]:
        out = super().stats()
        out["window"] = self.window
        return out


class _GroupState:
    """Running aggregate state for one group."""

    __slots__ = ("count", "sums", "maxes", "mins")

    def __init__(self, measures: Sequence[str]) -> None:
        self.count = 0
        self.sums: Dict[str, float] = {m: 0.0 for m in measures}
        self.maxes: Dict[str, float] = {}
        self.mins: Dict[str, float] = {}

    def update(self, row: Mapping[str, object], measures: Sequence[str]) -> None:
        self.count += 1
        for m in measures:
            value = float(row[m])  # type: ignore[arg-type]
            self.sums[m] += value
            if m not in self.maxes or value > self.maxes[m]:
                self.maxes[m] = value
            if m not in self.mins or value < self.mins[m]:
                self.mins[m] = value

    def value(self, base: str, fn: str) -> float:
        if fn == "sum":
            return self.sums[base]
        if fn == "max":
            return self.maxes[base]
        if fn == "min":
            return self.mins[base]
        if fn == "count":
            return float(self.count)
        return self.sums[base] / self.count  # avg


class AggregateMiddleware(EngineMiddleware):
    """Fact discovery over running group aggregates (§VIII).

    Folds each base row into its group's running aggregates, retracts
    the group's previous aggregate tuple from the inner engine, and
    observes the fresh one — facts always describe *current* group
    totals.  The input :attr:`schema` is the base-row schema; facts are
    stated over :attr:`discovery_schema` (the aggregate relation).
    """

    kind = "aggregate"

    def __init__(self, inner: Engine, spec: EngineSpec) -> None:
        super().__init__(inner, spec)
        self.group = spec.aggregate
        self._base_schema = spec.schema
        self._base_measures = self.group.base_measures
        self._groups: Dict[Tuple[object, ...], _GroupState] = {}
        self._live_tid: Dict[Tuple[object, ...], int] = {}
        #: Base rows observed, in order — the snapshot replay journal
        #: (the inner table holds derived aggregates, which must not be
        #: re-aggregated on restore).  O(stream) memory, the same order
        #: a non-aggregate engine's table retains.
        self._journal: List[dict] = []

    # -- schemas ---------------------------------------------------------
    @property
    def schema(self) -> TableSchema:
        """The *base* row schema (validation gate for ingestion)."""
        return self._base_schema

    @property
    def discovery_schema(self) -> TableSchema:
        return self.inner.schema

    # -- streaming -------------------------------------------------------
    def facts_for(self, row: Row) -> FactSet:
        """Fold one base row into its group and rediscover facts for the
        group's updated aggregate tuple."""
        if isinstance(row, Record):
            row = row.as_dict(self._base_schema)
        key = tuple(row[a] for a in self.group.group_by)
        state = self._groups.get(key)
        if state is None:
            state = _GroupState(self._base_measures)
            self._groups[key] = state
        state.update(row, self._base_measures)

        inner = self.inner
        old_tid = self._live_tid.get(key)
        if old_tid is not None:
            self._notify_retraction([inner.delete(old_tid)])
        agg_row: Dict[str, object] = dict(zip(self.group.group_by, key))
        for name, (base, fn) in self.group.aggregations.items():
            agg_row[name] = state.value(base, fn)
        facts = inner.facts_for(agg_row)
        self._live_tid[key] = facts.record.tid
        self._journal.append({
            a: row[a]
            for a in (*self._base_schema.dimensions,
                      *self._base_schema.measures)
        })
        return facts

    def delete(self, tid: int) -> Record:
        raise RuntimeError(
            "aggregate engines derive deletions from group updates; "
            "retracting one aggregate tuple would desync its running "
            "group state"
        )

    # -- aggregate introspection ----------------------------------------
    def group_count(self) -> int:
        """Number of live groups (= live aggregate tuples)."""
        return len(self._groups)

    def aggregate_row(self, key: Tuple[object, ...]) -> Dict[str, object]:
        """Current aggregate tuple of ``key`` (for inspection)."""
        state = self._groups[key]
        out: Dict[str, object] = dict(zip(self.group.group_by, key))
        for name, (base, fn) in self.group.aggregations.items():
            out[name] = state.value(base, fn)
        return out

    def snapshot_state(self) -> Dict[str, object]:
        return {"rows": list(self._journal)}

    def stats(self) -> Dict[str, object]:
        out = super().stats()
        out["groups"] = self.group_count()
        out["base_rows"] = len(self._journal)
        return out


class QueryCacheMiddleware(EngineMiddleware):
    """Versioned result cache over any engine's read path (PR 8).

    ``engine.query()`` returns a
    :class:`~repro.query.cache.CachedQueryEngine` memoising skyline /
    skyband / statistics / batch answers against the engine version
    ``(arrivals, deletions)`` — every write bumps the version, so cached
    answers can never go stale (no invalidation hooks, no write-path
    coupling).  One shared :class:`~repro.query.cache.QueryResultCache`
    backs every query engine handed out, so hits accumulate across
    ``query()`` calls and over the TCP ``query`` op.

    Examples
    --------
    >>> from repro import TableSchema
    >>> from repro.api import EngineSpec, open_engine
    >>> spec = EngineSpec(TableSchema(("d",), ("m",)), query_cache=64)
    >>> engine = open_engine(spec)
    >>> _ = engine.observe({"d": "x", "m": 1})
    >>> q = engine.query()
    >>> _ = q.skyline_text("d=x | m"); _ = q.skyline_text("d=x | m")
    >>> engine.stats()["query_cache"]["hits"]
    1
    """

    kind = "query-cached"

    def __init__(self, inner: Engine, spec: EngineSpec) -> None:
        super().__init__(inner, spec)
        self.cache = QueryResultCache(spec.query_cache)

    # Writes pass through whole: a block, and the chunk a server slices
    # it by, reach a sharded router as they would without the cache.
    @property
    def chunk_size(self) -> int:
        return self.inner.chunk_size

    def facts_for_many(self, rows: Iterable[Row]) -> List[FactSet]:
        return self.inner.facts_for_many(rows)

    def query(self) -> CachedQueryEngine:
        return CachedQueryEngine(
            self.inner.query(), self.cache, lambda: self.version
        )

    def stats(self) -> Dict[str, object]:
        out = super().stats()
        out["query_cache"] = self.cache.snapshot()
        return out
