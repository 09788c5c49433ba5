"""The one engine contract every discovery composition honours.

Historically the library grew four divergent entry points — the in-proc
:class:`~repro.core.engine.FactDiscoverer`, the subspace-sharded
:class:`~repro.service.sharding.ShardedDiscoverer`, and a windowed and
an aggregate wrapper class (since replaced by the
:mod:`repro.api.middleware` layers) — each hand-wiring schema, config,
scoring, snapshots and queries differently.  This module pins
down the single :class:`Engine` protocol they all implement, so serving,
checkpointing and querying code can take *any* engine:

=====================  =================================================
Member                 Contract
=====================  =================================================
``observe(row)``       Process one arrival → reportable facts (policy
                       applied: ``τ`` / ``top_k`` / all-ranked).
``observe_many(rows)`` Batched ``observe``; identical output, amortised
                       overhead.
``facts_for(row)``     One arrival → the full (scored) ``S_t`` FactSet.
``facts_for_many``     Batched ``facts_for``.
``delete(tid)``        §VIII retraction; returns the removed Record.
``delete_many(tids)``  Grouped retraction; one store compaction pass
                       for the whole group instead of per tid.
``update(tid, row)``   Retract-then-observe replacement.
``query()``            A contextual query engine over the live state
                       (forward skyline / skyband / prominence).
``snapshot(path)``     Persist a restorable snapshot (format v3 embeds
                       the engine's :class:`~repro.api.spec.EngineSpec`).
``stats()``            One JSON-able dict of operational metrics.
``close()``            Release workers/files; idempotent.  Engines are
                       context managers (``with open_engine(spec): …``).
``__len__``            Live tuple count.
=====================  =================================================

Plus the data members every engine exposes: ``schema`` (the *input* row
schema), ``discovery_schema`` (the relation facts are discovered over —
differs from ``schema`` only for aggregate engines), ``config``,
``table``, ``counters``, ``score`` and ``spec`` (the declarative
:class:`~repro.api.spec.EngineSpec` that re-creates the engine via
:func:`~repro.api.facade.open_engine`).

:class:`EngineBase` supplies the derivable members (reporting-policy
application, update, context management, snapshots, stats, the query
facade) so concrete engines implement only their core streaming calls.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Union,
    runtime_checkable,
)

from .facts import FactSet, SituationalFact
from .prominence import select_reportable
from .record import Record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.spec import EngineSpec
    from ..query.contextual import ContextualQueryEngine
    from .config import DiscoveryConfig
    from .schema import TableSchema

Row = Union[Mapping[str, object], Record]


@runtime_checkable
class Engine(Protocol):
    """Structural type of every discovery engine (see module docstring).

    Methods only — ``runtime_checkable`` protocols verify callables, so
    ``isinstance(engine, Engine)`` works on every supported Python; the
    data members (``schema`` / ``config`` / ``table`` / ``spec`` / …)
    are part of the contract too and are asserted by the conformance
    suite in ``tests/test_engine_api.py``.
    """

    def observe(self, row: Row) -> List[SituationalFact]: ...

    def observe_many(self, rows: Iterable[Row]) -> List[List[SituationalFact]]: ...

    def facts_for(self, row: Row) -> FactSet: ...

    def facts_for_many(self, rows: Iterable[Row]) -> List[FactSet]: ...

    def delete(self, tid: int) -> Record: ...

    def delete_many(self, tids: Iterable[int]) -> List[Record]: ...

    def update(self, tid: int, row: Mapping[str, object]) -> List[SituationalFact]: ...

    def query(self) -> "ContextualQueryEngine": ...

    def snapshot(self, path: Optional[str] = None) -> str: ...

    def stats(self) -> Dict[str, object]: ...

    def close(self) -> None: ...

    def __len__(self) -> int: ...


class EngineBase:
    """Shared default implementations of the :class:`Engine` contract.

    Subclasses provide ``facts_for`` / ``facts_for_many`` / ``delete``
    plus the ``schema`` / ``config`` / ``table`` / ``counters``
    attributes; everything else is derived here (and may be overridden
    where a composition has a faster or semantically different path).
    """

    #: Engine-kind tag surfaced by :meth:`stats` and snapshots.
    kind: str = "engine"

    # -- reporting policy ------------------------------------------------
    def observe(self, row: Row) -> List[SituationalFact]:
        """Process one arriving tuple and return its reportable facts.

        The returned list honours the config's reporting policy: all
        ranked facts by default, the prominent ones when ``τ`` is set,
        or the top-k when ``top_k`` is set.
        """
        return select_reportable(self.facts_for(row), self.config)

    def observe_many(self, rows: Iterable[Row]) -> List[List[SituationalFact]]:
        """Batched :meth:`observe`: one reportable-fact list per row.

        Semantically identical to ``[self.observe(r) for r in rows]`` —
        each tuple is still discovered and scored against the relation
        as of *its own* arrival — but the whole block reaches
        :meth:`facts_for_many`, where engines amortise array growth and
        per-call overhead across it.
        """
        return [
            select_reportable(facts, self.config)
            for facts in self.facts_for_many(rows)
        ]

    def delete_many(self, tids: Iterable[int]) -> List[Record]:
        """Grouped :meth:`delete`: retract several tuples, returning the
        removed records in argument order.  Engines whose storage can
        batch the physical reclamation (the columnar store's deferred
        compaction) override this; the default simply loops."""
        return [self.delete(tid) for tid in tids]

    def update(self, tid: int, row: Mapping[str, object]) -> List[SituationalFact]:
        """Replace a previously observed tuple (§VIII "update of data").

        Implemented as retract-then-observe: the old version leaves every
        skyline it held (suppressed tuples re-enter), and the new version
        is discovered against the repaired state.  The updated tuple
        receives a fresh arrival id; returns its reportable facts.
        """
        self.delete(tid)
        return self.observe(row)

    # -- schemas ---------------------------------------------------------
    @property
    def discovery_schema(self) -> "TableSchema":
        """Schema of the relation facts are discovered over.

        Equals :attr:`schema` except for aggregate engines, whose input
        rows are base tuples while facts describe the aggregate
        relation.
        """
        return self.schema

    @property
    def arrivals(self) -> int:
        """Monotone count of tuples ever observed (deletions do not
        decrease it) — the serving layer's applied-prefix marker when a
        batch fails midway."""
        return self.table.arrivals

    # -- spec / persistence ---------------------------------------------
    #: Set by :func:`repro.api.open_engine` (and the middleware layers)
    #: so the exact opening spec — checkpoint policy included — is
    #: authoritative over the attribute-derived reconstruction.
    _spec_override = None

    @property
    def spec(self) -> "EngineSpec":
        """The declarative spec that rebuilds this engine."""
        if self._spec_override is not None:
            return self._spec_override
        return self._derive_spec()

    def _derive_spec(self) -> "EngineSpec":
        """Reconstruct a spec from live attributes (engines built
        directly, without :func:`~repro.api.open_engine`)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not expose an EngineSpec"
        )

    def snapshot(self, path: Optional[str] = None) -> str:
        """Write a restorable snapshot; returns the path written.

        ``path`` defaults to the spec's checkpoint policy.  Restore with
        :func:`repro.api.restore` (or ``repro.extensions.load_engine``).
        """
        from ..extensions.snapshot import save_engine

        if path is None:
            policy = getattr(self.spec, "checkpoint", None)
            path = policy.path if policy is not None else None
        if path is None:
            raise ValueError(
                "no snapshot path: pass one or set spec.checkpoint"
            )
        save_engine(self, path)
        return path

    def snapshot_rows(self) -> List[dict]:
        """The input rows a snapshot must replay to rebuild this engine.

        Default: the live table in arrival order.  Aggregate engines
        override this with their base-row journal (their table holds
        derived tuples that must not be re-aggregated).
        """
        schema = self.schema
        return [record.as_dict(schema) for record in self.table]

    # -- queries ---------------------------------------------------------
    def query(self) -> "ContextualQueryEngine":
        """A forward contextual-skyline query engine over the live state.

        The engine's incremental context counter rides along so covered
        ``|σ_C|`` statistics answer in O(1) (see
        :meth:`~repro.query.contextual.ContextualQueryEngine.batch`).
        """
        from ..query.contextual import ContextualQueryEngine

        return ContextualQueryEngine(
            self._query_view(),
            context_counter=getattr(self, "context_counter", None),
        )

    def _query_view(self):
        """The algorithm-shaped state object queries run against."""
        return self.algorithm

    # -- metrics / lifecycle ---------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Operational metrics snapshot (JSON-able)."""
        return {
            "kind": self.kind,
            "rows": len(self),
            "score": bool(getattr(self, "score", True)),
            "counters": self.counters.snapshot(),
        }

    def close(self) -> None:
        """Release resources (workers, files).  Idempotent no-op here."""

    def __len__(self) -> int:
        return len(self.table)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
