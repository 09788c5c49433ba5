"""The one engine contract every discovery composition honours.

Historically the library grew four divergent entry points — the in-proc
:class:`~repro.core.engine.FactDiscoverer`, the subspace-sharded
:class:`~repro.service.sharding.ShardedDiscoverer`, and a windowed and
an aggregate wrapper class (since replaced by the
:mod:`repro.api.middleware` layers) — each hand-wiring schema, config,
scoring, snapshots and queries differently.  This module pins
down the one class they all subclass, :class:`EngineBase` (exported as
``Engine``), so serving, checkpointing and querying code can take *any*
engine:

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
``table``, ``counters``, ``score``, ``chunk_size`` (rows per
``facts_for_many`` call a server hands over), ``degraded``, ``version``
(``(arrivals, deletions)``) and ``spec`` (the declarative
:class:`~repro.api.spec.EngineSpec` that re-creates the engine via
:func:`~repro.api.facade.open_engine`, set once when the engine is
built).

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
    Tuple,
    Union,
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


class EngineBase:
    """The engine contract (see module docstring), with the shared
    default implementations.

    Subclasses provide ``facts_for`` / ``facts_for_many`` / ``delete``
    plus the ``schema`` / ``config`` / ``table`` / ``counters`` /
    ``score`` / ``spec`` attributes; everything else is derived here
    (and may be overridden where a composition has a faster or
    semantically different path).
    """

    #: Engine-kind tag surfaced by :meth:`stats` and snapshots.
    kind: str = "engine"
    #: Rows per ``facts_for_many`` call a server hands over at a time.
    chunk_size: int = 1
    #: Whether a sharded engine fell back to in-router execution.
    degraded: bool = False
    spec: "EngineSpec"
    score: bool

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

    @property
    def version(self) -> Tuple[int, int]:
        """``(arrivals, deletions)`` — every mutation strictly increases
        one of the two, so equality proves the state is unchanged (the
        stamp query caches and feed sidecars key on)."""
        arrivals = self.arrivals
        return arrivals, arrivals - len(self)

    # -- persistence -----------------------------------------------------
    def snapshot(self, path: Optional[str] = None) -> str:
        """Write a restorable snapshot; returns the path written.

        ``path`` defaults to the spec's checkpoint policy.  Restore with
        :func:`repro.api.restore` (or ``repro.extensions.load_engine``).
        """
        from ..extensions.snapshot import save_engine

        if path is None and self.spec.checkpoint is not None:
            path = self.spec.checkpoint.path
        if path is None:
            raise ValueError(
                "no snapshot path: pass one or set spec.checkpoint"
            )
        save_engine(self, path)
        return path

    def snapshot_state(self) -> Dict[str, object]:
        """The sections a snapshot replays to rebuild this engine: the
        live rows in arrival order (``rows``), each row's tid (``tids``)
        and the arrival count (``arrivals``), so a restore numbers every
        row, and the next arrival, as they were.  Aggregate engines
        override this with their base-row journal alone (their table
        holds derived tuples that must not be re-aggregated; replaying
        the journal renumbers them exactly)."""
        schema = self.schema
        records = list(self.table)
        return {
            "rows": [record.as_dict(schema) for record in records],
            "tids": [record.tid for record in records],
            "arrivals": self.arrivals,
        }

    def resume_at(self, tid: int) -> None:
        """Number the next arrival ``tid`` (snapshot restore)."""
        self.table.resume_at(tid)

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
            context_counter=self.context_counter,
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
            "score": bool(self.score),
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


#: The public name of the one engine contract.
Engine = EngineBase
