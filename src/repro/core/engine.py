"""`FactDiscoverer` — the library's main entry point.

Wires together a discovery algorithm (§IV–V), which keeps the
incremental context counter beside its history, prominence scoring and
the reporting policy (§VII) behind one streaming call::

    >>> from repro import DiscoveryConfig, FactDiscoverer, TableSchema
    >>> schema = TableSchema(("player", "team"), ("points", "assists"))
    >>> engine = FactDiscoverer(schema, algorithm="stopdown")
    >>> facts = engine.observe({"player": "Wesley", "team": "Celtics",
    ...                         "points": 12, "assists": 13})
    >>> len(facts) > 0
    True
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Mapping, Optional, Union

from ..metrics.counters import OpCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algorithms import DiscoveryAlgorithm
from .config import DiscoveryConfig
from .engine_protocol import EngineBase
from .facts import FactSet
from .record import Record
from .schema import TableSchema

Row = Union[Mapping[str, object], Record]


class FactDiscoverer(EngineBase):
    """Streaming discovery of prominent situational facts.

    Parameters
    ----------
    schema:
        The relation schema ``R(D; M)``.
    algorithm:
        Registry name (``"stopdown"``, ``"bottomup"``, …) or an
        already-constructed :class:`DiscoveryAlgorithm`.
    config:
        ``d̂``/``m̂`` caps, prominence threshold ``τ``, ``top_k``.
    score:
        When True (default) every fact is annotated with context and
        skyline cardinalities so prominence ranking works; turn off for
        raw ``S_t`` streaming at maximum speed.

    ``FactDiscoverer`` is the in-proc
    :class:`~repro.core.engine_protocol.EngineBase`; prefer
    building engines declaratively via
    :func:`repro.api.open_engine` — this constructor remains as the
    back-compat entry point (and the facade's ``"single"`` backend).
    """

    kind = "single"

    def __init__(
        self,
        schema: TableSchema,
        algorithm: Union[str, DiscoveryAlgorithm] = "stopdown",
        config: Optional[DiscoveryConfig] = None,
        score: bool = True,
    ) -> None:
        # Imported here to keep ``repro.core`` importable on its own
        # (``repro.algorithms`` and ``repro.api`` import back into the
        # core package).
        from ..algorithms import DiscoveryAlgorithm, make_algorithm
        from ..api.spec import EngineSpec

        self.schema = schema
        self.config = config or DiscoveryConfig()
        if isinstance(algorithm, DiscoveryAlgorithm):
            self.algorithm = algorithm
        else:
            self.algorithm = make_algorithm(algorithm, schema, self.config)
        #: The declarative spec rebuilding this engine (snapshot format
        #: v3 persists it); building it validates the arguments.
        self.spec = EngineSpec(
            schema=schema,
            algorithm=self.algorithm.name,
            config=self.config,
            score=score,
        )
        self.score = score

    @property
    def context_counter(self):
        """The algorithm's constraint table: ``|σ_C|`` per constraint of
        ``C^t``, on the algorithm's ``d̂`` cap, so a fact's position
        along ``C^t`` means the same to both halves of the scoring
        call."""
        return self.algorithm.context_counter

    # ------------------------------------------------------------------
    # Streaming API
    # ------------------------------------------------------------------
    def facts_for(self, row: Row) -> FactSet:
        """Process one tuple and return the full (scored) ``S_t``."""
        facts = self.algorithm.process(row)
        if self.score:
            facts.set_scores(
                self.context_counter.context_column(facts),
                self.algorithm.skyline_column(facts),
            )
        return facts

    def facts_for_many(self, rows: Iterable[Row]) -> List[FactSet]:
        """Batched :meth:`facts_for`: one full (scored) ``S_t`` per row.

        Prominence for row ``i`` must be measured against the relation
        state *at arrival ``i``*, so rows are processed one by one
        (after one upfront capacity reservation) — but every
        per-arrival step stays on the algorithm's columnar machinery
        (vectorized discovery, the store's incremental
        skyline-cardinality index, the constraint table), so scored
        blocks ingest at columnar speed.
        """
        rows = list(rows)
        self.algorithm.reserve(len(rows))
        return [self.facts_for(row) for row in rows]

    def delete(self, tid: int) -> Record:
        """Remove a previously observed tuple (§VIII deletion extension).

        Repairs the algorithm's skyline stores — tuples the removed one
        was suppressing re-enter their contextual skylines — and its
        context counts used for prominence.  Returns the removed
        record.
        """
        return self.algorithm.retract(tid)

    def delete_many(self, tids: Iterable[int]) -> List[Record]:
        """Grouped :meth:`delete` (window eviction, bulk expiry).

        Skyline repair stays per-tuple — each retraction must see the
        state the previous one left — but the columnar store defers its
        physical compaction to one pass over the whole group, so
        deleting ``k`` tuples costs one row-slide instead of ``k``.
        """
        return self.algorithm.retract_many(list(tids))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def counters(self) -> OpCounters:
        """The algorithm's operation counters."""
        return self.algorithm.counters

    @property
    def table(self):
        """The underlying append-only relation."""
        return self.algorithm.table

    def stats(self) -> dict:
        """Operational metrics snapshot (JSON-able)."""
        out = super().stats()
        out["algorithm"] = self.algorithm.name
        if hasattr(self.algorithm, "store"):
            out["store_bytes"] = self.algorithm.approx_bytes()
        return out

    def __repr__(self) -> str:
        return (
            f"FactDiscoverer(algorithm={self.algorithm.name!r}, "
            f"n={len(self.algorithm.table)})"
        )
