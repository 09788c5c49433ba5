"""Streaming news feed of prominent facts (§VII reporting policy).

Wraps any :class:`~repro.core.engine_protocol.Engine` and, per arriving
tuple, emits the *prominent facts* — the facts tied at the highest
prominence in ``S_t``, provided that prominence reaches ``τ`` — as
narrated headlines.  This is the end-to-end pipeline a newsroom would
run (paper §I motivation).  Engines are built through
:func:`repro.api.open_engine`, so a feed can run over a sharded or
windowed composition by passing ``engine=`` (or a full spec).

Since the feed fan-out tier landed, :class:`NewsFeed` is a thin
composition over :class:`~repro.service.feeds.FeedStore`: every push
folds the arrival's full ``S_t`` into materialized per-segment
standings (exactly the state the HTTP/WebSocket gateway serves), so
:meth:`NewsFeed.feed` answers "current top-k for segment X" without
touching the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional

from ..api.facade import open_engine
from ..api.spec import EngineSpec
from ..core.config import DiscoveryConfig
from ..core.engine_protocol import Engine
from ..core.facts import SituationalFact
from ..core.prominence import select_reportable
from ..core.schema import TableSchema
from ..service.feeds import FeedStore
from .narrate import narrate


@dataclass
class Headline:
    """One emitted news item."""

    tuple_index: int
    fact: SituationalFact
    text: str


class NewsFeed:
    """Prominence-thresholded streaming reporter over materialized feeds.

    Examples
    --------
    >>> from repro import TableSchema
    >>> schema = TableSchema(("player",), ("points",))
    >>> feed = NewsFeed(schema, tau=2.0)
    >>> _ = feed.push({"player": "A", "points": 10})
    """

    def __init__(
        self,
        schema: TableSchema,
        tau: float = 500.0,
        max_bound_dims: Optional[int] = 3,
        max_measure_dims: Optional[int] = 3,
        engine: Optional[Engine] = None,
    ) -> None:
        self.schema = schema
        if engine is None:
            spec = EngineSpec(
                schema=schema,
                config=DiscoveryConfig(
                    max_bound_dims=max_bound_dims,
                    max_measure_dims=max_measure_dims,
                    tau=tau,
                ),
            )
            engine = open_engine(spec)
        self.engine = engine
        #: Materialized standings every push folds into, segmented as
        #: the engine spec's ``feeds`` section says (one ``*`` segment
        #: without one); the same state the service gateway reads.
        #: Window evictions and aggregate retractions are hooked via
        #: ``attach`` and repaired per push.
        self.store = FeedStore.for_engine(engine)
        self.store.attach(engine)
        self.headlines: List[Headline] = []
        self._index = 0

    def push(self, row: Mapping[str, object]) -> List[Headline]:
        """Feed one tuple; returns headlines it triggered (often none)."""
        factset = self.engine.facts_for(row)
        prominent = select_reportable(factset, self.engine.config)
        self.store.apply_event(factset.record, factset)
        # Fold any retractions the arrival caused (window eviction,
        # aggregate group update) so standings track the live engine.
        self.store.repair(self.engine)
        schema = self.engine.discovery_schema
        emitted = [
            Headline(self._index, fact, narrate(fact, schema))
            for fact in prominent
        ]
        self.headlines.extend(emitted)
        self._index += 1
        return emitted

    def run(self, rows: Iterable[Mapping[str, object]]) -> List[Headline]:
        """Feed a whole stream; returns every headline emitted."""
        for row in rows:
            self.push(row)
        return self.headlines

    # ------------------------------------------------------------------
    # Materialized reads
    # ------------------------------------------------------------------
    def segments(self) -> List[dict]:
        """Summary of the materialized segments (key, version, size)."""
        return self.store.segments()

    def feed(
        self,
        segment: Optional[str] = None,
        top_k: Optional[int] = None,
        tau: Optional[float] = None,
    ) -> List[dict]:
        """Current ranked standings of one segment (default: the global
        ``"*"`` segment), straight from materialized state."""
        if segment is None:
            keys = self.store.segment_keys()
            segment = keys[0] if keys else "*"
        return [
            entry.to_json_dict(self.store.schema)
            for entry in self.store.entries_ranked(segment, top_k=top_k, tau=tau)
        ]

    def __len__(self) -> int:
        return len(self.headlines)
