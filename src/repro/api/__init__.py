"""repro.api — the declarative engine facade.

One stable contract over every discovery composition::

    from repro import TableSchema
    from repro.api import EngineSpec, ShardingSpec, open_engine

    spec = EngineSpec(
        schema=TableSchema(("player", "team"), ("points", "assists")),
        algorithm="svec",
        sharding=ShardingSpec(workers=4, mode="process"),
    )
    with open_engine(spec) as engine:
        engine.observe_many(rows)
        skyline = engine.query().skyline_text("team=Celtics | points")
        engine.snapshot("checkpoint.json")

Every engine — in-proc, sharded, windowed, aggregate, or restored from a
snapshot — honours the same :class:`Engine` protocol (see
:mod:`repro.core.engine_protocol` and ``docs/api.md``).
"""

from ..core.engine_protocol import Engine, EngineBase
from .facade import open_engine, restore
from .middleware import (
    AggregateMiddleware,
    EngineMiddleware,
    QueryCacheMiddleware,
    WindowMiddleware,
)
from .registry import algorithm_registry, make_sink, register_algorithm
from .spec import (
    AGGREGATES,
    CheckpointPolicy,
    EngineSpec,
    FeedSpec,
    GroupSpec,
    ShardingSpec,
)

__all__ = [
    "Engine",
    "EngineBase",
    "EngineSpec",
    "FeedSpec",
    "ShardingSpec",
    "CheckpointPolicy",
    "GroupSpec",
    "AGGREGATES",
    "open_engine",
    "restore",
    "EngineMiddleware",
    "WindowMiddleware",
    "AggregateMiddleware",
    "QueryCacheMiddleware",
    "algorithm_registry",
    "register_algorithm",
    "make_sink",
]
