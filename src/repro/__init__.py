"""repro — Incremental Discovery of Prominent Situational Facts.

A complete reproduction of Sultana, Hassan, Li, Yang & Yu (ICDE 2014):
streaming detection of constraint–measure pairs that make each newly
arrived tuple a *contextual skyline tuple*, ranked by prominence.

Quickstart
----------
>>> from repro import DiscoveryConfig, EngineSpec, TableSchema, open_engine
>>> schema = TableSchema(
...     dimensions=("player", "month", "team", "opp_team"),
...     measures=("points", "assists", "rebounds"),
... )
>>> spec = EngineSpec(schema, algorithm="stopdown",
...                   config=DiscoveryConfig(max_bound_dims=2))
>>> with open_engine(spec) as engine:
...     facts = engine.observe({"player": "Wesley", "month": "Feb",
...                             "team": "Celtics", "opp_team": "Nets",
...                             "points": 12, "assists": 13, "rebounds": 5})

Any composition — sharded, windowed, aggregate — opens through the same
``EngineSpec``/``open_engine`` facade and honours the same ``Engine``
protocol (see ``docs/api.md``); :class:`FactDiscoverer` remains as the
direct in-proc constructor.

See ``examples/`` for realistic scenarios and ``benchmarks/`` for the
paper's full experimental suite.
"""

from .algorithms import ALGORITHMS, DiscoveryAlgorithm, make_algorithm
from .api import (
    CheckpointPolicy,
    Engine,
    EngineSpec,
    GroupSpec,
    ShardingSpec,
    open_engine,
    restore,
)
from .core import (
    MAX,
    MIN,
    ComparisonOutcome,
    Constraint,
    ContextCounter,
    DiscoveryConfig,
    FactDiscoverer,
    FactSet,
    Record,
    SchemaError,
    SituationalFact,
    Table,
    TableSchema,
    compare,
    contextual_skyline,
    dominates,
)
from .metrics import OpCounters

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "DiscoveryAlgorithm",
    "make_algorithm",
    "Engine",
    "EngineSpec",
    "ShardingSpec",
    "CheckpointPolicy",
    "GroupSpec",
    "open_engine",
    "restore",
    "MAX",
    "MIN",
    "ComparisonOutcome",
    "Constraint",
    "ContextCounter",
    "DiscoveryConfig",
    "FactDiscoverer",
    "FactSet",
    "Record",
    "SchemaError",
    "SituationalFact",
    "Table",
    "TableSchema",
    "compare",
    "contextual_skyline",
    "dominates",
    "OpCounters",
    "__version__",
]
