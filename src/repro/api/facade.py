"""``open_engine`` — one constructor for every engine composition.

Builds the base engine a spec names (in-proc
:class:`~repro.core.engine.FactDiscoverer` or sharded
:class:`~repro.service.sharding.ShardedDiscoverer`), then applies the
middleware layers the spec activates (aggregation, window, query cache).
The result is an :class:`~repro.core.engine_protocol.Engine` whatever
the composition, so serving, checkpointing, querying and reporting code
is written once against that contract.
"""

from __future__ import annotations

from typing import Mapping, Union

from ..core.engine_protocol import Engine
from .middleware import AggregateMiddleware, QueryCacheMiddleware, WindowMiddleware
from .spec import EngineSpec


def open_engine(spec: Union[EngineSpec, Mapping[str, object]]) -> Engine:
    """Open the engine composition described by ``spec``.

    Accepts an :class:`EngineSpec` or its ``to_dict`` / JSON form.  The
    returned engine is a context manager; ``close()`` releases any
    worker processes.

    >>> from repro import TableSchema
    >>> from repro.api import EngineSpec, open_engine
    >>> spec = EngineSpec(TableSchema(("d",), ("m",)))
    >>> with open_engine(spec) as engine:
    ...     len(engine.observe({"d": "x", "m": 1})) > 0
    True
    """
    if not isinstance(spec, EngineSpec):
        spec = EngineSpec.from_dict(spec)
    engine = _base_engine(spec)
    # Inner to outer: ``aggregate`` and ``window`` are mutually
    # exclusive today; the query cache is outermost so cached reads see
    # the fully composed engine (and its version) below them.  The spec
    # is validated, so no layer can fail and strand the base engine.
    if spec.aggregate is not None:
        engine = AggregateMiddleware(engine, spec)
    if spec.window is not None:
        engine = WindowMiddleware(engine, spec)
    if spec.query_cache is not None:
        engine = QueryCacheMiddleware(engine, spec)
    # The opening spec (checkpoint policy and all) is the engine's.
    engine.spec = spec
    return engine


def _base_engine(spec: EngineSpec) -> Engine:
    """The innermost engine: sharded service or single discoverer."""
    if spec.sharding is not None:
        from ..service.sharding import ShardedDiscoverer

        return ShardedDiscoverer(spec)
    from ..core.engine import FactDiscoverer

    return FactDiscoverer(
        spec.discovery_schema,
        algorithm=spec.algorithm,
        config=spec.config,
        score=spec.score,
    )
