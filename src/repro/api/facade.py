"""``open_engine`` — one constructor for every engine composition.

Builds the base engine a spec names (in-proc
:class:`~repro.core.engine.FactDiscoverer` or sharded
:class:`~repro.service.sharding.ShardedDiscoverer`), then applies the
middleware layers the spec activates (aggregation, window, query cache).
The result honours the :class:`~repro.core.engine_protocol.Engine`
protocol whatever the composition, so serving, checkpointing, querying
and reporting code is written once against that contract.
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
    base = engine = _base_engine(spec)
    # Inner to outer: ``aggregate`` and ``window`` are mutually
    # exclusive today; the query cache is outermost so cached reads see
    # the fully composed engine (and its version) below them.
    try:
        if spec.aggregate is not None:
            engine = AggregateMiddleware(
                engine, spec.aggregate, base_schema=spec.schema, spec=spec
            )
        if spec.window is not None:
            engine = WindowMiddleware(engine, spec.window, spec=spec)
        if spec.query_cache is not None:
            engine = QueryCacheMiddleware(engine, spec.query_cache, spec=spec)
    except Exception:
        engine.close()
        raise
    if engine is base:
        # No middleware: the opening spec (checkpoint policy and all) is
        # authoritative over the engine's attribute-derived one.
        engine._spec_override = spec
    return engine


def _base_engine(spec: EngineSpec) -> Engine:
    """The innermost engine: sharded service or single discoverer."""
    if spec.sharding is not None:
        from ..service.sharding import ShardedDiscoverer

        return ShardedDiscoverer(
            _inner_schema(spec),
            spec.config,
            n_workers=spec.sharding.workers,
            mode=spec.sharding.mode,
            score=spec.score,
            chunk_size=spec.sharding.chunk_size,
            op_timeout=spec.sharding.op_timeout,
            max_restarts=spec.sharding.max_restarts,
            remote=spec.sharding.remote,
        )
    from ..core.engine import FactDiscoverer

    return FactDiscoverer(
        _inner_schema(spec),
        algorithm=spec.algorithm,
        config=spec.config,
        score=spec.score,
    )


def _inner_schema(spec: EngineSpec):
    """Schema the base engine discovers over: the aggregate relation
    when aggregation is layered on, the input schema otherwise."""
    if spec.aggregate is not None:
        return spec.aggregate.discovery_schema()
    return spec.schema


def restore(path: str) -> Engine:
    """Reopen an engine from a snapshot file: the full composition is
    restored from the embedded spec."""
    from ..extensions.snapshot import load_engine

    return load_engine(path)
