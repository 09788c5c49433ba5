"""The algorithm registry, and the CLI's fact renderers.

The discovery-algorithm registry (shared with :mod:`repro.algorithms`)
keeps the facade open for extension without touching
:func:`~repro.api.facade.open_engine`: :func:`register_algorithm` adds a
custom :class:`~repro.algorithms.base.DiscoveryAlgorithm` subclass so
``EngineSpec(algorithm="mine")`` resolves it.  :func:`make_sink` maps
the CLI's output names (``"describe"``, ``"narrate"``, ``"json"``) to a
renderer.

Middleware layers are not registered: ``open_engine`` applies the three
the spec can name (aggregate, window, query cache) itself, and a custom
layer wraps the engine ``open_engine`` returns (see ``docs/api.md``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional


# ----------------------------------------------------------------------
# Algorithms (delegates to the repro.algorithms registry)
# ----------------------------------------------------------------------
def algorithm_registry() -> Dict[str, type]:
    """The live name→class algorithm registry."""
    from ..algorithms import ALGORITHMS

    return ALGORITHMS


def register_algorithm(cls, name: Optional[str] = None) -> None:
    """Register a :class:`DiscoveryAlgorithm` subclass under ``name``
    (defaults to ``cls.name``) so specs and the CLI can resolve it."""
    registry = algorithm_registry()
    key = (name or cls.name).lower()
    if not key or key == "abstract":
        raise ValueError("algorithm needs a non-default name")
    registry[key] = cls


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
def _describe_sink(schema):
    return lambda fact: fact.describe(schema)


def _narrate_sink(schema):
    from ..reporting.narrate import narrate

    return lambda fact: narrate(fact, schema)


def _json_sink(schema):
    import json

    return lambda fact: json.dumps(fact.to_json_dict(schema))


#: Fact renderers for streaming output, by the CLI's output names:
#: name -> (TableSchema) -> (SituationalFact) -> str.
_SINKS: Dict[str, Callable] = {
    "describe": _describe_sink,
    "narrate": _narrate_sink,
    "json": _json_sink,
}


def make_sink(name: str, schema):
    """The fact renderer named ``name`` (``"describe"``, ``"narrate"``
    or ``"json"``) for ``schema``."""
    try:
        factory = _SINKS[name]
    except KeyError:
        raise ValueError(
            f"unknown sink {name!r}; choose from {sorted(_SINKS)}"
        ) from None
    return factory(schema)
