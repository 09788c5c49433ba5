"""Extension registries: algorithms and output sinks.

Two small name→factory tables keep the facade open for extension
without touching :func:`~repro.api.facade.open_engine`:

* **algorithms** — the discovery-algorithm registry (shared with
  :mod:`repro.algorithms`); :func:`register_algorithm` adds a custom
  :class:`~repro.algorithms.base.DiscoveryAlgorithm` subclass so
  ``EngineSpec(algorithm="mine")`` resolves it.
* **sinks** — fact renderers for streaming output (``"describe"``,
  ``"narrate"``, ``"json"``); the CLI's output flags resolve here, and
  :func:`register_sink` plugs in custom formats.

Middleware layers are not registered: ``open_engine`` applies the three
the spec can name (aggregate, window, query cache) itself, and a custom
layer wraps the engine ``open_engine`` returns (see ``docs/api.md``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

#: Sink factories: name -> (TableSchema) -> (SituationalFact) -> str.
SINKS: Dict[str, Callable] = {}


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
def register_sink(name: str, factory: Callable) -> None:
    """Register a fact renderer: ``factory(schema)`` returns a callable
    mapping one :class:`SituationalFact` to an output line."""
    SINKS[name] = factory


def make_sink(name: str, schema):
    """Instantiate the sink registered under ``name`` for ``schema``."""
    try:
        factory = SINKS[name]
    except KeyError:
        raise ValueError(
            f"unknown sink {name!r}; choose from {sorted(SINKS)}"
        ) from None
    return factory(schema)


def _describe_sink(schema):
    return lambda fact: fact.describe(schema)


def _narrate_sink(schema):
    from ..reporting.narrate import narrate

    return lambda fact: narrate(fact, schema)


def _json_sink(schema):
    import json

    return lambda fact: json.dumps(fact.to_json_dict(schema))


register_sink("describe", _describe_sink)
register_sink("narrate", _narrate_sink)
register_sink("json", _json_sink)
