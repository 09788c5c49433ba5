"""The CLI's fact renderers.

:func:`make_sink` maps the CLI's output names (``"describe"``,
``"narrate"``, ``"json"``) to a renderer.  Algorithms are resolved by
name from :data:`repro.algorithms.ALGORITHMS`.

Middleware layers are not registered: ``open_engine`` applies the three
the spec can name (aggregate, window, query cache) itself, and a custom
layer wraps the engine ``open_engine`` returns (see ``docs/api.md``).
"""

from __future__ import annotations

from typing import Callable, Dict


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
