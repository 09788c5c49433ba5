"""Run the docstring examples of the public modules as doctests.

Keeps README-level examples in the code honest: if an API changes, the
inline examples fail here before a user hits them.
"""

import doctest

import pytest

import repro.api.facade
import repro.api.middleware
import repro.api.spec
import repro.core.config
import repro.core.constraint
import repro.core.engine
import repro.core.lattice
import repro.core.record
import repro.core.schema
import repro.index.kdtree
import repro.query.parser
import repro.service.sharding
import repro.storage.columnar_store

MODULES = [
    repro.api.spec,
    repro.api.facade,
    repro.api.middleware,
    repro.core.schema,
    repro.core.record,
    repro.core.constraint,
    repro.core.lattice,
    repro.core.engine,
    repro.index.kdtree,
    repro.query.parser,
    repro.service.sharding,
    repro.storage.columnar_store,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures in {module.__name__}"


def test_at_least_some_examples_exist():
    total = sum(
        doctest.testmod(module, verbose=False).attempted for module in MODULES
    )
    assert total >= 8, "public modules should carry runnable examples"


def test_custom_middleware_example_in_the_docs_runs():
    """``docs/api.md``'s custom-layer example — a wrapper around the
    engine ``open_engine`` returns — runs and its assertions hold."""
    from pathlib import Path

    docs = Path(__file__).resolve().parent.parent / "docs" / "api.md"
    text = docs.read_text(encoding="utf-8")
    section = text[text.index("To add your own layer") :]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "class Counting(EngineMiddleware)" in code
    exec(compile(code, str(docs), "exec"), {"__name__": "docs_example"})
