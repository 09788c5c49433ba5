"""Run the docstring examples of the public modules as doctests.

Keeps README-level examples in the code honest: if an API changes, the
inline examples fail here before a user hits them.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro

#: Every module of the package, found by walking it: a module added
#: later has its examples run without a list to edit.
MODULES = [repro] + [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
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


def test_the_walk_finds_the_modules_with_examples():
    """The walk reaches past the top-level packages: the modules the
    old hand list missed, and it, are all run."""
    names = {module.__name__ for module in MODULES}
    assert {
        "repro",
        "repro.algorithms",
        "repro.query.contextual",
        "repro.reporting.feed",
        "repro.core.record",
        "repro.storage.columnar_store",
    } <= names


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
