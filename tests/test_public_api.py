"""Every name a module lists in ``__all__`` must exist, and every
module-level function or class must be exported or used.

A stale ``__all__`` entry breaks ``from haar_besov.<module> import *`` while
every direct import keeps working, so nothing else would notice it; a
private helper that nothing calls is dead code that nothing would notice
either.  The same holds for the shared test helpers: every top-level
definition in ``tests/helpers.py`` must be named by some test module.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import haar_besov

MODULES = sorted(m.name for m in pkgutil.iter_modules(haar_besov.__path__))


def test_every_module_is_listed():
    assert {"cli", "dyadic", "experiments", "families", "haar", "norms"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"haar_besov.{name}")
    exported = getattr(mod, "__all__", [])
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"haar_besov.{name}.__all__ lists missing names {missing}"
    namespace = {}
    exec(f"from haar_besov.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def _names_used(tree):
    """Every identifier ``tree`` reads, imports or takes as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


SOURCES = {p.stem: ast.parse(p.read_text()) for p in Path(haar_besov.__file__).parent.glob("*.py")}
USED = {n for tree in SOURCES.values() for n in _names_used(tree)}


@pytest.mark.parametrize("name", MODULES)
def test_every_definition_is_exported_or_used(name):
    exported = set(getattr(importlib.import_module(f"haar_besov.{name}"), "__all__", []))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = [
        node.name
        for node in SOURCES[name].body
        if isinstance(node, defs) and node.name not in exported and node.name not in USED
    ]
    assert not dead, f"haar_besov.{name} defines {dead}, which nothing exports or names"


def test_no_test_is_marked_xfail_or_skipped():
    # a test table never lands with a row marked to fail or to be skipped:
    # the row and the mend of what it found land together
    barred = {"xfail", "skip", "skipif", "importorskip"}
    named = {
        p.name: sorted(barred.intersection(_names_used(ast.parse(p.read_text()))))
        for p in sorted(Path(__file__).parent.glob("test_*.py"))
    }
    assert not {k: v for k, v in named.items() if v}


def test_every_test_helper_is_used():
    tests = Path(__file__).parent
    helpers = ast.parse((tests / "helpers.py").read_text())
    used = {n for p in tests.glob("test_*.py") for n in _names_used(ast.parse(p.read_text()))}
    defined = [
        node.name for node in helpers.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ] + [
        t.id for node in helpers.body if isinstance(node, ast.Assign) for t in node.targets
    ]
    dead = [name for name in defined if name not in used]
    assert not dead, f"tests/helpers.py defines {dead}, which no test names"
