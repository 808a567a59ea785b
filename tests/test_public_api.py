"""Every name a module lists in ``__all__`` must exist, and every
module-level function or class must be exported or used.

A stale ``__all__`` entry breaks ``from haar_besov.<module> import *`` while
every direct import keeps working, so nothing else would notice it; a
private helper that nothing calls is dead code that nothing would notice
either.
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
