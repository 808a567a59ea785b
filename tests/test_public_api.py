"""Every name a module lists in ``__all__`` must exist.

A stale ``__all__`` entry breaks ``from haar_besov.<module> import *`` while
every direct import keeps working, so nothing else would notice it.
"""

import importlib
import pkgutil

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
