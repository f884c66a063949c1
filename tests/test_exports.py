"""Every name a module exports must exist: a stale ``__all__`` entry breaks
``from goldenstop.x import *`` and every tool that getattr()s the exports."""

import importlib
import pkgutil

import pytest

import goldenstop

MODULES = [goldenstop] + [
    importlib.import_module(f"goldenstop.{m.name}") for m in pkgutil.iter_modules(goldenstop.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    names = getattr(module, "__all__", [])
    missing = [n for n in names if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
    assert len(set(names)) == len(names)
