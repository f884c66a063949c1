"""Every name a module exports must exist: a stale ``__all__`` entry breaks
``from goldenstop.x import *`` and every tool that getattr()s the exports.
The package re-exports its modules' lists by star import, so it must export
exactly their concatenation, and no name may come from two modules."""

import importlib
import pkgutil

import pytest

import goldenstop

MODULES = [goldenstop] + [
    importlib.import_module(f"goldenstop.{m.name}") for m in pkgutil.iter_modules(goldenstop.__path__)
]
REEXPORTED = [
    importlib.import_module(f"goldenstop.{name}")
    for name in ("errors", "diffusion", "bessel", "boundary", "simulate", "cev", "checks")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    names = getattr(module, "__all__", [])
    missing = [n for n in names if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
    assert len(set(names)) == len(names)


def test_package_exports_the_module_lists():
    expected = [n for m in REEXPORTED for n in m.__all__] + ["__version__"]
    assert goldenstop.__all__ == expected
    for m in REEXPORTED:
        for n in m.__all__:
            assert getattr(goldenstop, n) is getattr(m, n), f"{m.__name__}.{n} is shadowed"


def test_no_name_exported_twice():
    owners = {}
    for m in MODULES[1:]:
        for n in getattr(m, "__all__", []):
            owners.setdefault(n, []).append(m.__name__)
    shared = {n: ms for n, ms in owners.items() if len(ms) > 1}
    assert not shared, f"exported by more than one module: {shared}"
