"""Every name a module exports must exist: a stale ``__all__`` entry breaks
``from goldenstop.x import *`` and every tool that getattr()s the exports.
The package re-exports its modules' lists by star import, so it must export
exactly their concatenation, and no name may come from two modules.
The source checks below read the benchmark and the package with ``ast``."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
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


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _package_reads(tree):
    """(alias, module, attribute, line) for every attribute read off a name
    bound to the package or one of its modules, and every ``from goldenstop.x
    import name`` (as alias None)."""
    aliases, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "goldenstop":
                    # plain `import goldenstop.x` binds the package itself
                    aliases[a.asname or "goldenstop"] = importlib.import_module(
                        a.name if a.asname else "goldenstop")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "goldenstop":
            parent = importlib.import_module(node.module)
            for a in node.names:
                if inspect.ismodule(getattr(parent, a.name, None)):
                    aliases[a.asname or a.name] = getattr(parent, a.name)
                else:
                    reads.append((None, parent, a.name, node.lineno))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                reads.append((node.value.id, aliases[node.value.id], node.attr, node.lineno))
    return reads


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_benchmark_names_resolve(path):
    # the benchmark reads the package by name; retiring a name it reads
    # breaks it, and only this catches that before the benchmark runs
    reads = _package_reads(ast.parse(path.read_text(), str(path)))
    missing = [f"{path.name}:{line} {alias or m.__name__}.{attr}"
               for alias, m, attr, line in reads if not hasattr(m, attr)]
    assert not missing, f"benchmark reads names the package no longer has: {missing}"


SRC = Path(goldenstop.__file__).resolve().parent


def _is_caller_stacklevel(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_caller_stacklevel")


def _unnamed_warnings(tree, filename):
    """file:line of every ``warnings.warn`` whose stacklevel is not
    ``_caller_stacklevel()``, directly or through a local bound to it in the
    same function."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        bound = {t.id for n in ast.walk(fn) if isinstance(n, ast.Assign) and _is_caller_stacklevel(n.value)
                 for t in n.targets if isinstance(t, ast.Name)}
        for n in ast.walk(fn):
            if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "warn" and isinstance(n.func.value, ast.Name)
                    and n.func.value.id == "warnings"):
                continue
            level = next((k.value for k in n.keywords if k.arg == "stacklevel"), None)
            if not (_is_caller_stacklevel(level) or (isinstance(level, ast.Name) and level.id in bound)):
                found.append(f"{filename}:{n.lineno}")
    return sorted(set(found))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_warnings_name_the_caller(path):
    # every warning names the first line outside the package, which only
    # _caller_stacklevel() finds; a fixed stacklevel names a package line
    # as soon as the call passes through one more module
    bad = _unnamed_warnings(ast.parse(path.read_text(), str(path)), path.name)
    assert not bad, f"warnings.warn without stacklevel=_caller_stacklevel(): {bad}"


# the per-path stream contract has one implementation: only these definitions
# open the streams, draw from them or floor their uniforms
STREAM_OWNERS = {"make_path_stream", "PathStream", "_lane_blocks"}
GENERATOR_METHODS = {n for n in dir(np.random.Generator) if not n.startswith("_")}


def _stream_reads(tree, filename):
    """file:line of every generator method call, read of ``.streams``,
    ``.uniform`` or ``.gamma`` (off anything but an imported name) and read
    of ``_U_FLOOR`` outside the definitions named in STREAM_OWNERS."""
    imported = {a.asname or a.name.split(".")[0] for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    found, todo = [], [tree]
    while todo:
        for n in ast.iter_child_nodes(todo.pop()):
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name in STREAM_OWNERS:
                continue
            todo.append(n)
            if isinstance(n, ast.Attribute) and not (isinstance(n.value, ast.Name)
                                                     and n.value.id in imported):
                bad = (n.attr in ("streams", "uniform", "gamma")
                       or id(n) in called and n.attr in GENERATOR_METHODS)
            else:
                bad = isinstance(n, ast.Name) and n.id == "_U_FLOOR" and isinstance(n.ctx, ast.Load)
            if bad:
                found.append(f"{filename}:{n.lineno}")
    return sorted(set(found))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_reader_of_the_path_streams(path):
    # a second reader states the streams' draw order a second time, and a
    # change to one of the two then breaks replay on the paths it serves
    bad = _stream_reads(ast.parse(path.read_text(), str(path)), path.name)
    assert not bad, f"per-path streams read outside {sorted(STREAM_OWNERS)}: {bad}"
