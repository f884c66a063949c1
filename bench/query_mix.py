"""pytest plugin: count the tier-1 tests' calls to each solver-queries kind.

The solver-queries mix in ``workloads.SCALES["full"]["queries"]`` weights
each query kind by how often the test suite itself calls that entry
point.  This plugin recounts those calls:

    PYTHONPATH=bench:src python3 -m pytest -q -p query_mix tests \\
        -k "not simulate and not cev and not criterion_06 and not criterion_07 \\
            and not criterion_08 and not criterion_09 and not criterion_11"

(the deselected tests are Monte Carlo runs that make none of these calls).
A call counts when test code makes it and it returns: for the CLI kinds a
``CliRunner.invoke`` of that command with exit code 0, shooting
``boundary`` only (``--ray`` draws no shots); for the library kinds a
direct call from a file under ``tests/``.
"""

from __future__ import annotations

import collections
import functools
import math
import os
import sys

import click.testing

import goldenstop
from goldenstop import bessel, boundary, diffusion

TESTS = os.path.abspath("tests") + os.sep
CLI_KINDS = {"lambda": "cli-lambda", "value": "cli-value",
             "distribution": "cli-distribution", "boundary": "cli-boundary"}
LIBRARY_KINDS = {"stopped_cdf_general": "cdf-general", "free_boundary_residuals": "residuals",
                 "hitting_probabilities": "hitting", "expected_exit_integral": "exit-integral"}
TARGET = 1000

counts = collections.Counter({kind: 0 for kind in (*CLI_KINDS.values(), *LIBRARY_KINDS.values())})


def _counted(kind, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if sys._getframe(1).f_code.co_filename.startswith(TESTS):
            counts[kind] += 1
        return out
    return wrapper


for name, kind in LIBRARY_KINDS.items():
    fn = getattr(goldenstop, name)
    wrapped = _counted(kind, fn)
    for ns in (goldenstop, bessel, boundary, diffusion):
        if getattr(ns, name, None) is fn:
            setattr(ns, name, wrapped)

_invoke = click.testing.CliRunner.invoke


def _counted_invoke(self, cli, args=None, **kwargs):
    res = _invoke(self, cli, args, **kwargs)
    command = next((a for a in args or () if a in CLI_KINDS), None)
    if command and res.exit_code == 0 and "--ray" not in args:
        counts[CLI_KINDS[command]] += 1
    return res


click.testing.CliRunner.invoke = _counted_invoke


def pytest_terminal_summary(terminalreporter):
    total = sum(counts.values())
    factor = math.ceil(TARGET / total) if total else 0
    terminalreporter.section(f"solver-queries mix: calls x {factor}")
    for kind, n in counts.items():
        terminalreporter.write_line(f"{kind:18s} {n:4d} -> {n * factor}")
