"""Exception hierarchy.

Domain violations (bad inputs, wrong parameter ranges) are ValueError
subclasses; numerical failures (divergence, scheme breakdown, broken
invariants) are RuntimeError subclasses.  The CLI maps the former to exit
code 2 and the latter to exit code 3.  A failed statistical check is not an
exception: the CLI sets exit code 4 from the returned check rows.
"""

from __future__ import annotations

import sys

__all__ = [
    "GoldenstopError",
    "DomainError",
    "UnsupportedModelError",
    "NumericalError",
    "SingularPointError",
    "DivergenceError",
    "NoMinimalSolutionError",
    "ConsistencyError",
    "SchemeError",
]


class GoldenstopError(Exception):
    """Base class for every error raised by this package."""


class DomainError(GoldenstopError, ValueError):
    """Input outside the documented domain (nonpositive state, bad ordering,
    invalid dimension, malformed rule parameters)."""


class UnsupportedModelError(GoldenstopError, ValueError):
    """Operation needs a model feature this model does not provide
    (e.g. a scale inverse for a table-based custom model)."""


class NumericalError(GoldenstopError, RuntimeError):
    """Numerical procedure failed to produce a trustworthy result."""


class SingularPointError(NumericalError):
    """Boundary ODE right-hand side evaluated on the sign-change curve,
    where the expression is 0/0."""


class DivergenceError(NumericalError):
    """A shot of the boundary ODE blew up before reaching the requested
    abscissa."""

    def __init__(self, message: str, blow_up_at: float | None = None):
        super().__init__(message)
        self.blow_up_at = blow_up_at


class NoMinimalSolutionError(NumericalError):
    """A shot of the family diverged; the shots increase toward the minimal
    solution, so none exists on the requested interval."""

    def __init__(self, message: str, blow_up_points: list[float] | None = None):
        super().__init__(message)
        self.blow_up_points = blow_up_points or []


class ConsistencyError(NumericalError):
    """An internal invariant failed (a shot family that is not monotone
    increasing on its common grid)."""


class SchemeError(NumericalError):
    """Discretisation scheme produced an invalid state (nonpositive
    coordinate outside the guarded region)."""


def _caller_stacklevel() -> int:
    """`warnings.warn` stacklevel, called from the warning function's own frame,
    that names the first caller outside the package (also under ``python -m``)."""
    frame, level = sys._getframe(2), 2
    while frame.f_back is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    return level
