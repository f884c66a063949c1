"""Optimal stopping boundary: ODE, shooting construction, value, residuals.

The optimal rule for predicting the ultimate minimum stops when the state
X rises to f*(I), I the running minimum.  The boundary f* solves the
first-order ODE

    f'(i) = Phi(i, f) = - sigma^2(f) L'(f) / ( c(i,f) (L(f) - L(i)) ) * J(i, f)

    J(i, f) = int_i^f  dc/di(i, y) (L(y) - L(i)) / (sigma^2(y) L'(y)) dy,
    dc/di(i, y) = 2 L(y) L'(i) / L(i)^2,

and is singled out among all solutions as the minimal one lying above the
sign-change curve h.  It is constructed here by shooting: start the n-th
shot exactly on the curve, f_n(i_n) = h(i_n), push i_n toward 0, and take
the increasing limit.  For Bessel models the limit is the exact ray
lam(d) * i, which is what the tests pin the machinery against.

The rhs is 0/0 on the curve f = h(i) (c vanishes there), so each shot
first integrates the reciprocal form di/df (which vanishes cleanly at the
start) until c reaches C_HANDOFF, then switches to the direct form.

The expected remaining cost of an arbitrary increasing boundary f is

    V_f(i, x) = - int_x^{f(i)} c(i, y) (L(y) - L(x)) m'(y) dy,   i <= x <= f(i),

zero at and beyond the boundary.  free_boundary_residuals checks the three
defining conditions (interior ODE in x, smooth fit at f(i), vanishing
i-derivative on the diagonal) by central differences on that quadrature.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .diffusion import DiffusionModel, _integrate, _read_columns, h_curve
from .errors import (
    ConsistencyError,
    DivergenceError,
    DomainError,
    NoMinimalSolutionError,
    NumericalError,
    SingularPointError,
)

__all__ = [
    "Boundary",
    "line_boundary",
    "boundary_ode_rhs",
    "shoot_from_h",
    "minimal_boundary",
    "value_function_numeric",
    "free_boundary_residuals",
    "boundary_to_csv",
    "boundary_from_csv",
]

# c-level at which a shot switches from the reciprocal to the direct ODE form
C_HANDOFF = 0.05
# f above this multiple of h(i) counts as a diverged (non-minimal) shot
DIVERGENCE_FACTOR = 1e6
# |c| below this is treated as sitting on the singular curve
SINGULAR_C_TOL = 1e-12
# two successive shots this close in relative sup-norm end the shot limit
SHOT_REL_TOL = 1e-6
# finite-difference steps of the residuals are this multiple of 1 + coordinate
DELTA_SCALE = 1e-3


@dataclass(frozen=True, eq=False)
class Boundary:
    """Increasing stopping boundary f on a grid, monotone-cubic between nodes.

    ``provenance`` records how the boundary was built:
    "closed-form-ratio(...)" for exact rays (then ``ratio`` is set and
    evaluation is lam * i exactly, no interpolation), "shot(...)" for a
    single shot started on the sign-change curve, "minimal-limit(...)" for
    the shot-limit construction, "imported" for CSV round-trips.

    Nodes must satisfy f >= h (equality only where a shot starts) and f
    strictly increasing.  Evaluation slightly outside the grid extrapolates
    the cubic; callers who care should stay inside ``domain``.
    """

    i_grid: np.ndarray
    f_grid: np.ndarray
    h_grid: np.ndarray
    provenance: str
    ratio: Optional[float] = None

    def __post_init__(self):
        ig = np.asarray(self.i_grid, dtype=float)
        fg = np.asarray(self.f_grid, dtype=float)
        hg = np.asarray(self.h_grid, dtype=float)
        object.__setattr__(self, "i_grid", ig)
        object.__setattr__(self, "f_grid", fg)
        object.__setattr__(self, "h_grid", hg)
        if ig.ndim != 1 or ig.shape != fg.shape or ig.shape != hg.shape:
            raise DomainError("boundary grids must be 1-d arrays of equal length")
        if ig.size < 4:
            raise DomainError(f"boundary grid needs at least 4 nodes, got {ig.size}")
        if np.any(ig <= 0.0) or np.any(~np.isfinite(ig)):
            raise DomainError("boundary abscissae must be positive and finite")
        if np.any(np.diff(ig) <= 0.0):
            raise DomainError("boundary abscissae must be strictly increasing")
        if np.any(np.diff(fg) <= 0.0):
            raise DomainError("boundary values must be strictly increasing")
        if np.any(fg < hg * (1.0 - 1e-12)):
            k = int(np.argmax(fg < hg * (1.0 - 1e-12)))
            raise DomainError(
                f"boundary dips below the sign-change curve at i={ig[k]:g} "
                f"(f={fg[k]:g} < h={hg[k]:g})"
            )

    @cached_property
    def _interp(self):
        return PchipInterpolator(self.i_grid, self.f_grid, extrapolate=True)

    @cached_property
    def _inverse_interp(self):
        return PchipInterpolator(self.f_grid, self.i_grid, extrapolate=True)

    @property
    def domain(self):
        return float(self.i_grid[0]), float(self.i_grid[-1])

    def __call__(self, i):
        """f(i); exact multiple for ray boundaries, cubic otherwise."""
        if self.ratio is not None:
            return self.ratio * np.asarray(i, dtype=float) if np.ndim(i) else self.ratio * float(i)
        out = self._interp(i)
        return float(out) if np.ndim(out) == 0 else out

    def inverse(self, y):
        """f^{-1}(y) for y in the value range of the grid."""
        if self.ratio is not None:
            return np.asarray(y, dtype=float) / self.ratio if np.ndim(y) else float(y) / self.ratio
        y_arr = np.asarray(y, dtype=float)
        lo, hi = self.f_grid[0], self.f_grid[-1]
        if np.any(y_arr < lo * (1 - 1e-12)) or np.any(y_arr > hi * (1 + 1e-12)):
            raise DomainError(
                f"inverse argument {y} outside boundary value range [{lo:g}, {hi:g}]"
            )
        out = self._inverse_interp(y_arr)
        return float(out) if np.ndim(out) == 0 else out


def line_boundary(
    model: DiffusionModel, lam: float, i_min: float, i_max: float, n_grid: int = 33
) -> Boundary:
    """Exact ray boundary f(i) = lam i on a geometric grid.

    Evaluation bypasses interpolation, so boundary-rule simulations with a
    ray boundary trigger bit-identically to the corresponding ratio rule.
    The ray must clear the sign-change curve on the whole grid (for Bessel
    models: lam > 2^(1/(d-2))).
    """
    if not (lam > 1.0) or not math.isfinite(lam):
        raise DomainError(f"need lam > 1, got {lam}")
    if not (0.0 < i_min < i_max):
        raise DomainError(f"need 0 < i_min < i_max, got {i_min}, {i_max}")
    ig = np.geomspace(i_min, i_max, n_grid)
    hg = np.asarray(h_curve(model, ig), dtype=float)
    return Boundary(
        i_grid=ig,
        f_grid=lam * ig,
        h_grid=hg,
        provenance=f"closed-form-ratio(lam={lam:.17g})",
        ratio=float(lam),
    )


def _inner_integral(model: DiffusionModel, i: float, f: float, li: float, lpi: float) -> float:
    """J(i, f): quadrature of dc/di(i, y) (L(y) - L(i)) / (sigma^2 L')."""
    L, Lp, sig = model.scale, model.scale_deriv, model.volatility

    def g(y):
        ly = float(L(y))
        return 2.0 * ly * lpi / li**2 * (ly - li) / (float(sig(y)) ** 2 * float(Lp(y)))

    return _integrate(g, i, f)


def boundary_ode_rhs(model: DiffusionModel, i: float, f: float) -> float:
    """Right-hand side Phi(i, f) of the boundary ODE f'(i) = Phi(i, f).

    Requires 0 < i < f.  Raises SingularPointError on the sign-change
    curve (c(i, f) = 0, a 0/0 point); just above it the rhs is large and
    positive, decaying toward the ray slope as f grows.
    """
    if not (0.0 < i < f) or not (math.isfinite(i) and math.isfinite(f)):
        raise DomainError(f"need 0 < i < f, got i={i}, f={f}")
    li = float(model.scale(i))
    lf = float(model.scale(f))
    c = 1.0 - 2.0 * lf / li
    if abs(c) < SINGULAR_C_TOL:
        raise SingularPointError(
            f"boundary ODE rhs is 0/0 on the sign-change curve (i={i:g}, f={f:g}); "
            "shots start there via the reciprocal form instead"
        )
    lpi = float(model.scale_deriv(i))
    J = _inner_integral(model, i, f, li, lpi)
    sig_f = float(model.volatility(f))
    lpf = float(model.scale_deriv(f))
    return -sig_f**2 * lpf / (c * (lf - li)) * J


class _Shot:
    """One shot started on the sign-change curve, dense-evaluable."""

    def __init__(self, model: DiffusionModel, i_start: float, i_max: float):
        self.i_start = float(i_start)
        self.i_max = float(i_max)
        self.h_start = float(h_curve(model, i_start))
        L, Lp, sig = model.scale, model.scale_deriv, model.volatility

        def inv_rhs(f, y):
            i = y[0]
            # a trial stage left the domain, or inherited nan from one that
            # did; nan rejects the step
            if not i > 0.0:
                return [math.nan]
            li = float(L(i))
            lf = float(L(f))
            c = 1.0 - 2.0 * lf / li
            J = _inner_integral(model, i, f, li, float(Lp(i)))
            return [-c * (lf - li) / (float(sig(f)) ** 2 * float(Lp(f)) * J)]

        def ev_handoff(f, y):
            return (1.0 - 2.0 * float(L(f)) / float(L(y[0]))) - C_HANDOFF

        ev_handoff.terminal = True
        ev_handoff.direction = 1.0

        def ev_overrun(f, y):
            return y[0] - self.i_max

        ev_overrun.terminal = True

        h0 = self.h_start
        sol1 = solve_ivp(
            inv_rhs,
            (h0, 100.0 * h0),
            [self.i_start],
            events=[ev_handoff, ev_overrun],
            dense_output=True,
            rtol=1e-9,
            atol=1e-13 * self.i_start,
            method="RK45",
        )
        if sol1.status == -1:
            raise NumericalError(f"shot start integration failed: {sol1.message}")
        if sol1.status != 1:
            raise NumericalError(
                "shot never left the singular neighbourhood "
                f"(c < {C_HANDOFF} up to f = {100.0 * h0:g})"
            )
        self._sol1 = sol1
        if len(sol1.t_events[1]):
            # handoff region covers the whole requested abscissa range
            self.i_handoff = self.i_max
            self.f_handoff = float(sol1.t_events[1][0])
            self._sol2 = None
            return
        self.f_handoff = float(sol1.t_events[0][0])
        self.i_handoff = float(sol1.y_events[0][0][0])

        def dir_rhs(i, y):
            return [boundary_ode_rhs(model, i, y[0])]

        def ev_diverge(i, y):
            return y[0] - DIVERGENCE_FACTOR * float(h_curve(model, i))

        ev_diverge.terminal = True
        ev_diverge.direction = 1.0

        def ev_singular(i, y):
            return (1.0 - 2.0 * float(L(y[0])) / float(L(i))) - 0.4 * C_HANDOFF

        ev_singular.terminal = True
        ev_singular.direction = -1.0

        sol2 = solve_ivp(
            dir_rhs,
            (self.i_handoff, self.i_max),
            [self.f_handoff],
            events=[ev_diverge, ev_singular],
            dense_output=True,
            rtol=1e-9,
            atol=1e-13 * self.h_start,
            method="RK45",
        )
        if sol2.status == -1:
            raise NumericalError(f"shot integration failed: {sol2.message}")
        if len(sol2.t_events[0]):
            at = float(sol2.t_events[0][0])
            raise DivergenceError(
                f"shot from i={self.i_start:g} diverged (f > {DIVERGENCE_FACTOR:g} h) "
                f"at i={at:g}",
                blow_up_at=at,
            )
        if len(sol2.t_events[1]):
            at = float(sol2.t_events[1][0])
            raise NumericalError(
                f"shot from i={self.i_start:g} fell back to the singular curve at i={at:g}"
            )
        self._sol2 = sol2

    def eval(self, nodes: np.ndarray) -> np.ndarray:
        """f along the shot at the given abscissae (must lie in [i_start, i_max])."""
        nodes = np.asarray(nodes, dtype=float)
        if np.any(nodes < self.i_start * (1 - 1e-12)) or np.any(nodes > self.i_max * (1 + 1e-12)):
            raise DomainError("shot evaluated outside its abscissa range")
        out = np.empty_like(nodes)
        for k, i in enumerate(nodes):
            if i <= self.i_start:
                out[k] = self.h_start
            elif i < self.i_handoff:
                # invert the monotone i(f) of the start phase
                sol = self._sol1

                def g(f):
                    return float(sol.sol(f)[0]) - i

                out[k] = brentq(g, self.h_start, self.f_handoff, xtol=1e-15 * self.f_handoff)
            elif self._sol2 is None:
                out[k] = self.f_handoff
            else:
                out[k] = float(self._sol2.sol(min(i, self._sol2.t[-1]))[0])
        return out


def shoot_from_h(
    model: DiffusionModel, i_n: float, i_max: float, n_grid: int = 129
) -> Boundary:
    """Integrate one shot of the boundary ODE started on the sign-change curve.

    The shot satisfies f(i_n) = h(i_n) exactly and is returned on a
    geometric grid over [i_n, i_max].  Raises DivergenceError (with the
    blow-up abscissa) if f exceeds 1e6 h(i) before reaching i_max.
    """
    if not (0.0 < i_n < i_max):
        raise DomainError(f"need 0 < i_n < i_max, got i_n={i_n}, i_max={i_max}")
    if n_grid < 16:
        raise DomainError(f"need n_grid >= 16, got {n_grid}")
    shot = _Shot(model, i_n, i_max)
    ig = np.geomspace(i_n, i_max, n_grid)
    fg = shot.eval(ig)
    hg = np.asarray(h_curve(model, ig), dtype=float)
    return Boundary(
        i_grid=ig,
        f_grid=fg,
        h_grid=hg,
        provenance=f"shot(i_n={i_n:g})",
    )


def minimal_boundary(
    model: DiffusionModel,
    i_min: float,
    i_max: float,
    n_grid: int = 129,
    n_shots: int = 6,
) -> Boundary:
    """Minimal solution of the boundary ODE over [i_min, i_max] by shot limit.

    Up to ``n_shots`` shots start on the sign-change curve at abscissae
    i_min * 10^-1, 10^-2, ... pushed toward 0 and increase monotonically
    toward the minimal solution; iteration stops once two successive shots
    agree to SHOT_REL_TOL = 1e-6 in relative sup-norm on the common grid.
    All shots diverging raises NoMinimalSolutionError with the blow-up
    abscissae.
    """
    if not (0.0 < i_min < i_max):
        raise DomainError(f"need 0 < i_min < i_max, got {i_min}, {i_max}")
    if n_grid < 16:
        raise DomainError(f"need n_grid >= 16, got {n_grid}")
    if n_shots < 1:
        raise DomainError(f"need n_shots >= 1, got {n_shots}")
    starts = [i_min * 10.0**-k for k in range(1, n_shots + 1)]

    grid = np.geomspace(i_min, i_max, n_grid)
    hg = np.asarray(h_curve(model, grid), dtype=float)

    prev = None
    blow_ups = []
    n_diverged = 0
    n_used = 0
    converged = False
    fg = None
    for start in starts:
        try:
            shot = _Shot(model, start, i_max)
        except DivergenceError as exc:
            # the shot family increases toward the limit, so one divergent
            # shot already rules the limit out; keep going only to report
            # the remaining blow-up points
            n_diverged += 1
            if exc.blow_up_at is not None:
                blow_ups.append(exc.blow_up_at)
            continue
        vals = shot.eval(grid)
        n_used += 1
        if prev is not None:
            if np.any(vals < prev * (1.0 - 1e-9)):
                raise ConsistencyError(
                    "shot family is not monotone increasing on the common grid "
                    f"(start i={start:g})"
                )
            gap = float(np.max(np.abs(vals - prev) / vals))
            if gap < SHOT_REL_TOL:
                fg = vals
                converged = True
                break
        prev = vals
        fg = vals
    if n_diverged:
        word = "every" if n_used == 0 else f"{n_diverged} of {n_diverged + n_used}"
        raise NoMinimalSolutionError(
            f"{word} shot(s) diverged before reaching i_max; no minimal solution "
            f"exists on [{i_min:g}, {i_max:g}]",
            blow_up_points=blow_ups,
        )
    if not converged:
        warnings.warn(
            f"shot limit not converged to {SHOT_REL_TOL:g} after {n_used} shots; "
            "returning the deepest shot",
            stacklevel=2,
        )
    return Boundary(
        i_grid=grid,
        f_grid=fg,
        h_grid=hg,
        provenance=f"minimal-limit(n_shots={n_used}, converged={converged})",
    )


# ---------------------------------------------------------------------------
# value function and residuals


def _value_formula(
    model: DiffusionModel,
    boundary: Boundary,
    i: float,
    x: float,
    **tolerances,
) -> float:
    """Quadrature value formula without domain clamping.

    Smooth in (i, x) across both the diagonal x = i and the boundary
    x = f(i); the public evaluator applies the domain semantics.
    ``tolerances`` (epsabs, epsrel) override the quadrature defaults.
    """
    L, sp = model.scale, model.speed_density
    li = float(L(i))
    lx = float(L(x))
    f_i = float(boundary(i))

    def g(y):
        ly = float(L(y))
        return (1.0 - 2.0 * ly / li) * (ly - lx) * float(sp(y))

    return -_integrate(g, x, f_i, **tolerances)


def value_function_numeric(
    model: DiffusionModel,
    boundary: Boundary,
    i: float,
    x: float,
) -> float:
    """Expected remaining cost V_f(i, x) of stopping at the given boundary.

    Negative in the continuation region i <= x < f(i), exactly 0 for
    x >= f(i).  For the minimal boundary of a Bessel model this matches
    the closed form `bessel_value`.
    """
    if not (0.0 < i <= x) or not math.isfinite(x):
        raise DomainError(f"need 0 < i <= x, got i={i}, x={x}")
    if x >= float(boundary(i)):
        return 0.0
    return _value_formula(model, boundary, i, x)


def free_boundary_residuals(
    model: DiffusionModel,
    boundary: Boundary,
    i: float,
    x: float,
):
    """Central-difference residuals of the three free-boundary conditions.

    Returns (pde, smooth_fit, normal_reflection):

    * pde              mu V_x + sigma^2/2 V_xx + c  at (i, x), interior;
    * smooth_fit       V_x across the boundary point (i, f(i));
    * normal_reflection  d/di of the value formula across the diagonal
                         at (i, i), which vanishes for any solution of the
                         boundary ODE.

    Steps are DELTA_SCALE * (1 + coordinate) with DELTA_SCALE = 1e-3, so
    i must exceed 1e-3/(1 - 1e-3).  The quadratures run much tighter than
    the public default because the second difference divides by delta^2.
    """
    if not (0.0 < i <= x):
        raise DomainError(f"need 0 < i <= x, got i={i}, x={x}")
    f_i = float(boundary(i))
    if x > f_i:
        raise DomainError(f"need x <= f(i) = {f_i:g}, got x={x}")

    def V(ii, xx):
        return _value_formula(model, boundary, ii, xx, epsabs=1.5e-13, epsrel=1e-11)

    # interior equation in x
    dx = DELTA_SCALE * (1.0 + x)
    if x - dx <= 0.0 or i - DELTA_SCALE * (1.0 + i) <= 0.0:
        raise DomainError(
            f"difference steps of {DELTA_SCALE:g} * (1 + coordinate) reach the origin "
            f"from i={i:g}, x={x:g}; the residuals need i > {DELTA_SCALE / (1 - DELTA_SCALE):.4g}"
        )
    vm, v0, vp = V(i, x - dx), V(i, x), V(i, x + dx)
    v_x = (vp - vm) / (2.0 * dx)
    v_xx = (vp - 2.0 * v0 + vm) / dx**2
    c = 1.0 - 2.0 * float(model.scale(x)) / float(model.scale(i))
    pde = float(model.drift(x)) * v_x + 0.5 * float(model.volatility(x)) ** 2 * v_xx + c

    # smooth fit at the boundary: true value vanishes beyond f(i)
    db = DELTA_SCALE * (1.0 + f_i)
    smooth_fit = (0.0 - V(i, f_i - db)) / (2.0 * db)

    # reflection along the diagonal: i-derivative at x = i
    di = DELTA_SCALE * (1.0 + i)
    normal_reflection = (V(i + di, i) - V(i - di, i)) / (2.0 * di)

    return float(pde), float(smooth_fit), float(normal_reflection)


# ---------------------------------------------------------------------------
# CSV round-trip


def boundary_to_csv(boundary: Boundary, path) -> None:
    """Write the grid as CSV with header i,f,h (17 significant digits)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "f", "h"])
        for i, f, h in zip(boundary.i_grid, boundary.f_grid, boundary.h_grid):
            w.writerow([f"{i:.17g}", f"{f:.17g}", f"{h:.17g}"])


def boundary_from_csv(path, model: Optional[DiffusionModel] = None) -> Boundary:
    """Read a boundary written by boundary_to_csv.

    The h column is optional when a model is supplied (h is recomputed);
    provenance becomes "imported" since the file format does not carry it.
    """
    ig, fg, *h_column = _read_columns(path, "boundary file", ("i", "f"), optional="h")
    if h_column:
        hg = h_column[0]
    elif model is not None:
        hg = h_curve(model, np.asarray(ig))
    else:
        raise DomainError(f"{path}: no h column and no model to recompute it")
    return Boundary(
        i_grid=np.asarray(ig),
        f_grid=np.asarray(fg),
        h_grid=np.asarray(hg),
        provenance="imported",
    )
