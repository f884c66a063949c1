"""Optimal stopping boundary: ODE, shooting construction, value, residuals.

The optimal rule for predicting the ultimate minimum stops when the state
X rises to f*(I), I the running minimum.  The boundary f* solves the
first-order ODE

    f'(i) = Phi(i, f) = - sigma^2(f) L'(f) / ( c(i,f) (L(f) - L(i)) ) * J(i, f)

    J(i, f) = int_i^f  dc/di(i, y) (L(y) - L(i)) / (sigma^2(y) L'(y)) dy,
    dc/di(i, y) = 2 L(y) L'(i) / L(i)^2.

With the scale moments M_k(y) = int^y L^k m' (m' the speed density) this is
J = L'(i)/L(i)^2 [dM_2 - L(i) dM_1] over [i, f]: closed form for models that
supply `scale_moments` (Bessel), adaptive quadrature of J for the others.

The boundary is singled out among all solutions as the minimal one lying
above the sign-change curve h.  It is constructed here by shooting: start
the n-th shot exactly on the curve, f_n(i_n) = h(i_n), push i_n toward 0,
and take the increasing limit.  For Bessel models the limit is the exact ray
lam(d) * i, which is what the tests pin the machinery against.

The rhs is 0/0 on the curve f = h(i) (c vanishes there), so each shot
integrates the reciprocal form di/df = -c (L(f) - L(i)) / (sigma^2(f) L'(f) J)
in f instead: it vanishes cleanly at the start and stays regular above h,
where c > 0, L(f) > L(i) and J < 0.  One solve covers the whole shot.

The expected remaining cost of an arbitrary increasing boundary f is

    V_f(i, x) = - int_x^{f(i)} c(i, y) (L(y) - L(x)) m'(y) dy,   i <= x <= f(i),

zero at and beyond the boundary, or -[dM_1 - L(x) dM_0 - (2/L(i)) (dM_2 - L(x)
dM_1)] over [x, f(i)] from the moments, which the residuals use when the model
supplies them.  It solves the interior ODE in x and fits smoothly at f(i) for
every f, so of the three free-boundary conditions that free_boundary_residuals
differences only the vanishing i-derivative on the diagonal tests f itself.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .diffusion import (
    DiffusionModel,
    _check_count,
    _check_real,
    _integrate,
    _read_columns,
    c_value,
    h_curve,
)
from .errors import (
    ConsistencyError,
    DivergenceError,
    DomainError,
    NoMinimalSolutionError,
    NumericalError,
    SingularPointError,
    _caller_stacklevel,
)

__all__ = [
    "Boundary",
    "ShotRecord",
    "line_boundary",
    "boundary_ode_rhs",
    "shoot_from_h",
    "minimal_boundary",
    "value_function_numeric",
    "free_boundary_residuals",
    "boundary_to_csv",
    "boundary_from_csv",
]

# f above this multiple of h(i) counts as a diverged (non-minimal) shot
DIVERGENCE_FACTOR = 1e6
# |c| below this is treated as sitting on the singular curve
SINGULAR_C_TOL = 1e-12
# two successive shots this close in relative sup-norm end the shot limit
SHOT_REL_TOL = 1e-6
# finite-difference steps of the residuals are this multiple of 1 + coordinate
DELTA_SCALE = 1e-3


class ShotRecord(NamedTuple):
    """One shot: start on h, rhs evaluations (``nfev`` of its one solve_ivp),
    relative sup-norm gap to the previous shot (None for the first)."""

    start: float
    nfev: int
    rel_gap: Optional[float]


@dataclass(frozen=True, eq=False)
class Boundary:
    """Increasing stopping boundary f on a grid, monotone-cubic between nodes.

    The cubic is the one statement of the curve: ``inverse`` solves it for
    i, so b(b.inverse(y)) returns y to rounding.

    ``provenance`` records how the boundary was built:
    "closed-form-ratio(...)" for exact rays (then ``ratio`` is set and
    evaluation is lam * i exactly, no interpolation), "shot(...)" for a
    single shot started on the sign-change curve, "minimal-limit(...)" for
    the shot-limit construction, "imported" for CSV round-trips.  ``shots``
    holds one ShotRecord per shot a shooting construction took.

    Nodes must satisfy f >= h (equality only where a shot starts) and f
    strictly increasing.  Evaluation slightly outside the grid extrapolates
    the cubic; callers who care should stay in [i_grid[0], i_grid[-1]].
    """

    i_grid: np.ndarray
    f_grid: np.ndarray
    h_grid: np.ndarray
    provenance: str
    ratio: Optional[float] = None
    shots: tuple = ()

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
        _check_real("boundary abscissae", ig, 0.0)
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

    def __call__(self, i):
        """f(i); exact multiple for ray boundaries, cubic otherwise."""
        if self.ratio is not None:
            return self.ratio * np.asarray(i, dtype=float) if np.ndim(i) else self.ratio * float(i)
        out = self._interp(i)
        return float(out) if np.ndim(out) == 0 else out

    def inverse(self, y):
        """f^{-1}(y) for y in the value range of the grid: exact for rays,
        otherwise the root of the cubic that __call__ evaluates."""
        if self.ratio is not None:
            return np.asarray(y, dtype=float) / self.ratio if np.ndim(y) else float(y) / self.ratio
        y_arr = np.asarray(y, dtype=float)
        lo, hi = self.f_grid[0], self.f_grid[-1]
        if np.any(y_arr < lo * (1 - 1e-12)) or np.any(y_arr > hi * (1 + 1e-12)):
            raise DomainError(
                f"inverse argument {y} outside boundary value range [{lo:g}, {hi:g}]"
            )
        i_lo, i_hi = self.i_grid[0], self.i_grid[-1]

        def root(v):  # the cubic is lo exactly at i_lo, but may round below hi at i_hi
            if self._interp(i_hi) <= v:
                return i_hi
            return brentq(lambda i: self._interp(i) - v, i_lo, i_hi, xtol=np.finfo(float).tiny)

        out = np.vectorize(root, otypes=[float])(np.clip(y_arr, lo, hi))
        return float(out) if out.ndim == 0 else out


def line_boundary(
    model: DiffusionModel, lam: float, i_min: float, i_max: float, n_grid: int = 33
) -> Boundary:
    """Exact ray boundary f(i) = lam i on a geometric grid.

    Evaluation bypasses interpolation, so boundary-rule simulations with a
    ray boundary trigger bit-identically to the corresponding ratio rule.
    The ray must clear the sign-change curve on the whole grid (for Bessel
    models: lam > 2^(1/(d-2))) and stay in the model's domain: lam i_max
    above it raises DomainError.
    """
    _check_real("lam", lam, 1.0)
    ig, hg = _grid(model, i_min, i_max, n_grid, "i_min", least=4)
    if lam * ig[-1] > model.domain[1]:
        raise DomainError(f"the ray {lam:g} i reaches {lam * ig[-1]:g} at i_max={ig[-1]:g}, above the "
                          f"model's domain {model.domain}; lower i_max or widen the domain (x_max)")
    return Boundary(
        i_grid=ig,
        f_grid=lam * ig,
        h_grid=hg,
        provenance=f"closed-form-ratio(lam={lam:.17g})",
        ratio=float(lam),
    )


def _rhs_terms(model: DiffusionModel, i: float, f: float):
    """(c, L(f) - L(i), sigma^2(f) L'(f), J(i, f)): the terms of both ODE forms."""
    L, Lp, sig = model.scale, model.scale_deriv, model.volatility
    li = float(L(i))
    lf = float(L(f))
    lpi = float(Lp(i))
    s = float(sig(f)) ** 2 * float(Lp(f))
    if model.scale_moments is not None:
        _, dm1, dm2 = model.scale_moments(i, f)
        J = lpi / li**2 * (dm2 - li * dm1)
    else:
        def g(y):
            ly = float(L(y))
            return 2.0 * ly * lpi / li**2 * (ly - li) / (float(sig(y)) ** 2 * float(Lp(y)))

        J = _integrate(g, i, f)
    return 1.0 - 2.0 * lf / li, lf - li, s, J


def boundary_ode_rhs(model: DiffusionModel, i: float, f: float) -> float:
    """Right-hand side Phi(i, f) of the boundary ODE f'(i) = Phi(i, f).

    Requires 0 < i < f.  Raises SingularPointError on the sign-change
    curve (c(i, f) = 0, a 0/0 point); just above it the rhs is large and
    positive, decaying toward the ray slope as f grows.
    """
    _check_real("f", f, _check_real("i", i, 0.0))
    c, n, s, J = _rhs_terms(model, i, f)
    if abs(c) < SINGULAR_C_TOL:
        raise SingularPointError(
            f"boundary ODE rhs is 0/0 on the sign-change curve (i={i:g}, f={f:g}); "
            "shots start there via the reciprocal form instead"
        )
    return -s / (c * n) * J


def _shot(model: DiffusionModel, i_start: float, i_max: float, nodes: np.ndarray):
    """(f at ``nodes`` (within [i_start, i_max]), rhs evaluations) along the
    shot started on the sign-change curve at i_start: one solve of di/df,
    inverted at the nodes by Newton on its dense output.  Raises
    DivergenceError (with the blow-up abscissa: the i of the first accepted
    step past the factor) if f exceeds DIVERGENCE_FACTOR * h(i) before i
    reaches i_max.
    """
    i_start, i_max = float(i_start), float(i_max)
    h0 = float(h_curve(model, i_start))

    def inv_rhs(f, y):
        i = y[0]
        # a trial stage left the domain, or inherited nan from one that
        # did; nan rejects the step
        if not i > 0.0:
            return [math.nan]
        c, n, s, J = _rhs_terms(model, i, f)
        return [-c * n / (s * J)]

    def ev_done(f, y):
        return y[0] - i_max

    ev_done.terminal = True
    # f passes DIVERGENCE_FACTOR * h(i) before this end unless i reaches i_max
    f_end = 2.0 * DIVERGENCE_FACTOR * float(h_curve(model, i_max))
    sol = solve_ivp(
        inv_rhs,
        (h0, f_end),
        [i_start],
        events=[ev_done],
        dense_output=True,
        rtol=1e-9,
        atol=1e-13 * i_start,
    )
    # the verdicts read the accepted steps; divergence first, since a
    # diverging shot may run past the model's domain
    i_steps, f_steps = sol.y[0], sol.t
    past = np.flatnonzero(f_steps > DIVERGENCE_FACTOR * h_curve(model, i_steps))
    if past.size:
        at = float(i_steps[past[0]])
        raise DivergenceError(
            f"shot from i={i_start:g} diverged (f > {DIVERGENCE_FACTOR:g} h) at i={at:g}",
            blow_up_at=at,
        )
    # c turns back down through 0.02 toward the sign-change curve
    c = c_value(model, i_steps, f_steps)
    fell = np.flatnonzero((c[:-1] >= 0.02) & (c[1:] <= 0.02))
    if fell.size:
        at = float(i_steps[fell[0] + 1])
        raise NumericalError(f"shot from i={i_start:g} fell back to the singular curve at i={at:g}")
    if not len(sol.t_events[0]):
        raise NumericalError(f"shot from i={i_start:g} did not reach i_max: {sol.message}")

    inner = nodes > i_start
    target = nodes[inner]
    f = np.interp(target, i_steps, f_steps)
    for _ in range(20):
        df = 1e-7 * f
        below, mid, above = np.split(sol.sol(np.concatenate([f - df, f, f + df]))[0], 3)
        step = (mid - target) * (2.0 * df) / (above - below)
        f = f - step
        if np.all(np.abs(step) <= 1e-12 * f):
            break
    else:
        raise NumericalError(f"inverting the shot from i={i_start:g} did not converge")
    out = np.full_like(nodes, h0)
    out[inner] = f
    return out, sol.nfev


def _grid(model: DiffusionModel, i_lo: float, i_max: float, n_grid: int, name: str, least=16):
    """Geometric grid of n_grid >= least nodes over [i_lo, i_max] and h on it."""
    _check_real("i_max", i_max, _check_real(name, i_lo, 0.0))
    grid = np.geomspace(i_lo, i_max, _check_count("n_grid", n_grid, least))
    return grid, np.asarray(h_curve(model, grid), dtype=float)


def shoot_from_h(
    model: DiffusionModel, i_n: float, i_max: float, n_grid: int = 129
) -> Boundary:
    """Integrate one shot of the boundary ODE started on the sign-change curve.

    The shot satisfies f(i_n) = h(i_n) exactly and is returned on a
    geometric grid of n_grid >= 16 nodes over [i_n, i_max].  Raises
    DivergenceError (with the blow-up abscissa) if f exceeds
    DIVERGENCE_FACTOR = 1e6 times h(i) before reaching i_max.
    """
    ig, hg = _grid(model, i_n, i_max, n_grid, "i_n")
    fg, nfev = _shot(model, i_n, i_max, ig)
    return Boundary(ig, fg, hg, f"shot(i_n={i_n:g})", shots=(ShotRecord(i_n, nfev, None),))


def minimal_boundary(
    model: DiffusionModel,
    i_min: float,
    i_max: float,
    n_grid: int = 129,
    n_shots: int = 6,
) -> Boundary:
    """Minimal solution of the boundary ODE over [i_min, i_max] by shot limit.

    Shot k = 1, ..., n_shots starts on the sign-change curve at
    i_min * 10^-k; the shots increase toward the minimal solution.  Each
    shot after the first is compared with its predecessor on the common
    grid: convergence is tested first (relative sup-norm gap below
    SHOT_REL_TOL = 1e-6 ends the limit), then monotonicity (a drop of more
    than 1e-9 raises ConsistencyError).  The first divergent shot rules the
    limit out and raises NoMinimalSolutionError naming the shot's start and
    its blow-up abscissa (also in ``blow_up_points``).  No convergence after
    n_shots warns and returns the deepest shot.
    """
    grid, hg = _grid(model, i_min, i_max, n_grid, "i_min")
    n_shots = _check_count("n_shots", n_shots, 1)
    prev, converged, shots = None, False, []
    for n_used in range(1, n_shots + 1):
        start = i_min * 10.0**-n_used
        try:
            fg, nfev = _shot(model, start, i_max, grid)
        except DivergenceError as exc:
            raise NoMinimalSolutionError(
                f"shot from i={start:g} diverged at i={exc.blow_up_at:g} before reaching "
                f"i_max={i_max:g}; no minimal solution exists on [{i_min:g}, {i_max:g}]",
                blow_up_points=[exc.blow_up_at],
            ) from exc
        gap = None if prev is None else float(np.max(np.abs(fg - prev) / fg))
        shots.append(ShotRecord(start, nfev, gap))
        if gap is not None:
            if gap < SHOT_REL_TOL:
                converged = True
                break
            if np.any(fg < prev * (1.0 - 1e-9)):
                raise ConsistencyError(
                    "shot family is not monotone increasing on the common grid "
                    f"(start i={start:g})"
                )
        prev = fg
    if not converged:
        warnings.warn(
            f"shot limit not converged to {SHOT_REL_TOL:g} after {n_used} shots; "
            "returning the deepest shot",
            stacklevel=_caller_stacklevel(),
        )
    return Boundary(
        i_grid=grid,
        f_grid=fg,
        h_grid=hg,
        provenance=f"minimal-limit(n_shots={n_used}, converged={converged})",
        shots=tuple(shots),
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


def _moment_value(model: DiffusionModel, li: float, f_i: float, x: float) -> float:
    """The value formula from the scale moments over [x, f(i)], given L(i) and f(i)."""
    lx, (dm0, dm1, dm2) = float(model.scale(x)), model.scale_moments(x, f_i)
    return 2.0 / li * (dm2 - lx * dm1) - dm1 + lx * dm0


def value_function_numeric(
    model: DiffusionModel,
    boundary: Boundary,
    i: float,
    x: float,
) -> float:
    """Expected remaining cost V_f(i, x) of stopping at the given boundary.

    Negative in the continuation region i <= x < f(i), exactly 0 for
    x >= f(i).  A quadrature for every model; for the minimal boundary of a
    Bessel model it matches the closed form `bessel_value`.
    """
    _check_real("x", x, _check_real("i", i, 0.0), strict=False)
    return 0.0 if x >= float(boundary(i)) else _value_formula(model, boundary, i, x)


def free_boundary_residuals(
    model: DiffusionModel,
    boundary: Boundary,
    i: float,
    x: float,
):
    """Finite-difference residuals of the three free-boundary conditions.

    Returns (pde, smooth_fit, normal_reflection):

    * pde              mu V_x + sigma^2/2 V_xx + c  at (i, x), interior;
    * smooth_fit       V_x at (i, f(i)), one-sided second order with V(f) = 0:
                       (V(f - 2 delta) - 4 V(f - delta)) / (2 delta);
    * normal_reflection  d/di of the value formula across the diagonal
                         at (i, i), which vanishes for any solution of the
                         boundary ODE.

    The value formula satisfies the first two for every boundary (V_x(i, f)
    = 0, and L_X V = -c since (sigma^2/2) L' m' = 1), so pde and smooth_fit
    measure rounding, quadrature and stencil error only; normal_reflection
    alone tells whether f is the optimal boundary.

    Steps are DELTA_SCALE * (1 + coordinate), DELTA_SCALE = 1e-3: i must exceed
    1e-3/(1 - 1e-3) and f(i) 2e-3/(1 - 2e-3).  Without scale moments V is a
    quadrature, much tighter than the public default as V_xx divides by delta^2.
    """
    _check_real("x", x, _check_real("i", i, 0.0), strict=False)

    def value_at(ii):  # (f(ii), xx -> V_f(ii, xx)); the moments route reads L(ii) and f(ii) once
        f_ii = float(boundary(ii))
        if model.scale_moments is None:
            return f_ii, partial(_value_formula, model, boundary, ii, epsabs=1.5e-13, epsrel=1e-11)
        return f_ii, partial(_moment_value, model, float(model.scale(ii)), f_ii)

    f_i, V = value_at(i)
    if x > f_i:
        raise DomainError(f"need x <= f(i) = {f_i:g}, got x={x}")

    # interior equation in x
    dx = DELTA_SCALE * (1.0 + x)
    if min(x - dx, i - DELTA_SCALE * (1.0 + i), f_i - 2.0 * DELTA_SCALE * (1.0 + f_i)) <= 0.0:
        raise DomainError(
            f"difference steps of {DELTA_SCALE:g} * (1 + coordinate) reach the origin from i={i:g}, x={x:g}, "
            f"f(i)={f_i:g}; the residuals need i > {DELTA_SCALE / (1 - DELTA_SCALE):.4g} and f(i) > "
            f"{2 * DELTA_SCALE / (1 - 2 * DELTA_SCALE):.4g}"
        )
    vm, v0, vp = V(x - dx), V(x), V(x + dx)
    v_x = (vp - vm) / (2.0 * dx)
    v_xx = (vp - 2.0 * v0 + vm) / dx**2
    c = c_value(model, i, x)
    pde = float(model.drift(x)) * v_x + 0.5 * float(model.volatility(x)) ** 2 * v_xx + c

    # smooth fit at the boundary, where the value vanishes
    db = DELTA_SCALE * (1.0 + f_i)
    smooth_fit = (V(f_i - 2.0 * db) - 4.0 * V(f_i - db)) / (2.0 * db)

    # reflection along the diagonal: i-derivative at x = i
    di = DELTA_SCALE * (1.0 + i)
    normal_reflection = (value_at(i + di)[1](i) - value_at(i - di)[1](i)) / (2.0 * di)

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
