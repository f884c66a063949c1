"""Closed forms for the Bessel family: optimal ratio, value, stopped law.

For a Bessel process of dimension d > 2 the optimal stopping boundary of
the ultimate-minimum prediction problem is the exact ray f(i) = lam i,
where lam = lam(d) is the unique root above 2^(1/(d-2)) of the
characteristic polynomial

    F(lam) = lam^d - (1+d) lam^2 + 4 (lam^(4-d) - 1)/(4-d) + d

(its limit 4 ln lam at d = 4; evaluated through expm1, which does not
cancel near d = 4).  F(1) = 0 always, and F' factors as

    F'(lam) = d lam^(3-d) (lam^(d-2) - 2/d) (lam^(d-2) - 2),

so F has exactly one root above the sign-change ratio 2^(1/(d-2)).  At
d = 3 the root is (3+sqrt5)/2 = 1 + phi = phi^2 with phi the golden ratio:
stop when the process has risen to phi^2 times its running minimum.

The value function and the law of the stopped minimum-ratio are explicit
for the ray boundary and provided here; the generic machinery in
`boundary` reproduces them to quadrature accuracy, which is the package's
main cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionModel, _check_dim, _check_in_domain, _check_real, _check_scalar, _expm1_over, _integrate
from .errors import DomainError, NumericalError

__all__ = [
    "bessel_characteristic",
    "bessel_lambda",
    "bessel_lambda_bisect",
    "bessel_value",
    "StoppedDistribution",
    "make_stopped_distribution",
    "stopped_cdf",
    "stopped_mean",
    "stopped_quantile",
    "stopped_cdf_general",
    "GOLDEN_RATIO",
]

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


# F and dF/dlam for a checked d and lam > 0: the root finders' inner loop
def _F(d: float, lam):
    lam = np.asarray(lam, dtype=float)
    out = lam**d - (1.0 + d) * lam**2 + 4.0 * _expm1_over(4.0 - d, np.log(lam)) + d
    return float(out) if out.ndim == 0 else out


def _dF(d: float, lam):
    # the docstring's product form: zero only at (2/d)^(1/(d-2)) and 2^(1/(d-2)),
    # positive beyond the latter, which keeps bessel_lambda's bracketed Newton safe
    lam = np.asarray(lam, dtype=float)
    out = d * lam ** (3.0 - d) * (lam ** (d - 2.0) - 2.0 / d) * (lam ** (d - 2.0) - 2.0)
    return float(out) if out.ndim == 0 else out


def bessel_characteristic(d: float, lam) -> float:
    """Characteristic function F(lam) whose positive root fixes the optimal ratio.

    Defined for lam > 0; F(1) = 0 for every d, and the optimal ratio is the
    unique zero above 2^(1/(d-2)).
    """
    d = _check_dim(d)
    return _F(d, _check_real("lam", lam, 0.0))


def bessel_lambda(d: float) -> float:
    """Optimal stopping ratio lam(d): root of F above 2^(1/(d-2)).

    Bracket by doubling, then Newton with bisection fallback whenever an
    iterate leaves the bracket, until a Newton step moves the iterate by at
    most 1e-12 relative, F vanishes, or the bracket is 1e-15 relative
    narrow.  At d = 3 returns (3+sqrt5)/2 to full precision.
    """
    d = _check_dim(d)
    lo = 2.0 ** (1.0 / (d - 2.0)) * (1.0 + 1e-9)
    if _F(d, lo) >= 0.0:
        raise NumericalError(f"characteristic not negative at bracket start for d={d}")
    hi = lo
    for _ in range(200):
        hi *= 2.0
        if _F(d, hi) > 0.0:
            break
    else:  # pragma: no cover
        raise NumericalError(f"failed to bracket the optimal ratio for d={d}")

    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = _F(d, x)
        if fx == 0.0 or hi - lo <= 1e-15 * hi:
            return x
        if fx > 0.0:
            hi = x
        else:
            lo = x
        dfx = _dF(d, x)
        x_new = x - fx / dfx if dfx != 0.0 else math.inf
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        elif abs(x_new - x) <= 1e-12 * x_new:
            return x_new
        x = x_new
    raise NumericalError(f"optimal-ratio iteration did not converge for d={d}")


def bessel_lambda_bisect(d: float) -> float:
    """Pure-bisection root of the characteristic; slow, independent route.

    Halves the bracket down to a relative width of 1e-13.  Kept as a second
    code path for validating `bessel_lambda` (no shared iteration logic).
    """
    d = _check_dim(d)
    lo = 2.0 ** (1.0 / (d - 2.0)) * (1.0 + 1e-9)
    hi = lo
    while _F(d, hi) <= 0.0:
        hi *= 2.0
        if hi > 1e9:  # pragma: no cover
            raise NumericalError("bisection bracket ran away")
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if _F(d, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def bessel_value(d: float, lam: float, i: float, x: float) -> float:
    """Explicit expected remaining cost for the ray boundary f = lam i.

    Valid in i <= x <= lam i where it is strictly negative (except at the
    boundary), and defined as 0 for x >= lam i.  Matches the quadrature
    value of the generic machinery when lam solves the characteristic
    equation.  The d - 4 term (q^(d-4) - 1)/(d-4), q = lam i / x, goes
    through expm1, so its limit ln q at d = 4 is reached without a branch
    or cancellation.
    """
    d = _check_dim(d)
    _check_scalar("lam", lam, 1.0)
    _check_scalar("x", x, _check_scalar("i", i, 0.0), strict=False)
    if x >= lam * i:
        return 0.0
    q = lam * i / x
    r = i / x
    val = (2.0 / (d - 2.0)) * (
        x**2 * (0.5 + r ** (d - 2.0)) * (q**2 - 1.0)
        - x**2 / d * (q**d - 1.0)
        - 2.0 * lam ** (4.0 - d) * i**2 * _expm1_over(d - 4.0, math.log(q))
    )
    return float(val)


# ---------------------------------------------------------------------------
# law of the minimum at the optimal stopping time


@dataclass(frozen=True)
class StoppedDistribution:
    """Law of the state X at the moment a ray rule x = lam * min fires.

    Starting from x0 (minimum initialised at x0), the stopped state is
    lam * I and has CDF (y / (lam x0))^p on (0, lam x0] with

        p = (d - 2) / (1 - lam^-(d-2)).

    At d = 3 with the optimal ratio lam = phi^2 the exponent is p = phi
    and the mean is phi * x0; see stopped_mean.
    """

    d: float
    lam: float
    x0: float
    p: float


def make_stopped_distribution(d: float, lam: float, x0: float) -> StoppedDistribution:
    d = _check_dim(d)
    _check_scalar("lam", lam, 1.0)
    _check_scalar("x0", x0, 0.0)
    p = (d - 2.0) / (1.0 - lam ** (-(d - 2.0)))
    return StoppedDistribution(d=d, lam=lam, x0=x0, p=p)


def stopped_cdf(dist: StoppedDistribution, y):
    """P(stopped state <= y); supported on (0, lam x0]."""
    y = np.asarray(y, dtype=float)
    if np.any(~np.isfinite(y)):
        raise DomainError("cdf argument must be finite")
    top = dist.lam * dist.x0
    out = np.where(y <= 0.0, 0.0, np.minimum(np.maximum(y, 0.0) / top, 1.0) ** dist.p)
    out = np.where(y >= top, 1.0, out)
    return float(out) if out.ndim == 0 else out


def stopped_mean(dist: StoppedDistribution) -> float:
    """Mean lam x0 p/(p+1); equals phi * x0 at d = 3 with the optimal ratio."""
    return dist.lam * dist.x0 * dist.p / (dist.p + 1.0)


def stopped_quantile(dist: StoppedDistribution, q):
    """Inverse CDF: lam x0 q^(1/p) for q in [0, 1]."""
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise DomainError(f"quantile level must lie in [0, 1], got {q}")
    out = dist.lam * dist.x0 * q ** (1.0 / dist.p)
    return float(out) if out.ndim == 0 else out


def stopped_cdf_general(model: DiffusionModel, boundary, x0: float, y) -> float:
    """Stopped-state CDF for a general increasing boundary, by quadrature.

    For a rule stopping when X rises to f(running min), the stopped state
    is f(I) and, for y in the range of f,

        P(f(I) <= y) = exp( - int_{f^{-1}(y)}^{x0} L'(z) / (L(f(z)) - L(z)) dz ).

    The integral runs in s = log z, where the integrand z L'(z) / (...)
    stays bounded as z -> 0 (L'(z) / (...) grows like 1/z on a ray).
    Reduces to the power law of `stopped_cdf` for ray boundaries, which are
    evaluated and inverted exactly, so a ray's law holds for every y > 0
    with f^{-1}(y) in the model's domain.  The scale must also be known at
    f(x0), so f(x0) above the domain raises DomainError too.  A curved
    boundary is known on its grid only: there the CDF is 0 for
    y <= f(i_grid[0]).
    """
    _check_in_domain(model, "x0", x0)
    y = float(y)
    if not math.isfinite(y):
        raise DomainError("cdf argument must be finite")
    f_x0 = float(boundary(x0))
    if y >= f_x0:
        return 1.0
    if y <= (0.0 if boundary.ratio is not None else boundary.f_grid[0]):
        return 0.0
    z_y = float(boundary.inverse(y))
    if z_y < model.domain[0]:  # only a ray inverts below its grid
        raise DomainError(f"y={y:g} needs the scale at f^-1(y)={z_y:g}, below the model's domain "
                          f"{model.domain}; widen it (x_min, or the table's x range)")
    if f_x0 > model.domain[1]:
        raise DomainError(f"x0={x0:g} needs the scale at f(x0)={f_x0:g}, above the model's domain "
                          f"{model.domain}; widen it (x_max, or the table's x range)")

    def integrand(s):
        z = math.exp(s)
        return z * model.scale_deriv(z) / (model.scale(float(boundary(z))) - model.scale(z))

    return float(math.exp(-_integrate(integrand, math.log(z_y), math.log(x0))))
