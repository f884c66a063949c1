"""Transient diffusions on (0, inf): scale, speed, and exit formulas.

A model is dX = mu(X) dt + sigma(X) dW on (0, inf), transient to +inf,
carried around as a bundle of evaluators for the scale function and the
speed measure.  The scale function L is normalised to be strictly
increasing and negative with

    L(0+) = -inf,        L(x) -> 0  as x -> inf.

Under this normalisation the all-time minimum I_inf of the path started at
x satisfies  P(I_inf < i) = L(x)/L(i)  for 0 < i <= x, which is what makes
L the natural coordinate for predicting the ultimate minimum.  The running
cost separating "too early" from "too late" is

    c(i, x) = 1 - 2 L(x)/L(i)        (in [-1, 1)),

negative while a new minimum is more likely than not, changing sign on the
curve h(i) = L^{-1}(L(i)/2).

The speed density is m'(x) = 2 / (sigma(x)^2 L'(x)); all expected-exit
functionals below are integrals against the Green kernel times m'.

Bessel models (dimension d > 2, drift (d-1)/(2x), unit volatility) have
closed forms throughout:  L(x) = -x^(2-d),  m'(x) = (2/(d-2)) x^(d-1),
h(i) = 2^(1/(d-2)) i, and the scale moments M_k(y) = int^y L^k m' (k = 0, 1,
2) are elementary.  A model built from its coefficients gets its scale
by two cumulative quadratures on a log-x grid (2 mu / sigma^2, then the
tail of exp(-E)), see model_from_coefficients.
"""

from __future__ import annotations

import csv
import math
import numbers
import operator
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_simpson, quad
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator
from scipy.optimize import brentq

from .errors import DomainError, NumericalError, UnsupportedModelError, _caller_stacklevel

__all__ = [
    "DiffusionModel",
    "make_bessel_model",
    "model_from_scale",
    "model_from_coefficients",
    "model_from_csv",
    "validate_model",
    "c_value",
    "h_curve",
    "hitting_probabilities",
    "green_function",
    "expected_exit_integral",
]

# Default adaptive-quadrature tolerances for every solver integral.
QUAD_EPSABS = 1e-10
QUAD_EPSREL = 1e-8

# Nodes of the uniform log-x grid on which model_from_coefficients builds
# the scale; about 2e-8 relative error in L up to d = 10 on the default domain.
_SCALE_NODES = 8193


def _integrate(g, a, b, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL) -> float:
    """Adaptive quadrature of g over (a, b); a non-finite result raises NumericalError."""
    val, err = quad(g, a, b, epsabs=epsabs, epsrel=epsrel, limit=200)
    if not math.isfinite(val):
        raise NumericalError(
            f"integral over ({a:g}, {b:g}) did not converge (err estimate {err:g})"
        )
    return val


def _expm1_over(k, t):
    """expm1(k t) / k, and its limit t at k = 0; no cancellation as k -> 0."""
    return t if k == 0.0 else np.expm1(k * t) / k


def _read_columns(path, what, names, optional=None) -> list:
    """Float columns of a CSV table whose header starts with ``names``.

    ``optional`` names one more column, read when the header carries it
    next.  Blank rows are skipped; an unreadable file, a wrong header or a
    malformed row raises DomainError.  Returns one list per column read.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DomainError(f"{path}: cannot read {what} ({exc.strerror})") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        found = [h.strip().lower() for h in header or []]
        if found[:len(names)] != list(names):
            raise DomainError(f"{path}: expected header starting '{','.join(names)}', got {header}")
        if optional is not None and found[len(names):len(names) + 1] == [optional]:
            names = (*names, optional)
        columns = [[] for _ in names]
        for row in reader:
            if not "".join(row).strip():
                continue
            try:
                values = [float(row[k]) for k in range(len(names))]
            except (IndexError, ValueError) as exc:
                raise DomainError(f"{path}: malformed row {row}") from exc
            for column, v in zip(columns, values):
                column.append(v)
    return columns


@dataclass(frozen=True)
class DiffusionModel:
    """Evaluator bundle for one transient diffusion on (0, inf).

    Attributes
    ----------
    kind : str (read-only)
        "bessel" when ``dim`` is set, "custom" otherwise; derived, not stored.
    drift, volatility : callable
        mu(x) and sigma(x); accept floats or numpy arrays.
    scale : callable
        Normalised scale function L (negative, increasing to 0).
    scale_deriv : callable
        L'(x) > 0.
    scale_inverse : callable or None
        L^{-1} on the range of L; None when not available (then operations
        that need it, e.g. the sign-change curve, raise).
    speed_density : callable
        m'(x) = 2 / (sigma^2(x) L'(x)).
    dim : float or None
        Bessel dimension of the closed-form family; None for custom models.
    domain : tuple
        (x_min, x_max) on which the evaluators are trustworthy; Bessel
        models use (0, inf).
    scale_moments : callable or None
        (a, b) -> (dM_0, dM_1, dM_2), dM_k = M_k(b) - M_k(a), M_k(y) = int^y L^k m'.
    """

    drift: Callable
    volatility: Callable
    scale: Callable
    scale_deriv: Callable
    scale_inverse: Optional[Callable]
    speed_density: Callable
    dim: Optional[float] = None
    domain: tuple = (0.0, math.inf)
    scale_moments: Optional[Callable] = None

    @property
    def kind(self) -> str:
        return "custom" if self.dim is None else "bessel"

    def __repr__(self):  # keep dataclass repr from dumping closures
        return f"DiffusionModel(kind={self.kind!r}, dim={self.dim!r}, domain={self.domain!r})"


def _check_count(name, value, least, below=None) -> int:
    """``value`` as an int; DomainError unless it is a Python or numpy integer
    (by ``__index__``; a bool is not one) in [least, below), ``below`` a power
    of two or None."""
    try:
        v = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        v = None
    if v is not None and least <= v and (below is None or v < below):
        return v
    if below is None:
        raise DomainError(f"need an integer {name} >= {least}, got {value!r}")
    raise DomainError(f"{name} must lie in [{least}, 2^{below.bit_length() - 1}) as an integer, "
                      f"got {value!r}")


def _check_real(name, value, bound, strict=True):
    """``value`` (a real or an array of reals) as float(s); DomainError unless
    every entry is finite and above ``bound``, or at it when not ``strict``.
    Text is not a real, alone or in an array."""
    try:
        raw = np.asarray(value)
        v = np.asarray(raw, dtype=float)
        ok = raw.dtype.kind not in "US" and (np.isfinite(v) & (v > bound if strict else v >= bound)).all()
        v = float(v) if v.ndim == 0 else v
    except (TypeError, ValueError):
        ok = False
    if not ok:
        shown = repr(value) if isinstance(value, str) else value  # text reads as text
        raise DomainError(f"need finite {name} {'>' if strict else '>='} {bound:g}, got {shown}")
    return v


def _check_scalar(name, value, bound, strict=True) -> float:
    """One real, checked as by ``_check_real``; DomainError for an array."""
    v = _check_real(name, value, bound, strict)
    if not isinstance(v, float):
        raise DomainError(f"need one real {name}, got {value}")
    return v


def _check_in_domain(model, name, value):
    v = np.asarray(_check_real(name, value, 0.0))
    lo, hi = model.domain
    if ((v < lo) | (v > hi)).any():
        raise DomainError(f"{name}={value} outside model domain [{lo}, {hi}]")


def _check_interval(model, a, b, **points):
    """DomainError unless a < b lie in the model's domain and every named
    point lies in [a, b]."""
    _check_in_domain(model, "a", a)
    _check_in_domain(model, "b", b)
    if not a < b:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    for name, v in points.items():
        _check_in_domain(model, name, v)
        if not a <= v <= b:
            raise DomainError(f"need a <= {name} <= b, got {name}={v}, a={a}, b={b}")


def _check_dim(d) -> float:
    """The Bessel dimension d as a float; DomainError unless one finite real > 2."""
    if not isinstance(d, numbers.Real):  # text or an array: checked as any other real
        return _check_scalar("d", d, 2.0)
    d = float(d)
    if not math.isfinite(d) or d <= 2.0:
        raise DomainError(
            f"Bessel dimension must satisfy d > 2 (transient case); got d={d}. "
            "For d <= 2 the process is recurrent and the ultimate minimum is 0."
        )
    return d


def make_bessel_model(d: float) -> DiffusionModel:
    """Bessel process of dimension d > 2: drift (d-1)/(2x), volatility 1.

    Transient for d > 2; smaller d is recurrent (the ultimate minimum is 0
    almost surely and the prediction problem degenerates), so d <= 2 is
    rejected.
    """
    d = _check_dim(d)
    nu = d - 2.0

    def drift(x):
        return (d - 1.0) / (2.0 * np.asarray(x, dtype=float))

    def volatility(x):
        x = np.asarray(x, dtype=float)
        return np.ones_like(x) if x.ndim else 1.0

    def scale(x):
        return -np.power(x, -nu)

    def scale_deriv(x):
        return nu * np.power(x, -nu - 1.0)

    def scale_inverse(v):
        if np.any(np.asarray(v) >= 0.0):
            raise DomainError(f"scale inverse needs a negative argument, got {v}")
        return np.power(np.negative(v), -1.0 / nu)

    def speed_density(x):
        return (2.0 / nu) * np.asarray(x, dtype=float) ** (d - 1.0)

    def scale_moments(a, b):
        t = math.log(b / a)
        try:
            dm0 = 2.0 / (nu * d) * a**d * math.expm1(d * t)
        except OverflowError:  # b^d past the doubles; the shots read only dM_1, dM_2
            dm0 = math.inf
        return dm0, -(b * b - a * a) / nu, 2.0 / nu * a ** (4.0 - d) * _expm1_over(4.0 - d, t)

    return DiffusionModel(
        drift=drift,
        volatility=volatility,
        scale=scale,
        scale_deriv=scale_deriv,
        scale_inverse=scale_inverse,
        speed_density=speed_density,
        dim=d,
        scale_moments=scale_moments,
    )


def model_from_scale(
    drift: Callable,
    volatility: Callable,
    scale: Callable,
    scale_deriv: Callable,
    scale_inverse: Optional[Callable] = None,
    domain: tuple = (0.0, math.inf),
) -> DiffusionModel:
    """Custom model from explicit scale evaluators.

    The caller vouches for the normalisation (L < 0 increasing, L(0+) =
    -inf, L(inf-) = 0); a few spot checks run and warn on violation.
    """
    def speed_density(x):
        x = np.asarray(x, dtype=float)
        return 2.0 / (volatility(x) ** 2 * scale_deriv(x))

    model = DiffusionModel(
        drift=drift,
        volatility=volatility,
        scale=scale,
        scale_deriv=scale_deriv,
        scale_inverse=scale_inverse,
        speed_density=speed_density,
        domain=domain,
    )
    validate_model(model)
    return model


def validate_model(model: DiffusionModel) -> list:
    """Spot-check the scale normalisation on a 9-point log grid; warn, never raise.

    Returns the list of warning messages (empty when everything looks
    consistent with a transient model normalised to L(inf) = 0).  The
    warnings name the line that called into the package.
    """
    level = _caller_stacklevel()
    msgs = []
    lo, hi = model.domain
    lo_p = max(lo, 1e-12) if lo <= 0 else lo
    hi_p = hi if math.isfinite(hi) else 1e6
    xs = np.geomspace(lo_p * (1 + 1e-9), hi_p * (1 - 1e-9), 9)
    try:
        Ls = np.asarray(model.scale(xs), dtype=float)
    except Exception as exc:  # pragma: no cover - defensive
        msgs.append(f"scale evaluation failed on probe grid: {exc}")
        for m in msgs:
            warnings.warn(m, stacklevel=level)
        return msgs
    if np.any(Ls >= 0.0):
        msgs.append("scale function is not strictly negative on the probe grid")
    if np.any(np.diff(Ls) <= 0.0):
        msgs.append("scale function is not strictly increasing on the probe grid")
    mid = model.scale(math.sqrt(lo_p * hi_p))
    # transience: L must flatten to 0 at the top and dive at the bottom
    if abs(Ls[-1]) > 1e-3 * abs(mid):
        msgs.append(
            f"scale does not vanish at the upper domain end (L={Ls[-1]:.3e} vs "
            f"L(mid)={mid:.3e}); transience normalisation is approximate"
        )
    if abs(Ls[0]) < 10.0 * abs(mid):
        msgs.append(
            "scale does not blow up toward the lower domain end; "
            "the entrance behaviour looks non-singular"
        )
    if model.scale_inverse is not None:
        x_probe = xs[xs.size // 2]
        back = float(model.scale_inverse(model.scale(x_probe)))
        if not math.isclose(back, float(x_probe), rel_tol=1e-8):
            msgs.append(f"scale_inverse(scale(x)) != x at x={x_probe:g} (got {back:g})")
    for m in msgs:
        warnings.warn(m, stacklevel=level)
    return msgs


def model_from_coefficients(
    drift: Callable,
    volatility: Callable,
    x_ref: float = 1.0,
    x_min: Optional[float] = None,
    x_max: Optional[float] = None,
) -> DiffusionModel:
    """Build a model from coefficient functions by two cumulative quadratures.

    On a uniform grid in t = log x over [x_min, x_max], with mu and sigma
    evaluated once on the whole grid as arrays, cumulative Simpson gives

        E(t) = int^t 2 mu(e^s) / sigma(e^s)^2 e^s ds          (upward)
        T(t) = int_t^{log x_max} exp(-E(s)) e^s ds            (downward)

    so T(x) = int_x^{x_max} exp(-E) dy, and L(x) = -T(x)/T(x_ref) (hence
    L(x_ref) = -1, L(x_max) = 0).  The tail above x_max is truncated; pick
    x_max large enough that L has flattened.  Running T down from x_max
    avoids catastrophic cancellation near x_max.  A constant in E cancels
    in L; E is anchored at x_ref only to keep exp(-E) in range.

    Both are cubic Hermite interpolants with the exact nodal slopes E' and
    T' = -exp(-E) x; each point is evaluated on its own interval, so scale
    and scale_deriv are elementwise.  The scale inverse is a root solve in
    t over [log x_min, log x_max].
    """
    x_ref = _check_real("x_ref", x_ref, 0.0)
    x_min = _check_real("x_min", x_ref * 1e-6 if x_min is None else x_min, 0.0)
    x_max = _check_real("x_max", x_ref * 1e6 if x_max is None else x_max, 0.0)
    if not (x_min < x_ref < x_max):
        raise DomainError(
            f"need 0 < x_min < x_ref < x_max, got {x_min}, {x_ref}, {x_max}"
        )

    t_ref = math.log(x_ref)
    t = np.linspace(math.log(x_min), math.log(x_max), _SCALE_NODES)
    dt = t[1] - t[0]
    xs = np.exp(t)
    de = 2.0 * drift(xs) / volatility(xs) ** 2 * xs
    if not np.all(np.isfinite(de)):
        raise NumericalError("2 mu / sigma^2 is not finite on the grid; check the coefficients")
    e = cumulative_simpson(de, dx=dt, initial=0.0)
    e -= np.interp(t_ref, t, e)
    dtail = np.exp(-e) * xs
    tail = cumulative_simpson(dtail[::-1], dx=dt, initial=0.0)[::-1]
    e_of_t = CubicHermiteSpline(t, e, de)
    tail_of_t = CubicHermiteSpline(t, tail, -dtail)

    t_norm = float(tail_of_t(t_ref))
    if not (0.0 < t_norm < math.inf):
        raise NumericalError("scale tail came out nonpositive or infinite; check the coefficients")

    def scale(x):
        x = np.asarray(x, dtype=float)
        vals = -(tail_of_t(np.log(np.atleast_1d(x))) / t_norm)
        return vals if x.ndim else float(vals[0])

    def scale_deriv(x):
        x = np.asarray(x, dtype=float)
        vals = np.exp(-e_of_t(np.log(np.atleast_1d(x)))) / t_norm
        return vals if x.ndim else float(vals[0])

    lo_val, hi_val = float(scale(x_min)), float(scale(x_max * (1 - 1e-12)))

    def scale_inverse(v):
        def invert_one(val):
            if not (lo_val <= val <= hi_val):
                raise DomainError(
                    f"scale inverse argument {val} outside representable range "
                    f"[{lo_val:.6e}, {hi_val:.6e}]"
                )
            # root in t = log x of the scale's own spline (L = lo_val at t[0],
            # 0 at t[-1]), so xtol is a relative tolerance in x
            s = brentq(lambda u: -float(tail_of_t(u)) / t_norm - val, t[0], t[-1], xtol=1e-15)
            return math.exp(s)

        v = np.asarray(v, dtype=float)
        if v.ndim:
            return np.array([invert_one(val) for val in v])
        return invert_one(float(v))

    return model_from_scale(drift, volatility, scale, scale_deriv, scale_inverse,
                            domain=(x_min, x_max))


def model_from_csv(path) -> DiffusionModel:
    """Model from a coefficient table.

    The file must have a header row "x,mu,sigma" and strictly ascending x.
    Coefficients are interpolated monotone-cubically inside the table range
    and the scale is built by model_from_coefficients over exactly that
    range (no extrapolation), anchored at the middle row's x.
    """
    xs, mus, sigmas = _read_columns(path, "coefficient file", ("x", "mu", "sigma"))
    if len(xs) < 4:
        raise DomainError(f"{path}: need at least 4 rows, got {len(xs)}")
    xs = np.asarray(xs)
    if np.any(np.diff(xs) <= 0.0):
        raise DomainError(f"{path}: x column must be strictly ascending")
    _check_real("x column", xs, 0.0)
    _check_real("sigma column", sigmas, 0.0)

    mu_i = PchipInterpolator(xs, mus)
    sg_i = PchipInterpolator(xs, sigmas)
    return model_from_coefficients(
        drift=lambda x: mu_i(x),
        volatility=lambda x: sg_i(x),
        x_ref=float(xs[len(xs) // 2]),
        x_min=float(xs[0]),
        x_max=float(xs[-1]),
    )


# ---------------------------------------------------------------------------
# pointwise quantities


def c_value(model: DiffusionModel, i, x):
    """Running cost c(i, x) = 1 - 2 L(x)/L(i) for 0 < i <= x.

    Equals 2 P(min falls below i | current state x) - 1 with a sign flip:
    it is -1 at x = i, crosses 0 on the curve h, and tends to 1 as the
    chance of a new minimum vanishes.
    """
    _check_in_domain(model, "i", i)
    _check_in_domain(model, "x", x)
    if np.any(np.asarray(x) < np.asarray(i)):
        raise DomainError(f"need i <= x, got i={i}, x={x}")
    return 1.0 - 2.0 * model.scale(x) / model.scale(i)


def h_curve(model: DiffusionModel, i):
    """Sign-change curve h(i) = L^{-1}(L(i)/2) of the running cost.

    For Bessel models h(i) = 2^(1/(d-2)) i.  Needs a scale inverse.
    """
    _check_in_domain(model, "i", i)
    if model.scale_inverse is None:
        raise UnsupportedModelError(
            "h_curve needs a scale inverse, which this model does not provide"
        )
    return model.scale_inverse(model.scale(i) / 2.0)


def hitting_probabilities(model: DiffusionModel, a: float, x: float, b: float):
    """(p_a, p_b): chances of exiting (a, b) at a resp. b, started at x.

    p_a = (L(b) - L(x)) / (L(b) - L(a)), p_b = 1 - p_a exactly (the pair
    always sums to 1 in floating point).
    """
    _check_interval(model, a, b, x=x)
    la, lx, lb = model.scale(a), model.scale(x), model.scale(b)
    p_a = (lb - lx) / (lb - la)
    # clamp roundoff; the formula is a ratio of nearby negatives
    p_a = min(1.0, max(0.0, float(p_a)))
    return p_a, 1.0 - p_a


def _green(la, lb, lx, ly, weight=1.0):
    """weight * G(x, y) from L at a, b, x and y (L increases, so the smaller
    value is L(x^y)); the weight multiplies first, as in the integrands."""
    lo, hi = min(lx, ly), max(lx, ly)
    return weight * (lo - la) * (lb - hi) / (lb - la)


def green_function(model: DiffusionModel, a: float, b: float, x: float, y: float):
    """Green kernel of the interval (a, b) against the speed measure.

    G(x, y) = (L(x^y) - L(a)) (L(b) - L(xvy)) / (L(b) - L(a)), with x^y the
    smaller and xvy the larger of x, y; expected occupation functionals are
    integrals f(y) G(x, y) m'(y) dy over (a, b).
    """
    _check_interval(model, a, b, x=x, y=y)
    return float(_green(model.scale(a), model.scale(b), model.scale(x), model.scale(y)))


def expected_exit_integral(
    model: DiffusionModel,
    f: Callable,
    a: float,
    x: float,
    b: float,
):
    """E_x int_0^{tau_{a,b}} f(X_t) dt via the Green kernel.

    Adaptive quadrature of f(y) G(x, y) m'(y) over (a, b), split at y = x
    where the kernel has a kink.
    """
    _check_interval(model, a, b, x=x)
    la, lb, lx = model.scale(a), model.scale(b), model.scale(x)

    def integrand(y):
        return _green(la, lb, lx, model.scale(y), f(y)) * model.speed_density(y)

    total = 0.0
    if x > a:
        total += _integrate(integrand, a, x)
    if x < b:
        total += _integrate(integrand, x, b)
    return total
