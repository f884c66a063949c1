"""CEV price bubbles, the drawdown form of the golden rule, retracements.

A Bessel process X of dimension d > 2 maps through the strictly
decreasing power transform

    K(x) = c_sigma * x^(2-d)

to a driftless constant-elasticity-of-variance price Z = K(X) with

    dZ = sigma * Z^(1+beta) dB,    sigma = (d-2)/c_sigma^(1/(d-2)),
                                   beta  = 1/(d-2),

a strict local martingale (a price bubble) for beta > 0.  Running maxima
of Z correspond to running minima of X, so the optimal minimum-prediction
rule becomes a trailing-stop rule: sell once the price has drawn down to
1/threshold of its running maximum, with threshold lam(d)^(d-2).  At d=3
the threshold is 1 + phi and the drawdown fraction at the trigger is

    1 - Z/S = 1 - 1/(1+phi) = 1/phi = 0.618...,

the golden retracement.  Fibonacci ratio levels approximating powers of
1/phi are provided for reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np

from .bessel import bessel_lambda
from .diffusion import _check_count, _check_dim, _check_real, _check_scalar, make_bessel_model
from .errors import DomainError, _caller_stacklevel
from .simulate import (
    StoppingRule,
    _first_true,
    _horizon_steps,
    _lane_blocks,
    _mean_se,
    _sharded,
    simulate_rules,
)

__all__ = [
    "CevModel",
    "cev_transform",
    "cev_inverse_transform",
    "cev_rule_threshold",
    "retracement_fraction",
    "FibonacciLevels",
    "fibonacci_levels",
    "direct_stopped_samples",
    "martingale_defect_table",
]

# absorbing floor for the direct Euler scheme (volatility vanishes there)
CEV_FLOOR = 1e-10


@dataclass(frozen=True)
class CevModel:
    """Driftless CEV model tied to its source Bessel dimension.

    sigma and beta are derived from (d, c_sigma) and satisfy
    sigma * c_sigma^(1/(d-2)) = d - 2.
    """

    d: float
    c_sigma: float = 1.0
    sigma: float = field(init=False)
    beta: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "d", _check_dim(self.d))
        _check_scalar("c_sigma", self.c_sigma, 0.0)
        nu = self.d - 2.0
        root = self.c_sigma ** (1.0 / nu)
        object.__setattr__(self, "sigma", nu / root)
        object.__setattr__(self, "beta", 1.0 / nu)


def cev_transform(cev: CevModel, x):
    """Price Z = K(x) = c_sigma x^(2-d); strictly decreasing in x."""
    x = np.asarray(x, dtype=float)
    _check_real("x", x, 0.0)
    out = cev.c_sigma * x ** (2.0 - cev.d)
    return float(out) if out.ndim == 0 else out


def cev_inverse_transform(cev: CevModel, z):
    """State K^{-1}(z) = (c_sigma/z)^(1/(d-2))."""
    z = np.asarray(z, dtype=float)
    _check_real("z", z, 0.0)
    out = (cev.c_sigma / z) ** (1.0 / (cev.d - 2.0))
    return float(out) if out.ndim == 0 else out


def cev_rule_threshold(cev: CevModel) -> float:
    """Optimal drawdown threshold lam(d)^(d-2); 1 + phi at d = 3.

    The optimal sell rule on the price side is: stop once the running
    maximum S exceeds this multiple of the current price.
    """
    return bessel_lambda(cev.d) ** (cev.d - 2.0)


def retracement_fraction() -> float:
    """Drawdown fraction 1 - 1/threshold at the d=3 trigger: exactly 1/phi.

    The "golden retracement" of technical analysis (61.8%), here the
    provable consequence of the optimal rule rather than folklore.
    """
    return 1.0 - 1.0 / bessel_lambda(3.0)


class FibonacciLevels(NamedTuple):
    shallow: float   # F_n / F_{n+3} -> phi^-3 ~ 23.6%
    moderate: float  # F_n / F_{n+2} -> phi^-2 ~ 38.2%
    golden: float    # F_n / F_{n+1} -> phi^-1 ~ 61.8%


def fibonacci_levels(n: int) -> FibonacciLevels:
    """Three-point Fibonacci retracement ratios from the exact recursion.

    Uses F_0 = 0, F_1 = 1, F_{k+1} = F_k + F_{k-1} in exact integer
    arithmetic (no overflow; fine far past n = 90), then divides.  By
    Binet's form F_n = (phi^n - psi^n)/sqrt(5) with psi = (1 - sqrt5)/2,
    the ratios alternate around and converge to phi^-3, phi^-2, phi^-1.
    """
    n = _check_count("n", n, 2)
    a, b = 0, 1  # F_0, F_1
    fibs = [a, b]
    for _ in range(n + 2):
        a, b = b, a + b
        fibs.append(b)
    f_n, f1, f2, f3 = fibs[n], fibs[n + 1], fibs[n + 2], fibs[n + 3]
    return FibonacciLevels(
        shallow=f_n / f3,
        moderate=f_n / f2,
        golden=f_n / f1,
    )


def direct_stopped_samples(
    cev: CevModel,
    z0: float,
    kappa: float,
    n_paths: int = 10_000,
    seed: int = 42,
    step: float = 1e-3,
    horizon: float = 30.0,
):
    """Stopped prices from direct Euler on dZ = sigma Z^(1+beta) dB.

    Independent discretisation route used to cross-check the transformed
    route (the stopped states of a Bessel drawdown pass mapped through K);
    shares the per-path stream contract (two uniforms per step, the second
    unused) but nothing else with the Bessel engine.  The
    scheme floors Z at 1e-10 where the volatility vanishes (absorption);
    the trigger S >= kappa Z fires long before that in practice.  Paths
    whose price overflows (too coarse a step) are left out of the sample,
    with a warning, as are truncated paths.

    Returns (sorted stopped-Z sample, truncated count).
    """
    z0 = _check_scalar("z0", z0, 0.0)
    kappa = _check_scalar("kappa", kappa, 1.0)
    n_paths = _check_count("n_paths", n_paths, 1)
    seed = _check_count("seed", seed, 0, below=2**63)
    n_max = _horizon_steps(horizon, step)
    sqdt = math.sqrt(step)
    sigma, p = cev.sigma, 1.0 + cev.beta

    @np.errstate(over="ignore", invalid="ignore")
    def run(lo, hi):
        # stopped price, horizon reached, step at which Z overflowed (0: never)
        out = SimpleNamespace(z=np.empty(hi - lo), trunc=np.zeros(hi - lo, dtype=bool),
                              blowup=np.zeros(hi - lo, dtype=np.int64), shards=1)
        for ln in _lane_blocks(seed, lo, hi, n_max, dict(Z=z0, S=z0)):
            for k0, k1 in ln.groups:
                z = ln.z(k0, k1)
                Z, S = np.empty((2, k1 - k0 + 1, ln.index.size))
                Z[0], S[0] = ln.state["Z"], ln.state["S"]
                for k in range(k1 - k0):
                    Zk = Z[k]
                    np.maximum(Zk + sigma * Zk ** p * sqdt * z[k], CEV_FLOOR, out=Z[k + 1])
                    np.maximum(S[k], Z[k + 1], out=S[k + 1])
                Z, S = Z[1:], S[1:]
                cols, rows = _first_true(((S >= kappa * Z) | ~np.isfinite(Z)) & ~ln.done)
                ids = ln.index[cols] - lo
                out.z[ids] = Z[rows, cols]
                out.blowup[ids] = np.where(np.isfinite(out.z[ids]), 0, ln.t(k0, k1)[rows, cols])
                ln.done[cols] = True
                ln.state.update(Z=Z[-1], S=S[-1])
            last = ~ln.done & ln.ends
            out.z[ln.index[last] - lo] = Z[-1, last]
            out.trunc[ln.index[last] - lo] = True
        return out

    out = _sharded(run, n_paths, n_max)
    n_trunc = int(out.trunc.sum())
    if n_trunc > 0.01 * n_paths:
        warnings.warn(
            f"{n_trunc} of {n_paths} direct CEV paths hit the horizon before "
            "the drawdown trigger",
            stacklevel=_caller_stacklevel(),
        )
    blown = np.nonzero(out.blowup)[0]
    if blown.size:
        k = blown[np.argmin(out.blowup[blown])]
        warnings.warn(f"excluding {blown.size} direct CEV paths whose Euler price overflowed "
                      f"(first: path {k} at t={out.blowup[k] * step:g}); reduce step",
                      stacklevel=_caller_stacklevel())
    return np.sort(out.z[~out.trunc & (out.blowup == 0)]), n_trunc


def martingale_defect_table(
    cev: CevModel,
    z0: float,
    horizons: Sequence[float],
    n_paths: int = 20_000,
    seed: int = 42,
    step: float = 1e-3,
    scheme: str = "euler",
) -> list:
    """Monte Carlo E[Z_T] for several T, exposing the bubble defect.

    Z is a strict local martingale: E[Z_T] < z0 and decreases in T.  One
    common-random-numbers pass evaluates all horizons; rows are dicts
    {"horizon", "mean_price", "std_error"} and carry no pass/fail verdict
    (the trend is the diagnostic).
    """
    hs = _check_real("horizons", horizons, 0.0)
    if np.ndim(hs) != 1 or not hs.size:
        raise DomainError(f"need a sequence of positive horizons, got {horizons}")
    hs = np.sort(hs).tolist()
    x0 = cev_inverse_transform(cev, z0)
    model = make_bessel_model(cev.d)
    rules = [StoppingRule.fixed_time_rule(t) for t in hs]
    res = simulate_rules(
        model, x0, rules, n_paths, seed=seed, step=step,
        horizon=hs[-1] + 2.0 * step, scheme=scheme, bridge=False,
    )
    rows = []
    for j, t in enumerate(hs):
        mean, se = _mean_se(cev_transform(cev, res.x_stop[j]))
        rows.append({"horizon": t, "mean_price": mean, "std_error": se})
    return rows
