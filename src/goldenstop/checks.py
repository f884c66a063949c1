"""Statistical validation checks shared by the test suite and the CLI.

Each runner performs the Monte Carlo passes of one experiment (one pass
wherever the stream contract makes two passes identical: the golden-rule
group grades its star rows from the sweep's 1+phi row, the cev group its
drawdown identity and transformed route from one pass) and grades them
against the closed-form theory, returning CheckResult rows.
`golden_rule_star_checks` grades the star rows alone from a one-rule
pass.  The group runners back `goldenstop simulate --check`, so a shipped
binary can re-certify itself on the target machine.

Grading conventions: `value` is the measured discrepancy or statistic,
`tolerance` the bound it must stay below, except for the sweep-optimality
check where `value` is a minimum z-score that must stay *above*
`tolerance` (the orientation is spelled out in `detail`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import ks_2samp, kstest

from .bessel import (
    bessel_lambda,
    bessel_value,
    make_stopped_distribution,
    stopped_cdf,
    stopped_mean,
)
from .cev import CevModel, cev_transform, direct_stopped_samples
from .diffusion import make_bessel_model
from .errors import DomainError
from .simulate import StoppingRule, _mean_se, estimate_future_min_prob, simulate_rules

__all__ = [
    "CheckResult",
    "golden_rule_checks",
    "golden_rule_star_checks",
    "future_min_checks",
    "cev_checks",
    "CHECK_GROUPS",
    "run_checks",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str

    def row(self) -> dict:
        return asdict(self)


# Siegmund's constant -zeta(1/2)/sqrt(2 pi): a crossing monitored on a grid
# of mesh `step` overshoots the level by beta * sigma * sqrt(step) on average
_SIEGMUND_BETA = 0.5825971579390107
# d=3 ratio sweep from x0=1; row _STAR is the golden threshold 1+phi
_SWEEP, _STAR = (1.8, 2.1, bessel_lambda(3.0), 3.3, 4.0), 2


def _golden_pass(ratios, n_paths, seed, step, horizon):
    rules = [StoppingRule.ratio_rule(l) for l in ratios]
    return simulate_rules(
        make_bessel_model(3.0), 1.0, rules, n_paths, seed=seed, step=step,
        horizon=horizon,
    )


def _grade_star(res, j, step) -> list:
    """The three golden-rule rows from row j (the 1+phi rule) of a pass."""
    d, x0, lam = 3.0, 1.0, _SWEEP[_STAR]
    mean, se = _mean_se(res.objective[j])
    target = bessel_value(d, lam, x0, x0)
    diff = abs(mean - target)
    tol = 3.0 * se + 0.01 * abs(target)

    ok = ~res.truncated[j]
    dist = make_stopped_distribution(d, lam, x0)
    # lam * I is the continuous stopped state; the grid-monitored x_stop
    # carries the overshoot that stopped-mean corrects for
    ks = float(kstest(lam * res.i_stop[j, ok], lambda y: stopped_cdf(dist, y)).statistic)

    sample = np.sort(res.x_stop[j, ok])

    # the grid-monitored stop overshoots lam * I by beta sqrt(step) (sigma = 1)
    m0 = stopped_mean(dist)
    m_target = m0 + _SIEGMUND_BETA * math.sqrt(step)
    m_err = abs(float(sample.mean()) - m_target) / m0
    m_tol = min(3.0 * float(sample.std(ddof=1)) / math.sqrt(sample.size) / m0, 0.01)
    return [
        CheckResult(
            "objective-vs-prediction", diff, tol, diff <= tol,
            f"estimate {mean:.6f} (se {se:.2g}) vs closed form {target:.6f}; |diff| <= 3 se + 1%",
        ),
        CheckResult(
            "stopped-law-ks", ks, 0.02, ks <= 0.02,
            f"KS of {sample.size} continuous stopped states lam * I vs the "
            f"exponent-{dist.p:.6f} power law",
        ),
        CheckResult(
            "stopped-mean", m_err, m_tol, m_err <= m_tol,
            f"|mean stopped state - (phi*x0 + beta sqrt(step) = {m_target:.6f})| / phi*x0",
        ),
    ]


def _grade_sweep(res, star) -> list:
    """Paired z-scores of every other sweep row of a pass against row star."""
    obj = res.objective
    zmin, worst = math.inf, ""
    for j, l in enumerate(_SWEEP):
        if j == star:
            continue
        dmean, dse = _mean_se(obj[j] - obj[star])
        z = dmean / dse
        if z < zmin:
            zmin, worst = z, f"ratio {l:g}: gap {dmean:.5f}, paired se {dse:.2g}"
    return [
        CheckResult(
            name="sweep-optimality",
            value=zmin,
            tolerance=2.0,
            passed=zmin >= 2.0,
            detail=f"min paired z-score across off-optimal ratios (>= 2 required); worst {worst}",
        )
    ]


def golden_rule_star_checks(
    n_paths: int = 50_000,
    seed: int = 42,
    step: float = 1e-4,
    horizon: float = 50.0,
) -> list:
    """d=3 rule at the golden threshold from x0=1: level and stopped law.

    One single-rule pass grades three rows:

    - objective-vs-prediction: the Monte Carlo objective within 3 SE plus
      a 1% discretisation allowance of the closed-form value;
    - stopped-law-ks: KS distance of the continuous stopped states lam * I
      (I the bridge-sharpened running minimum at the stop) to the power law
      at most 0.02;
    - stopped-mean: empirical mean of the stopped state within
      min(3 SE, 1%) of phi * x0 plus the mean grid overshoot
      beta * sqrt(step), relative to phi * x0.
    """
    res = _golden_pass([_SWEEP[_STAR]], n_paths, seed, step, horizon)
    return _grade_star(res, 0, step)


def golden_rule_checks(
    n_paths: int = 50_000,
    seed: int = 42,
    step: float = 1e-4,
    horizon: float = 50.0,
) -> list:
    """Star-rule rows plus the sweep row from one sweep pass.

    The pass is one common-random-numbers run over {1.8, 2.1, 1+phi, 3.3,
    4.0}.  Its 1+phi row grades the rows of `golden_rule_star_checks`: by
    the stream contract it is bit-identical to that function's one-rule
    pass, so the first three rows equal its rows on the same arguments.
    The last row, sweep-optimality, requires every off-optimal ratio to
    lose to the golden one by at least 2 paired standard errors (value =
    worst z-score, must exceed the tolerance).
    """
    res = _golden_pass(_SWEEP, n_paths, seed, step, horizon)
    return _grade_star(res, _STAR, step) + _grade_sweep(res, _STAR)


# discretisation allowance of the completed dip estimate at step 1e-3: its
# bias measured there is -0.001 +- 0.001 at d=3 and d=4, inside 0.005 at
# 3 se (the reduced-scale unit test allows 0.015)
_DIP_ALLOWANCE = 0.005


def future_min_checks(
    n_paths: int = 20_000,
    seed: int = 42,
    step: float = 1e-3,
    horizon: float = 20.0,
) -> list:
    """P(dip below 1 from x0=2) vs the scale-ratio law at d=3 and d=4.

    The exact values are 1/2 and 1/4.  The completed estimate (1 for a
    path that dipped, L(X_tau)/L(1) for one that retired above 1, at the
    exit level 2 + sqrt(horizon) or at the horizon) is unbiased, so
    |estimate - exact| must stay within 3 of its standard errors plus a
    discretisation allowance of 0.005.  The detail reports the
    non-dipped paths' analytic share of the estimate, the exit level and
    the share of paths that retired there.
    """
    out = []
    for d, target in ((3.0, 0.5), (4.0, 0.25)):
        model = make_bessel_model(d)
        est = estimate_future_min_prob(
            model, 2.0, 1.0, n_paths=n_paths, seed=seed, step=step,
            horizon=horizon,
        )
        diff = abs(est.mean - target)
        tol = 3.0 * est.std_error + _DIP_ALLOWANCE
        out.append(
            CheckResult(
                name=f"future-min-d{d:g}",
                value=diff,
                tolerance=tol,
                passed=diff <= tol,
                detail=(
                    f"completed estimate {est.mean:.4f} (analytic share "
                    f"{est.extra['analytic_share']:.4f}) vs exact {target}; se {est.std_error:.2g}; "
                    f"exit level {est.extra['exit_level']:.4f} reached by "
                    f"{est.extra['exit_fraction']:.1%} of paths"
                ),
            )
        )
    return out


def cev_checks(
    n_paths: int = 10_000,
    seed: int = 42,
    step: float = 1e-3,
    horizon: float = 30.0,
) -> list:
    """Drawdown-rule consistency between the price and state pictures.

    One Bessel pass from x0 = 1 (price z0 = K(x0) = 1) runs the ratio
    rule and the drawdown rule at 1+phi side by side, with no sub-step
    correction:

    - drawdown-step-identity: the two rules must make bit-identical
      decisions on every path (the trigger events coincide exactly, not
      just in law); the value counts the paths on which they differ;
    - cev-two-route-ks: the drawdown row's stopped prices (the transformed
      route: `cev_transform` of the stopped states of the paths that did
      not reach the horizon, equal by the stream contract to those of a
      one-rule drawdown pass) and those of direct Euler on the price SDE,
      independently seeded, must agree to two-sample KS <= 0.05.  Both
      routes monitor extrema on the shared grid, so the comparison
      isolates the transform and the two discretisations.

    A horizon at which either route stops no path raises DomainError
    naming both stopped counts, since the KS row would grade an empty sample.
    """
    d = 3.0
    lam = bessel_lambda(d)
    model = make_bessel_model(d)
    cev = CevModel(d, 1.0)

    res = simulate_rules(
        model, 1.0,
        [StoppingRule.ratio_rule(lam), StoppingRule.drawdown_rule(lam)],
        n_paths, seed=seed, step=step, horizon=horizon, bridge=False,
    )
    fields = (res.stop_step, res.x_stop, res.objective, res.truncated)
    n_differ = float(np.count_nonzero(np.any([f[0] != f[1] for f in fields], axis=0)))
    out = [
        CheckResult(
            name="drawdown-step-identity",
            value=n_differ,
            tolerance=0.0,
            passed=n_differ == 0,
            detail=(
                f"paths whose stop step, stopped state, objective or truncation flag differ, "
                f"over {n_paths} shared paths (exact zero required)"
            ),
        )
    ]

    za = np.sort(cev_transform(cev, res.x_stop[1, ~res.truncated[1]]))
    zb, _ = direct_stopped_samples(
        cev, 1.0, lam, n_paths=n_paths, seed=seed + 1_000_003, step=step,
        horizon=horizon,
    )
    if not (za.size and zb.size):
        raise DomainError(
            f"horizon={horizon} stops {za.size} transformed and {zb.size} direct paths of "
            f"{n_paths}: the two-route KS needs stops on both; pass a longer horizon"
        )
    ks = float(ks_2samp(za, zb).statistic)
    out.append(
        CheckResult(
            name="cev-two-route-ks",
            value=ks,
            tolerance=0.05,
            passed=ks <= 0.05,
            detail=(
                f"two-sample KS, {za.size} transformed vs {zb.size} direct "
                "stopped prices, independent seeds"
            ),
        )
    )
    return out


CHECK_GROUPS = {
    "golden-rule": golden_rule_checks,
    "future-min": future_min_checks,
    "cev": cev_checks,
}


def run_checks(
    groups: Optional[Sequence[str]] = None,
    n_paths: Optional[int] = None,
    seed: int = 42,
    step: Optional[float] = None,
) -> list:
    """Run the named check groups (all by default) with optional overrides.

    n_paths and step replace each group's own default only when given, so
    `run_checks()` reproduces the certification settings.
    """
    names = list(groups) if groups else list(CHECK_GROUPS)
    results = []
    for name in names:
        try:
            fn = CHECK_GROUPS[name]
        except KeyError:
            raise DomainError(
                f"unknown check group {name!r}; available: {', '.join(CHECK_GROUPS)}"
            ) from None
        kwargs = {"seed": seed}
        if n_paths is not None:
            kwargs["n_paths"] = n_paths
        if step is not None:
            kwargs["step"] = float(step)
        results.extend(fn(**kwargs))
    return results
