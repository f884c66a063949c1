"""Threshold roots, value formula and stopped law against frozen oracles.

The FROZEN_LAMBDA table below was computed independently with brentq on
the characteristic polynomial at xtol 2e-12 before the package existed;
FROZEN_VALUE the same way from adaptive quadrature cross-checked against
the closed form to 2e-15.  Tolerances reflect the oracle precision, not
the implementation's.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad

import goldenstop as g

PHI = (1.0 + math.sqrt(5.0)) / 2.0

FROZEN_LAMBDA = {
    2.5: 5.706345474483036,
    3.0: 2.6180339887498945,
    4.0: 1.6950248269874937,
    5.0: 1.4444239265755425,
    6.0: 1.3272366713709693,
    7.0: 1.2591600804071381,
    10.0: 1.159793232231471,
}

FROZEN_VALUE = {  # V(d, lam(d), 1, 1)
    3.0: -0.206011329583,
    4.0: -0.059420096889,
    5.0: -0.028873882903,
}


def test_characteristic_vanishes_at_one():
    # F(1) = 0 for every dimension, including the d=4 log branch
    for d in (2.5, 3.0, 3.7, 4.0, 5.0, 7.0, 10.0):
        assert abs(g.bessel_characteristic(d, 1.0)) < 1e-12


def test_characteristic_array_and_domain():
    lams = np.array([1.0, 2.0, 3.0])
    vals = g.bessel_characteristic(3.0, lams)
    assert vals.shape == (3,)
    # d=3 polynomial lam^3 - 4 lam^2 + 4 lam - 1 by expanding the terms
    assert np.allclose(vals, lams**3 - 4.0 * lams**2 + 4.0 * lams - 1.0, atol=1e-12)
    with pytest.raises(g.DomainError):
        g.bessel_characteristic(3.0, -1.0)
    with pytest.raises(g.DomainError):
        g.bessel_characteristic(2.0, 2.0)


def test_lambda_golden_identity():
    lam = g.bessel_lambda(3.0)
    assert abs(lam - (3.0 + math.sqrt(5.0)) / 2.0) < 1e-13
    assert abs(lam - (1.0 + PHI)) < 1e-13
    # the golden threshold satisfies (lam - 1)^2 = lam
    assert abs((lam - 1.0) ** 2 - lam) < 1e-12
    assert abs(g.GOLDEN_RATIO - PHI) < 1e-15


def test_lambda_frozen_table():
    for d, ref in FROZEN_LAMBDA.items():
        lam = g.bessel_lambda(d)
        assert abs(lam - ref) < 5e-11, (d, lam, ref)
        assert abs(float(g.bessel_characteristic(d, lam))) < 1e-9
        assert lam > 2.0 ** (1.0 / (d - 2.0))


def test_lambda_newton_vs_bisect():
    for d in FROZEN_LAMBDA:
        assert abs(g.bessel_lambda(d) - g.bessel_lambda_bisect(d)) < 1e-9


def _decimal_lambda(d):
    """Root of F above 2^(1/(d-2)) by bisection in 60-digit decimal
    arithmetic down to a 1e-45 relative bracket; shares no code with the
    package."""
    with localcontext() as ctx:
        ctx.prec = 60
        dd = Decimal(d)  # the float d exactly
        k = 4 - dd

        def F(lam):
            ln = lam.ln()
            tail = ln if k == 0 else ((k * ln).exp() - 1) / k
            return (dd * ln).exp() - (1 + dd) * lam * lam + 4 * tail + dd

        lo = (Decimal(2).ln() / (dd - 2)).exp()
        hi = 2 * lo
        while F(hi) <= 0:
            hi *= 2
        while hi - lo > Decimal("1e-45") * hi:
            mid = (lo + hi) / 2
            if F(mid) > 0:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2


@pytest.mark.parametrize("d", [2.5, 3.5, 4.0 - 1e-7, 4.0, 4.0 + 2e-8, 4.0 + 1e-7, 5.0])
def test_lambda_matches_high_precision_reference(d):
    # the float root is as good as the double arithmetic allows, also where
    # the characteristic's 1/(4-d) terms cancel
    ref = _decimal_lambda(d)
    assert float(abs(Decimal(g.bessel_lambda(d)) - ref) / ref) <= 1e-15


def test_lambda_continuity_through_log_branch():
    base = g.bessel_lambda(4.0)
    for eps in (1e-9, -1e-9):
        assert abs(g.bessel_lambda(4.0 + eps) - base) < 1e-6


def test_derivative_consistent_with_finite_difference():
    for d, lam in ((3.0, 2.2), (5.0, 1.5), (4.0, 1.8)):
        h = 1e-6
        fd = (
            float(g.bessel_characteristic(d, lam + h))
            - float(g.bessel_characteristic(d, lam - h))
        ) / (2.0 * h)
        an = float(g.bessel_characteristic_derivative(d, lam))
        assert abs(fd - an) < 1e-6 * max(1.0, abs(an))


def test_value_frozen_table():
    for d, ref in FROZEN_VALUE.items():
        v = g.bessel_value(d, g.bessel_lambda(d), 1.0, 1.0)
        assert abs(v - ref) < 1e-11, (d, v, ref)


def test_value_region_structure():
    lam = g.bessel_lambda(3.0)
    # zero on and above the stopping ray, negative below, continuous across
    assert g.bessel_value(3.0, lam, 1.0, lam) == 0.0
    assert g.bessel_value(3.0, lam, 1.0, lam + 0.5) == 0.0
    assert g.bessel_value(3.0, lam, 1.0, 1.3) < 0.0
    assert abs(g.bessel_value(3.0, lam, 1.0, lam - 1e-7)) < 1e-12
    # scaling in (i, x) -> (ci, cx): value scales like c^2 (time units)
    v1 = g.bessel_value(3.0, lam, 1.0, 1.5)
    v2 = g.bessel_value(3.0, lam, 2.0, 3.0)
    assert abs(v2 - 4.0 * v1) < 1e-12
    with pytest.raises(g.DomainError):
        g.bessel_value(3.0, lam, -1.0, 1.0)
    with pytest.raises(g.DomainError):
        g.bessel_value(3.0, 0.9, 1.0, 1.0)


def test_value_log_branch_continuity():
    lam = 1.7
    base = g.bessel_value(4.0, lam, 1.0, 1.2)
    for eps in (1e-9, -1e-9):
        assert abs(g.bessel_value(4.0 + eps, lam, 1.0, 1.2) - base) < 1e-6


@pytest.mark.parametrize("i, x", [(1.0, 1.5), (0.7, 1.1)])
def test_value_smooth_across_d4(i, x):
    """V is smooth in d through 4: the second difference over d = 4 -+ eps
    stays at rounding level (a switch to the d = 4 limit form, or the
    cancellation of (q^(d-4) - 1)/(d-4), shows up as 1e-10 to 1e-8)."""
    lam = g.bessel_lambda(4.0)

    def V(d):
        return g.bessel_value(d, lam, i, x)

    for eps in (2e-8, 3e-8, 1e-6):
        assert abs(V(4.0 - eps) + V(4.0 + eps) - 2.0 * V(4.0)) <= 1e-13


def test_stopped_exponent_identities():
    d3 = g.make_stopped_distribution(3.0, g.bessel_lambda(3.0), 1.0)
    assert abs(d3.p - PHI) < 1e-12
    assert abs(g.stopped_mean(d3) - PHI) < 1e-12
    d5 = g.make_stopped_distribution(5.0, g.bessel_lambda(5.0), 1.0)
    assert abs(d5.p - 4.489877033262579) < 1e-9
    assert abs(g.stopped_mean(d5) - 1.1813171360547474) < 1e-9


def test_stopped_law_shape():
    lam = g.bessel_lambda(3.0)
    dist = g.make_stopped_distribution(3.0, lam, 2.0)
    top = lam * 2.0
    assert g.stopped_cdf(dist, top) == 1.0
    assert g.stopped_cdf(dist, top + 1.0) == 1.0
    assert g.stopped_cdf(dist, 0.0) == 0.0
    ys = np.linspace(0.1, top, 50)
    cdf = np.asarray(g.stopped_cdf(dist, ys))
    assert np.all(np.diff(cdf) > 0.0)
    # pdf integrates to one
    total, _ = quad(lambda y: g.stopped_pdf(dist, y), 0.0, top, limit=200)
    assert abs(total - 1.0) < 1e-10
    for q in (0.05, 0.5, 0.99):
        y = g.stopped_quantile(dist, q)
        assert abs(g.stopped_cdf(dist, y) - q) < 1e-12
    for q in (1.5, math.nan, math.inf):
        with pytest.raises(g.DomainError):
            g.stopped_quantile(dist, q)


def test_stopped_law_rejects_non_finite_parameters():
    lam = g.bessel_lambda(3.0)
    for bad_lam, bad_x0 in ((math.inf, 1.0), (math.nan, 1.0), (lam, math.inf), (lam, math.nan)):
        with pytest.raises(g.DomainError):
            g.make_stopped_distribution(3.0, bad_lam, bad_x0)


def test_stopped_cdf_general_matches_power_law():
    m = g.make_bessel_model(3.0)
    lam = g.bessel_lambda(3.0)
    b = g.line_boundary(m, lam, 0.05, 4.0)
    dist = g.make_stopped_distribution(3.0, lam, 1.0)
    for y in (0.4, 0.9, 1.4, 2.0, 2.5):
        ref = float(g.stopped_cdf(dist, y))
        got = g.stopped_cdf_general(m, b, 1.0, y)
        assert abs(got - ref) < 1e-6, (y, got, ref)
    # saturates at the boundary started from x0
    assert g.stopped_cdf_general(m, b, 1.0, lam * 1.0) == 1.0
