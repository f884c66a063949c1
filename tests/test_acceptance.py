"""Acceptance suite: eleven certification criteria, one test each.

Every test prints a single line

    criterion NN PASS|FAIL <what is certified> (<numbers, elapsed vs budget>)

directly to the terminal (bypassing capture) and then asserts.  The heavy
Monte Carlo passes are shared through module-scoped fixtures; the full
wall time of a shared pass is charged against the budget of every
criterion it grades.
"""

import math
import time

import numpy as np
import pytest

import goldenstop as g
from goldenstop.checks import (
    cev_checks,
    future_min_checks,
    golden_rule_checks,
)

GOLD = (1.0 + math.sqrt(5.0)) / 2.0


@pytest.fixture
def report(capsys):
    def _report(num, ok, desc, detail):
        with capsys.disabled():
            print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {desc} ({detail})")
    return _report


@pytest.fixture(scope="module")
def golden_pass():
    t0 = time.perf_counter()
    rows = {r.name: r for r in golden_rule_checks()}
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def future_min_pass():
    t0 = time.perf_counter()
    rows = {r.name: r for r in future_min_checks()}
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cev_pass():
    t0 = time.perf_counter()
    rows = {r.name: r for r in cev_checks()}
    return rows, time.perf_counter() - t0


def test_criterion_01(report):
    t0 = time.perf_counter()
    lam = g.bessel_lambda(3.0)
    resid = abs(float(g.bessel_characteristic(3.0, lam)))
    dt = time.perf_counter() - t0
    dev = abs(lam - (3.0 + math.sqrt(5.0)) / 2.0)
    ok = dev <= 1e-10 and resid <= 1e-9 and dt < 1.0
    report(1, ok, "optimal ratio threshold at d=3 equals (3+sqrt5)/2",
           f"dev={dev:.2e}<=1e-10, residual={resid:.2e}<=1e-9, {dt:.3f}s<1s")
    assert ok


def test_criterion_02(report):
    worst_dev = 0.0
    worst_dt = 0.0
    ok = True
    for d in (2.5, 3.0, 4.0, 5.0, 7.0, 10.0):
        t0 = time.perf_counter()
        lam_newton = g.bessel_lambda(d)
        lam_bisect = g.bessel_lambda_bisect(d)
        dt = time.perf_counter() - t0
        dev = abs(lam_newton - lam_bisect)
        halving = 2.0 ** (1.0 / (d - 2.0))
        ok = ok and dev <= 1e-9 and lam_newton > halving and lam_bisect > halving and dt < 1.0
        worst_dev = max(worst_dev, dev)
        worst_dt = max(worst_dt, dt)
    report(2, ok, "Newton and bisection roots agree and clear the halving level, six dimensions",
           f"max dev={worst_dev:.2e}<=1e-9, max {worst_dt:.3f}s<1s each")
    assert ok


def test_criterion_03(report):
    model = g.make_bessel_model(3.0)
    grid = np.geomspace(0.5, 2.0, 65)
    t0 = time.perf_counter()
    prev = None
    monotone = True
    vals = None
    for start in (0.05, 0.005, 5e-4, 1e-4):
        b = g.shoot_from_h(model, start, 2.0)
        vals = np.asarray(b(grid), dtype=float)
        if prev is not None and np.any(vals < prev * (1.0 - 1e-9)):
            monotone = False
        prev = vals
    dt = time.perf_counter() - t0
    err = float(np.max(np.abs(vals / grid - (1.0 + GOLD))))
    ok = monotone and err <= 1e-2 and dt < 30.0
    report(3, ok, "shot family rises to the straight-ray boundary at d=3",
           f"max|f/i-(1+phi)|={err:.2e}<=1e-2 on [0.5,2], monotone={monotone}, {dt:.1f}s<30s")
    assert ok


def test_criterion_04(report):
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst = 0.0
    for d, n_pts in ((3.0, 20), (5.0, 20), (4.0, 10)):
        model = g.make_bessel_model(d)
        lam = g.bessel_lambda(d)
        b = g.line_boundary(model, lam, 0.05, 40.0, 33)
        for _ in range(n_pts):
            i = float(rng.uniform(0.3, 2.0))
            x = float(rng.uniform(i, 1.3 * lam * i))
            closed = g.bessel_value(d, lam, i, x)
            numeric = g.value_function_numeric(model, b, i, x)
            worst = max(worst, abs(closed - numeric))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 5.0
    report(4, ok, "value quadrature matches the closed form at random points, d in {3,4,5}",
           f"max|closed-quadrature|={worst:.2e}<=1e-8 over 50 points, {dt:.1f}s<5s")
    assert ok


def test_criterion_05(report):
    model = g.make_bessel_model(3.0)
    t0 = time.perf_counter()
    b = g.minimal_boundary(model, 0.5, 2.0)
    pde_max = smooth_max = refl_max = 0.0
    for i in np.geomspace(0.55, 1.9, 5):
        i = float(i)
        f_i = float(b(i))
        sm = rf = 0.0
        for frac in (0.35, 0.7):
            x = i + frac * (f_i - i)
            pde, sm, rf = g.free_boundary_residuals(model, b, i, x)
            pde_max = max(pde_max, abs(pde))
        smooth_max = max(smooth_max, abs(sm))
        refl_max = max(refl_max, abs(rf))
    dt = time.perf_counter() - t0
    ok = pde_max <= 1e-4 and smooth_max <= 1e-5 and refl_max <= 1e-3 and dt < 10.0
    report(5, ok, "free-boundary residuals vanish on the minimal boundary, d=3",
           f"pde={pde_max:.2e}<=1e-4 (10 pts), smooth={smooth_max:.2e}<=1e-5, "
           f"reflection={refl_max:.2e}<=1e-3, {dt:.1f}s<10s")
    assert ok


def test_criterion_06(golden_pass, report):
    rows, dt = golden_pass
    r = rows["objective-vs-prediction"]
    ok = r.passed and dt < 120.0
    report(6, ok, "simulated objective of the optimal rule matches the predicted value",
           f"|dev|={r.value:.3e} tol={r.tolerance:.3e}, pass {dt:.0f}s<120s")
    assert ok


def test_criterion_07(golden_pass, report):
    rows, dt = golden_pass
    r = rows["sweep-optimality"]
    ok = r.passed and dt < 300.0
    report(7, ok, "optimal rule beats every off-optimal threshold, paired CRN",
           f"min z={r.value:.1f}>={r.tolerance:g} pooled SEs, pass {dt:.0f}s<300s")
    assert ok


def test_criterion_08(golden_pass, report):
    rows, dt = golden_pass
    ks = rows["stopped-law-ks"]
    mn = rows["stopped-mean"]
    ok = ks.passed and mn.passed and dt < 120.0
    report(8, ok, "stopped state follows the power law",
           f"KS={ks.value:.4f}<={ks.tolerance:g}, rel mean dev={mn.value:.4f}<={mn.tolerance:g}, "
           f"pass {dt:.0f}s<120s")
    assert ok


def test_criterion_09(future_min_pass, report):
    rows, dt = future_min_pass
    r3 = rows["future-min-d3"]
    r4 = rows["future-min-d4"]
    ok = r3.passed and r4.passed and dt < 120.0
    report(9, ok, "dip probabilities match the scale ratio with truncation accounting",
           f"d3 |dev|={r3.value:.4f}<={r3.tolerance:.4f}, d4 |dev|={r4.value:.4f}<={r4.tolerance:.4f}, "
           f"pass {dt:.0f}s<120s")
    assert ok


def test_criterion_10(report):
    t0 = time.perf_counter()
    rf = g.retracement_fraction()
    lv = g.fibonacci_levels(12)
    dt = time.perf_counter() - t0
    inv_phi = 1.0 / GOLD
    dev_rf = abs(rf - inv_phi)
    dev_fib = abs(lv.golden - inv_phi)
    ok = dev_rf <= 1e-10 and dev_fib <= 1e-3 and dt < 1.0
    report(10, ok, "golden retracement fraction and its Fibonacci approximation",
           f"|retracement-1/phi|={dev_rf:.2e}<=1e-10, |F12/F13-1/phi|={dev_fib:.2e}<=1e-3, "
           f"{dt:.3f}s<1s")
    assert ok


def test_criterion_11(cev_pass, report):
    rows, dt = cev_pass
    ident = rows["drawdown-step-identity"]
    routes = rows["cev-two-route-ks"]
    ok = ident.passed and routes.passed and dt < 120.0
    report(11, ok, "drawdown rule is step-identical at d=3 and the direct price route agrees",
           f"identity deviations={ident.value:g} (exact), two-route KS={routes.value:.4f}"
           f"<={routes.tolerance:g}, pass {dt:.0f}s<120s")
    assert ok
