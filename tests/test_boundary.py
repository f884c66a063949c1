"""Shooting construction, value quadrature and residual diagnostics.

The d=3 slope field has the closed form (f - i)/(f - 2i), derived by hand
from the scale function L(x) = -1/x (the inner integral reduces to
-(f - i)^2 / i); it serves as the independent route for the quadrature
right-hand side.  On the ray f = lam * i the field must reproduce the
slope lam for every dimension, which ties the shooting machinery to the
root finder without sharing any code path.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import goldenstop as g
from goldenstop import boundary as gb


def _m3():
    return g.make_bessel_model(3.0)


def test_rhs_closed_form_d3():
    m = _m3()
    for i, f in ((1.0, 2.7), (0.5, 1.6), (2.0, 5.9)):
        assert abs(g.boundary_ode_rhs(m, i, f) - (f - i) / (f - 2.0 * i)) < 1e-9


def test_rhs_ray_self_consistency():
    for d in (3.0, 5.0, 7.0):
        m = g.make_bessel_model(d)
        lam = g.bessel_lambda(d)
        for i in (0.5, 1.0, 2.0):
            assert abs(g.boundary_ode_rhs(m, i, lam * i) - lam) < 1e-8, (d, i)


@pytest.mark.parametrize("d", [2.5, 3.0, 4.0 - 1e-9, 4.0, 4.0 + 1e-9, 5.0, 7.0, 10.0])
def test_closed_form_inner_integral_matches_quadrature(d):
    # J(i, f) from the Bessel scale moments against quad of its integrand,
    # written out from L(y) = -y^-nu, from just above h(i) to f = 50 i
    m, nu = g.make_bessel_model(d), d - 2.0
    for i in (0.3, 1.0):
        li, lpi = -(i**-nu), nu * i ** (-nu - 1.0)

        def integrand(y):
            ly = -(y**-nu)
            return 2.0 * ly * lpi / li**2 * (ly - li) / (nu * y ** (-nu - 1.0))

        for r in np.geomspace(2.0 ** (1.0 / nu) * (1.0 + 1e-6), 50.0, 9):
            ref, _ = quad(integrand, i, r * i, epsabs=0.0, epsrel=1e-13, limit=200)
            got = gb._rhs_terms(m, i, r * i)[3]
            assert abs(got - ref) <= 1e-12 * abs(ref), (d, i, r, got, ref)


def test_rhs_quadrature_path_matches_scale_moments():
    # the same Bessel scale without scale moments takes the quadrature path
    m = _m3()
    copy = g.model_from_scale(m.drift, m.volatility, m.scale, m.scale_deriv, m.scale_inverse)
    assert m.scale_moments is not None and copy.scale_moments is None
    for i, f in ((1.0, 2.0001), (1.0, 2.7), (0.5, 1.6), (2.0, 5.9), (0.1, 3.0)):
        ref = g.boundary_ode_rhs(m, i, f)
        assert abs(g.boundary_ode_rhs(copy, i, f) - ref) <= 1e-10 * abs(ref), (i, f)


@pytest.mark.parametrize("d", [2.5, 3.0, 4.0, 10.0])
def test_scale_moments_keep_the_shooting_expressions(d):
    # dM_1 and dM_2, which every shot reads, are the expressions the shooting
    # side has always used, bit for bit; dM_0 is the power-law integral
    m, nu, k = g.make_bessel_model(d), d - 2.0, 4.0 - d
    rng = np.random.default_rng(7)
    for a in rng.uniform(0.01, 5.0, 50):
        b = a * float(rng.uniform(1.0 + 1e-9, 60.0))
        t = math.log(b / a)
        dm0, dm1, dm2 = m.scale_moments(a, b)
        assert dm1 == -(b * b - a * a) / nu
        assert dm2 == 2.0 / nu * a**k * (t if k == 0.0 else np.expm1(k * t) / k)
        assert math.isclose(dm0, 2.0 * (b**d - a**d) / (nu * d), rel_tol=1e-12)
    # past the doubles dM_0 is inf and the shooting moments stay finite
    dm0, dm1, dm2 = g.make_bessel_model(3.0).scale_moments(1e103, 4e103)
    assert dm0 == math.inf and math.isfinite(dm1) and math.isfinite(dm2)


def test_rhs_singular_on_sign_curve():
    m = _m3()
    with pytest.raises(g.SingularPointError):
        g.boundary_ode_rhs(m, 1.0, 2.0)  # f = h(i) exactly
    with pytest.raises(g.DomainError):
        g.boundary_ode_rhs(m, 1.0, 0.9)
    with pytest.raises(g.DomainError):
        g.boundary_ode_rhs(m, -1.0, 2.0)


def test_shot_approaches_ray():
    m = _m3()
    lam = g.bessel_lambda(3.0)
    b = g.shoot_from_h(m, 0.01, 2.0)
    for i in (0.5, 1.0, 2.0):
        assert abs(b(i) / i - lam) < 1e-6, i


@pytest.mark.parametrize("i_max", [1.004, 1.05, 3.0])
def test_shot_start_phase_matches_d3_closed_form(i_max):
    # u = f/i solves i u' = -(u - a)(u - b)/(u - 2) with a, b = phi^2, phi^-2,
    # so the shot from f(1) = h(1) = 2 satisfies
    #   ln i = -A ln((u - a)/(2 - a)) - B ln((u - b)/(2 - b)).
    # The grids cover the singular start closely (1.004), the turn toward
    # the ray (1.05) and the approach to the ray (3.0)
    a, b = (3.0 + math.sqrt(5.0)) / 2.0, (3.0 - math.sqrt(5.0)) / 2.0
    A, B = (a - 2.0) / (a - b), (b - 2.0) / (b - a)

    def log_i(u):
        return -A * math.log((u - a) / (2.0 - a)) - B * math.log((u - b) / (2.0 - b))

    shot = g.shoot_from_h(_m3(), 1.0, i_max, n_grid=16)
    exact = np.array([i * brentq(lambda u: log_i(u) - math.log(i), 2.0, a - 1e-9, xtol=1e-15)
                      for i in shot.i_grid])
    assert np.max(np.abs(shot.f_grid / exact - 1.0)) < 1e-7


def test_shot_family_monotone():
    m = _m3()
    nodes = np.linspace(0.5, 2.0, 9)
    prev = None
    for start in (0.05, 0.005, 5e-4):
        b = g.shoot_from_h(m, start, 2.0)
        vals = np.array([b(i) for i in nodes])
        if prev is not None:
            assert np.all(vals >= prev * (1.0 - 1e-9))
        prev = vals


def test_minimal_boundary_recovers_ray():
    m = _m3()
    lam = g.bessel_lambda(3.0)
    b = g.minimal_boundary(m, 0.5, 2.0)
    assert "converged=True" in b.provenance
    assert b.i_grid[0] <= 0.5 + 1e-12 and b.i_grid[-1] >= 2.0 - 1e-12
    ratios = b.f_grid / b.i_grid
    assert np.max(np.abs(ratios - lam)) < 1e-9
    # h column carries the sign curve
    assert np.allclose(b.h_grid, 2.0 * b.i_grid, rtol=1e-12, atol=0)


def test_minimal_boundary_records_its_shots():
    b = g.minimal_boundary(_m3(), 0.5, 2.0)
    assert b.provenance == f"minimal-limit(n_shots={len(b.shots)}, converged=True)"
    assert len(b.shots) >= 2
    assert [s.start for s in b.shots] == [0.5 * 10.0**-k for k in range(1, len(b.shots) + 1)]
    assert all(s.nfev > 0 for s in b.shots)
    assert b.shots[0].rel_gap is None
    assert all(s.rel_gap >= gb.SHOT_REL_TOL for s in b.shots[1:-1])
    assert b.shots[-1].rel_gap < gb.SHOT_REL_TOL
    (one,) = g.shoot_from_h(_m3(), 0.01, 2.0).shots
    assert one.start == 0.01 and one.nfev > 0 and one.rel_gap is None
    assert g.line_boundary(_m3(), 2.6, 0.5, 2.0).shots == ()


def test_coefficient_minimal_boundary_converges_at_d8():
    # successive shots agree to ~2e-9 but the deeper one sits a noise-level
    # drop below its predecessor somewhere: that is convergence, not a
    # broken family
    m8 = g.make_bessel_model(8.0)
    b = g.minimal_boundary(g.model_from_coefficients(m8.drift, m8.volatility), 0.5, 2.0)
    assert "converged=True" in b.provenance
    assert np.max(np.abs(b.f_grid - g.bessel_lambda(8.0) * b.i_grid)) < 1e-6


def test_first_divergent_shot_ends_the_family(monkeypatch):
    calls = []
    # wrap the installed solver, so a session-wide wrapper still sees the solve
    solve_ivp = gb.solve_ivp

    def counting_solve_ivp(*args, **kwargs):
        calls.append(1)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(gb, "solve_ivp", counting_solve_ivp)
    monkeypatch.setattr(gb, "DIVERGENCE_FACTOR", 1.2)
    with pytest.raises(g.NoMinimalSolutionError, match=r"shot from i=0\.05 diverged at i=") as info:
        g.minimal_boundary(_m3(), 0.5, 2.0)
    # the first shot's one solve, no further shot
    assert len(calls) == 1
    cause = info.value.__cause__
    assert isinstance(cause, g.DivergenceError)
    assert info.value.blow_up_points == [cause.blow_up_at]
    assert 0.05 < cause.blow_up_at < 0.5


def test_shot_reads_its_verdicts_from_one_pass():
    """A shot evaluates h(i) = L^-1(L(i)/2) a fixed number of times (its
    grid, start, end and one pass over the accepted steps), not once per
    step."""
    m = _m3()
    calls = []

    def counting_inverse(v):
        calls.append(1)
        return m.scale_inverse(v)

    b = g.shoot_from_h(dataclasses.replace(m, scale_inverse=counting_inverse), 0.01, 2.0)
    assert b.shots[0].nfev > 100
    assert len(calls) <= 4


def test_minimal_boundary_warns_when_not_converged():
    with pytest.warns(UserWarning, match="not converged"):
        b = g.minimal_boundary(_m3(), 0.5, 2.0, n_shots=1)
    assert b.provenance == "minimal-limit(n_shots=1, converged=False)"


def test_shot_family_that_drops_raises(monkeypatch):
    shot = gb._shot
    starts = []

    def dropping_shot(model, start, i_max, nodes):
        fg, nfev = shot(model, start, i_max, nodes)
        starts.append(start)
        # the second shot lies 1e-3 (relative) below the first
        return (fg * (1.0 - 1e-3), nfev) if len(starts) == 2 else (fg, nfev)

    monkeypatch.setattr(gb, "_shot", dropping_shot)
    with pytest.raises(g.ConsistencyError, match=r"not monotone .*\(start i=0\.005\)"):
        g.minimal_boundary(_m3(), 0.5, 2.0)
    assert starts == [0.05, 0.005]


def test_minimal_boundary_start_validation():
    m = _m3()
    with pytest.raises(g.DomainError, match="n_shots"):
        g.minimal_boundary(m, 0.5, 2.0, n_shots=0)


def test_line_boundary_exact_ray():
    m = _m3()
    lam = g.bessel_lambda(3.0)
    b = g.line_boundary(m, lam, 0.5, 2.0)
    assert b.ratio == lam
    for i in (0.37, 1.0, 3.1):  # including extrapolation
        assert b(i) == lam * i
        assert math.isclose(b.inverse(lam * i), i, rel_tol=1e-15)
    with pytest.raises(g.DomainError):
        g.line_boundary(m, 0.99, 0.5, 2.0)


@pytest.mark.parametrize("n_grid", [16, 129])
def test_inverse_inverts_the_evaluated_curve(n_grid):
    # one interpolant: the inverse of a curved boundary is the root of the
    # cubic that evaluation uses (a second, inverse interpolant was off by
    # 1.3e-2 at 16 nodes and 8.0e-3 at 129), at the nodes and between them
    b = g.shoot_from_h(_m3(), 0.5, 2.0, n_grid=n_grid)
    ys = np.concatenate([b.f_grid, np.linspace(b.f_grid[0], b.f_grid[-1], 257)])
    back = np.array([b(b.inverse(y)) for y in ys])
    assert np.max(np.abs(back - ys) / ys) <= 1e-14
    assert np.array_equal(b(b.inverse(ys)), back)
    # the range check admits 1e-12 of slack; it maps to the grid ends
    assert b.inverse(b.f_grid[-1] * (1 + 1e-13)) == b.i_grid[-1]
    assert b.inverse(b.f_grid[0] * (1 - 1e-13)) == b.i_grid[0]
    with pytest.raises(g.DomainError, match="outside boundary value range"):
        b.inverse(b.f_grid[-1] * 1.01)


def test_value_quadrature_vs_closed_form():
    for d in (3.0, 5.0):
        m = g.make_bessel_model(d)
        lam = g.bessel_lambda(d)
        b = g.line_boundary(m, lam, 0.1, 8.0)
        for i, x in ((1.0, 1.0), (0.7, 1.1), (1.5, 2.8)):
            ref = g.bessel_value(d, lam, i, x)
            got = g.value_function_numeric(m, b, i, x)
            assert abs(got - ref) < 1e-9, (d, i, x)
    with pytest.raises(g.DomainError):
        g.value_function_numeric(_m3(), g.line_boundary(_m3(), 2.6, 0.1, 8.0), 1.5, 1.0)


def test_non_finite_quadrature_raises():
    # a model whose speed density breaks down must not yield a nan value
    m = _m3()
    broken = dataclasses.replace(m, speed_density=lambda y: math.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad's IntegrationWarning on the nan integrand
        with pytest.raises(g.NumericalError, match="did not converge"):
            g.value_function_numeric(broken, g.line_boundary(m, 2.6, 0.1, 8.0), 1.0, 1.5)


def test_residuals_small_on_minimal_boundary():
    m = _m3()
    b = g.minimal_boundary(m, 0.5, 2.0)
    for i, x in ((0.8, 1.2), (1.0, 1.5), (1.6, 2.4)):
        pde, smooth, reflect = g.free_boundary_residuals(m, b, i, x)
        assert abs(pde) < 1e-8, (i, x, pde)
        assert abs(smooth) < 1e-5, (i, smooth)
        assert abs(reflect) < 1e-3, (i, reflect)


@pytest.mark.parametrize("lam", [2.2, 2.4])
def test_only_reflection_tells_a_wrong_ray(lam):
    # the value formula solves the interior equation and fits smoothly for
    # every boundary, so pde and smooth_fit stay within their bounds on a
    # non-optimal ray (criterion 05's ten points); only reflection fails
    m = _m3()
    b = g.line_boundary(m, lam, 0.5, 2.0)
    for i in np.geomspace(0.55, 1.9, 5):
        i = float(i)
        for frac in (0.35, 0.7):
            pde, smooth, reflect = g.free_boundary_residuals(m, b, i, i + frac * (b(i) - i))
            assert abs(pde) < 1e-8 and abs(smooth) < 1e-5, (i, frac, pde, smooth)
            assert abs(reflect) >= 0.5, (i, reflect)


@pytest.fixture(scope="module", params=[(d, r) for d in (2.5, 3.0, 4.0, 5.0, 7.0, 10.0) for r in (1.0, 1.1)]
                + [(3.0, None), (5.0, None)], ids=lambda p: f"d{p[0]:g}-" + ("minimal" if p[1] is None else f"ray{p[1]:g}"))
def model_and_boundary(request):
    """A Bessel model with its ray at ratio * lam(d), or its minimal boundary (ratio None)."""
    d, ratio = request.param
    m = g.make_bessel_model(d)
    if ratio is None:
        return m, g.minimal_boundary(m, 0.5, 2.0)
    return m, g.line_boundary(m, ratio * g.bessel_lambda(d), 0.5, 2.0)


def test_moment_value_matches_quadrature(model_and_boundary):
    # V_f(i, x) from the scale moments, the route of the residuals, against
    # quad of the value formula's integrand written out from L(y) = -y^-nu
    # and m'(y) = (2/nu) y^(d-1); d = 4 takes expm1_over's k = 0 branch
    m, b = model_and_boundary
    d, nu = m.dim, m.dim - 2.0
    for i in np.geomspace(0.55, 1.9, 5):
        i, f_i = float(i), float(b(i))
        for frac in (0.0, 0.35, 0.7, 0.999):
            x = i + frac * (f_i - i)

            def integrand(y):
                return (1.0 - 2.0 * (y / i) ** -nu) * (x**-nu - y**-nu) * 2.0 / nu * y ** (d - 1.0)

            ref = -quad(integrand, x, f_i, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            got = gb._moment_value(m, float(m.scale(i)), f_i, x)
            assert abs(got - ref) <= 1e-12, (i, frac, got, ref)


def test_residual_routes_agree(model_and_boundary):
    # the same Bessel scale without scale moments takes the quadrature route
    # of the value formula; pde is stencil error away from d = 3 (up to 5e-5
    # at d = 10 here) on both routes
    m, b = model_and_boundary
    copy = g.model_from_scale(m.drift, m.volatility, m.scale, m.scale_deriv, m.scale_inverse)
    assert copy.scale_moments is None
    for i in (0.6, 1.8):
        x = i + 0.5 * (float(b(i)) - i)
        pde, smooth, reflect = g.free_boundary_residuals(m, b, i, x)
        q_pde, q_smooth, q_reflect = g.free_boundary_residuals(copy, b, i, x)
        assert abs(pde - q_pde) <= 1e-8, (i, pde, q_pde)
        assert abs(smooth - q_smooth) <= 1e-9, (i, smooth, q_smooth)
        assert abs(reflect - q_reflect) <= 1e-9, (i, reflect, q_reflect)


def test_residuals_guard_near_origin():
    m = _m3()
    b = g.line_boundary(m, g.bessel_lambda(3.0), 1e-5, 1.0)
    with pytest.raises(g.DomainError):
        g.free_boundary_residuals(m, b, 1e-4, 2e-4)
    # the smooth-fit stencil reaches f(i) - 2 delta: near the origin a flat
    # ray (lam(10) = 1.16) runs out of room there before i does
    m10 = g.make_bessel_model(10.0)
    b10 = g.line_boundary(m10, g.bessel_lambda(10.0), 1e-3, 1.0)
    with pytest.raises(g.DomainError, match=r"f\(i\) > 0\.002004"):
        g.free_boundary_residuals(m10, b10, 0.0015, 0.0015)
    assert all(map(math.isfinite, g.free_boundary_residuals(m, b, 0.0015, 0.0015)))


def test_boundary_validation():
    with pytest.raises(g.DomainError):
        g.Boundary(
            i_grid=np.array([1.0, 0.9, 1.2, 1.5]),
            f_grid=np.array([2.6, 2.7, 3.1, 3.9]),
            h_grid=np.array([2.0, 1.8, 2.4, 3.0]),
            provenance="test",
        )
    with pytest.raises(g.DomainError):  # f below the sign curve
        g.Boundary(
            i_grid=np.array([1.0, 1.1, 1.2, 1.3]),
            f_grid=np.array([1.5, 1.6, 1.7, 1.8]),
            h_grid=np.array([2.0, 2.2, 2.4, 2.6]),
            provenance="test",
        )
    with pytest.raises(g.DomainError):  # too few nodes
        g.Boundary(
            i_grid=np.array([1.0, 1.1]),
            f_grid=np.array([2.6, 2.9]),
            h_grid=np.array([2.0, 2.2]),
            provenance="test",
        )


def test_boundary_csv_roundtrip(tmp_path):
    m = _m3()
    b = g.minimal_boundary(m, 0.5, 2.0)
    path = tmp_path / "boundary.csv"
    g.boundary_to_csv(b, path)
    header = path.read_text().splitlines()[0]
    assert header == "i,f,h"
    back = g.boundary_from_csv(path)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(back.i_grid, b.i_grid)
    assert np.array_equal(back.f_grid, b.f_grid)
    assert np.array_equal(back.h_grid, b.h_grid)
    assert back.provenance == "imported"
    # interior evaluation agrees through the rebuilt interpolant
    for i in (0.6, 1.3, 1.9):
        assert abs(back(i) - b(i)) < 1e-12


def test_boundary_csv_h_reconstruction(tmp_path):
    m = _m3()
    b = g.line_boundary(m, g.bessel_lambda(3.0), 0.5, 2.0, 9)
    path = tmp_path / "fi.csv"
    rows = ["i,f"] + [f"{i:.17g},{f:.17g}" for i, f in zip(b.i_grid, b.f_grid)]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(g.DomainError):
        g.boundary_from_csv(path)  # h missing, no model to rebuild it
    back = g.boundary_from_csv(path, model=m)
    assert np.allclose(back.h_grid, 2.0 * back.i_grid, rtol=1e-12, atol=0)


def test_custom_boundary_shot_stays_in_domain():
    """The shot's right-hand side rejects trial stages below i = 0 itself
    instead of evaluating the numeric scale at a negative abscissa."""
    m3 = _m3()
    m = g.model_from_coefficients(m3.drift, m3.volatility)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        b = g.minimal_boundary(m, 0.5, 2.0)
    assert np.max(np.abs(b.f_grid / (g.bessel_lambda(3.0) * b.i_grid) - 1.0)) < 1e-2
