"""Model plumbing against hand-computed scale-function facts.

Reference numbers used below, all derived by hand from the d=3 scale
L(x) = -1/x: started at 2, the chance of exiting (1, 4) at the top is
(L(2)-L(1))/(L(4)-L(1)) = 2/3, and the expected exit time follows from
the martingale X_t^2 - 3t as (1/3 + 16*2/3 - 4)/3 = 7/3.
"""

import math
import warnings

import numpy as np
import pytest

import goldenstop as g


def test_bessel_scale_closed_forms():
    m3 = g.make_bessel_model(3.0)
    xs = np.array([0.25, 1.0, 2.0, 7.5])
    assert np.array_equal(np.asarray(m3.scale(xs)), -1.0 / xs)
    m5 = g.make_bessel_model(5.0)
    assert np.allclose(m5.scale(xs), -(xs**-3.0), rtol=1e-15, atol=0)
    assert np.allclose(m5.scale_deriv(xs), 3.0 * xs**-4.0, rtol=1e-15, atol=0)
    # speed density m' = 2 / (sigma^2 L')
    assert np.allclose(m5.speed_density(xs), (2.0 / 3.0) * xs**4.0, rtol=1e-15, atol=0)
    assert np.allclose(m5.drift(xs), 2.0 / xs, rtol=1e-15, atol=0)
    assert np.all(np.asarray(m5.volatility(xs)) == 1.0)


def test_bessel_dimension_domain():
    for bad in (2.0, 1.0, 0.0, -3.0, math.nan):
        with pytest.raises(g.DomainError):
            g.make_bessel_model(bad)


def test_scale_inverse_roundtrip():
    for d in (3.0, 4.5, 7.0):
        m = g.make_bessel_model(d)
        xs = np.geomspace(0.01, 100.0, 11)
        back = np.asarray(m.scale_inverse(m.scale(xs)))
        assert np.allclose(back, xs, rtol=1e-13, atol=0)
        with pytest.raises(g.DomainError):
            m.scale_inverse(0.0)
        with pytest.raises(g.DomainError):
            m.scale_inverse(1.0)


def test_hitting_probability_two_thirds():
    m = g.make_bessel_model(3.0)
    p_a, p_b = g.hitting_probabilities(m, 1.0, 2.0, 4.0)
    assert abs(p_b - 2.0 / 3.0) < 1e-14
    assert p_a + p_b == 1.0
    # endpoints are certain
    assert g.hitting_probabilities(m, 1.0, 1.0, 4.0) == (1.0, 0.0)
    assert g.hitting_probabilities(m, 1.0, 4.0, 4.0) == (0.0, 1.0)
    with pytest.raises(g.DomainError):
        g.hitting_probabilities(m, 4.0, 2.0, 1.0)
    with pytest.raises(g.DomainError):
        g.hitting_probabilities(m, 1.0, 9.0, 4.0)


def test_exit_time_green_vs_martingale():
    # dual route: Green-kernel quadrature of E tau against the martingale
    # identity, both pinned to the hand value 7/3
    m = g.make_bessel_model(3.0)
    et = g.expected_exit_integral(m, lambda y: np.ones_like(y), 1.0, 2.0, 4.0)
    p_a, p_b = g.hitting_probabilities(m, 1.0, 2.0, 4.0)
    mart = (p_a * 1.0 + p_b * 16.0 - 4.0) / 3.0
    assert abs(mart - 7.0 / 3.0) < 1e-13
    assert abs(et - mart) < 1e-9


def test_green_function_structure():
    m = g.make_bessel_model(3.0)
    assert g.green_function(m, 1.0, 4.0, 2.0, 3.0) == g.green_function(m, 1.0, 4.0, 3.0, 2.0)
    # vanishes at either absorbing end
    assert abs(g.green_function(m, 1.0, 4.0, 2.0, 1.0)) < 1e-15
    assert abs(g.green_function(m, 1.0, 4.0, 2.0, 4.0)) < 1e-15
    assert g.green_function(m, 1.0, 4.0, 2.0, 2.0) > 0.0


def test_h_curve_bessel_ratios():
    m3 = g.make_bessel_model(3.0)
    m4 = g.make_bessel_model(4.0)
    iis = np.array([0.3, 1.0, 2.5])
    assert np.allclose(g.h_curve(m3, iis), 2.0 * iis, rtol=1e-13, atol=0)
    assert np.allclose(g.h_curve(m4, iis), math.sqrt(2.0) * iis, rtol=1e-13, atol=0)


def test_c_value_sign_structure():
    m = g.make_bessel_model(3.0)
    assert g.c_value(m, 1.0, 1.0) == -1.0
    assert abs(g.c_value(m, 1.0, 2.0)) < 1e-14  # zero exactly on h(i) = 2i
    assert g.c_value(m, 1.0, 10.0) > 0.0
    xs = np.linspace(1.0, 8.0, 40)
    cs = np.asarray(g.c_value(m, 1.0, xs))
    assert np.all(np.diff(cs) > 0.0) and np.all(cs < 1.0)
    with pytest.raises(g.DomainError):
        g.c_value(m, 2.0, 1.0)


def test_scale_multiple_invariance():
    """Rescaling L by a positive constant changes nothing observable."""
    m = g.make_bessel_model(3.0)
    mc = g.model_from_scale(
        m.drift,
        m.volatility,
        scale=lambda x: 5.0 * np.asarray(m.scale(x)),
        scale_deriv=lambda x: 5.0 * np.asarray(m.scale_deriv(x)),
        scale_inverse=lambda v: m.scale_inverse(np.asarray(v) / 5.0),
        label="rescaled",
    )
    iis = np.array([0.4, 1.0, 1.7])
    xs = iis * 1.9
    assert np.allclose(g.c_value(mc, iis, xs), g.c_value(m, iis, xs), rtol=1e-12, atol=0)
    assert np.allclose(g.h_curve(mc, iis), g.h_curve(m, iis), rtol=1e-12, atol=0)
    pa, pb = g.hitting_probabilities(mc, 1.0, 2.0, 4.0)
    assert abs(pb - 2.0 / 3.0) < 1e-12
    rhs_c = g.boundary_ode_rhs(mc, 1.0, 2.7)
    rhs_b = g.boundary_ode_rhs(m, 1.0, 2.7)
    assert abs(rhs_c - rhs_b) < 1e-9


def test_h_curve_needs_inverse():
    m = g.make_bessel_model(3.0)
    no_inv = g.model_from_scale(
        m.drift, m.volatility, m.scale, m.scale_deriv, scale_inverse=None
    )
    with pytest.raises(g.UnsupportedModelError):
        g.h_curve(no_inv, 1.0)


def test_validate_model_flags_bad_scale():
    m = g.make_bessel_model(3.0)
    with pytest.warns(UserWarning):
        g.model_from_scale(
            m.drift,
            m.volatility,
            scale=lambda x: np.asarray(m.scale(x)) + 5.0,  # positive at the top
            scale_deriv=m.scale_deriv,
        )


@pytest.mark.parametrize("d", [2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0])
def test_coefficient_pipeline_matches_closed_form(d):
    """Scale built by integrating mu, sigma agrees with the power law cut
    off at x_max = 1e6, L(x) = -(x^-nu - x_max^-nu)/(1 - x_max^-nu), and
    its derivative, to 1e-7 relative on [1e-3, 1e3]; building it warns not."""
    ref = g.make_bessel_model(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = g.model_from_coefficients(ref.drift, ref.volatility)
    nu, cut = d - 2.0, 1e6 ** (2.0 - d)
    xs = np.geomspace(1e-3, 1e3, 601)
    L_ref = -(xs ** -nu - cut) / (1.0 - cut)
    dL_ref = nu * xs ** (-nu - 1.0) / (1.0 - cut)
    assert np.max(np.abs(np.asarray(m.scale(xs)) / L_ref - 1.0)) < 1e-7
    assert np.max(np.abs(np.asarray(m.scale_deriv(xs)) / dL_ref - 1.0)) < 1e-7
    for v in (-3.0, -1.0, -0.04):
        x_back = float(m.scale_inverse(v))
        assert abs(float(m.scale(x_back)) - v) < 1e-10 * abs(v) + 1e-13
    # observables carry the same accuracy
    pa, pb = g.hitting_probabilities(m, 1.0, 2.0, 4.0)
    pa_ref, pb_ref = g.hitting_probabilities(ref, 1.0, 2.0, 4.0)
    assert abs(pb - pb_ref) < 1e-6


def test_coefficient_scale_is_elementwise():
    """A point's scale value does not depend on the points evaluated with it
    (the engine evaluates whole blocks; a replayed path evaluates one lane)."""
    ref = g.make_bessel_model(3.0)
    m = g.model_from_coefficients(lambda x: 1.0 / x, lambda x: 1.0)
    xs = np.geomspace(0.01, 50.0, 5000)
    np.random.default_rng(0).shuffle(xs)
    for f in (m.scale, m.scale_deriv):
        batch = f(xs)
        assert np.array_equal(batch, [f(float(x)) for x in xs])
        assert np.array_equal(batch, np.concatenate([f(xs[k:k + 7]) for k in range(0, 5000, 7)]))
    # the tail above x_max = 1e6 is cut off: relative error about x / x_max
    assert np.max(np.abs(m.scale(xs) / ref.scale(xs) - 1.0)) < 1e-4


def test_csv_model_loader(tmp_path):
    d = 3.0
    xs = np.geomspace(0.05, 100.0, 400)
    path = tmp_path / "coeffs.csv"
    lines = ["x,mu,sigma"]
    lines += [f"{x:.17g},{(d - 1.0) / (2.0 * x):.17g},1" for x in xs]
    path.write_text("\n".join(lines) + "\n")
    m = g.model_from_csv(path)
    pa, pb = g.hitting_probabilities(m, 1.0, 2.0, 4.0)
    assert abs(pb - 2.0 / 3.0) < 1e-4
    assert m.domain[0] == xs[0] and m.domain[1] == xs[-1]

    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("x,drift,vol\n1,1,1\n2,0.5,1\n3,0.3,1\n4,0.2,1\n")
    with pytest.raises(g.DomainError):
        g.model_from_csv(bad_header)

    not_sorted = tmp_path / "bad2.csv"
    not_sorted.write_text("x,mu,sigma\n1,1,1\n3,0.3,1\n2,0.5,1\n4,0.2,1\n")
    with pytest.raises(g.DomainError):
        g.model_from_csv(not_sorted)

    too_short = tmp_path / "bad3.csv"
    too_short.write_text("x,mu,sigma\n1,1,1\n2,0.5,1\n")
    with pytest.raises(g.DomainError):
        g.model_from_csv(too_short)

    malformed = tmp_path / "bad4.csv"
    malformed.write_text("x,mu,sigma\n1,1,1\n2,0.5\n")
    with pytest.raises(g.DomainError, match=r"malformed row \['2', '0.5'\]"):
        g.model_from_csv(malformed)

    with pytest.raises(g.DomainError, match="cannot read coefficient file"):
        g.model_from_csv(tmp_path / "absent.csv")
