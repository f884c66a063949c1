"""Price-map tests: transform algebra, golden retracement, dual-route MC.

The fixed-time price oracle used below is the closed-form mean of the
reciprocal of a 3-d Bessel process, E[1/X_T] = erf(x0/sqrt(2T))/x0,
obtained by integrating the reciprocal against the transition density.
"""

import math
import os
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.special import erf, ndtri
from scipy.stats import ks_2samp

import goldenstop as g
from goldenstop import cev as cev_module, simulate
from goldenstop.cli import main

LAM3 = g.bessel_lambda(3.0)
INV_PHI = 2.0 / (1.0 + math.sqrt(5.0))


def test_cev_model_parameters():
    cev = g.CevModel(d=3.0, c_sigma=1.0)
    assert cev.sigma == 1.0 and cev.beta == 1.0
    cev4 = g.CevModel(d=4.0, c_sigma=1.0)
    assert cev4.sigma == 2.0 and cev4.beta == 0.5
    for d, c in ((3.5, 0.7), (6.0, 2.3)):
        cev = g.CevModel(d=d, c_sigma=c)
        nu = d - 2.0
        assert math.isclose(cev.sigma * c ** (1.0 / nu), nu, rel_tol=1e-14)
        assert math.isclose(cev.beta, 1.0 / nu, rel_tol=0.0, abs_tol=0.0)


def test_cev_model_validation():
    for d in (2.0, 1.0, math.nan, math.inf):
        with pytest.raises(g.DomainError):
            g.CevModel(d=d)
    for c in (0.0, -1.0, math.inf):
        with pytest.raises(g.DomainError):
            g.CevModel(d=3.0, c_sigma=c)


def test_transform_roundtrip():
    cev = g.CevModel(d=5.0, c_sigma=1.7)
    x = np.geomspace(0.05, 20.0, 40)
    z = g.cev_transform(cev, x)
    assert np.all(np.diff(z) < 0.0)  # strictly decreasing price map
    back = g.cev_inverse_transform(cev, z)
    assert np.max(np.abs(back / x - 1.0)) < 1e-12
    assert isinstance(g.cev_transform(cev, 1.3), float)
    with pytest.raises(g.DomainError):
        g.cev_transform(cev, 0.0)
    with pytest.raises(g.DomainError):
        g.cev_inverse_transform(cev, -2.0)


def test_rule_threshold():
    # d = 3 passes the root through untouched
    assert g.cev_rule_threshold(g.CevModel(d=3.0)) == LAM3
    thr5 = g.cev_rule_threshold(g.CevModel(d=5.0))
    assert thr5 == g.bessel_lambda(5.0) ** 3.0
    assert abs(thr5 - g.bessel_lambda_bisect(5.0) ** 3.0) < 1e-8
    # the root exceeds the median-halving level, so the threshold tops 2
    for d in (2.5, 3.0, 4.5, 7.0, 10.0):
        assert g.cev_rule_threshold(g.CevModel(d=d)) > 2.0


def test_retracement_is_golden():
    rf = g.retracement_fraction()
    assert abs(rf - INV_PHI) < 1e-10
    assert abs(rf - (g.GOLDEN_RATIO - 1.0)) < 1e-12
    assert abs(rf - (1.0 - 1.0 / (1.0 + g.GOLDEN_RATIO))) < 1e-12


def test_fibonacci_levels_exact_values():
    lv = g.fibonacci_levels(12)
    assert lv.shallow == 144 / 610
    assert lv.moderate == 144 / 377
    assert lv.golden == 144 / 233
    assert abs(lv.golden - INV_PHI) < 1e-3
    with pytest.raises(g.DomainError):
        g.fibonacci_levels(1)
    with pytest.raises(g.DomainError):
        g.fibonacci_levels(0)
    for bad in (2.7, 12.0, np.float64(12)):
        with pytest.raises(g.DomainError, match="integer n"):
            g.fibonacci_levels(bad)
    assert g.fibonacci_levels(np.int64(12)) == lv


def test_direct_sampler_path_count_must_be_an_integer():
    cev = g.CevModel(d=3.0, c_sigma=1.0)
    kw = dict(seed=21, step=1e-2, horizon=30.0)
    with pytest.raises(g.DomainError, match="n_paths"):
        g.direct_stopped_samples(cev, 1.0, 2.0, n_paths=2.5, **kw)
    ref = g.direct_stopped_samples(cev, 1.0, 2.0, n_paths=8, **kw)
    got = g.direct_stopped_samples(cev, 1.0, 2.0, n_paths=np.int64(8), **kw)
    assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]


def test_fibonacci_levels_alternate_and_converge():
    limits = (INV_PHI ** 3, INV_PHI ** 2, INV_PHI)
    prev = None
    for n in range(2, 21):
        lv = g.fibonacci_levels(n)
        errs = [lv[j] - limits[j] for j in range(3)]
        if prev is not None:
            for j in range(3):
                assert errs[j] * prev[j] < 0.0  # alternating sides
                assert abs(errs[j]) < abs(prev[j])
        prev = errs
    deep = g.fibonacci_levels(90)
    assert abs(deep.golden - INV_PHI) < 1e-15


def test_cev_objective_equals_source_estimate():
    """The price-side sweep is the source estimate: `goldenstop cev` at
    c_sigma = 2, z0 = 0.5 starts the Bessel paths at x0 = K^{-1}(0.5) = 4,
    where the drawdown trigger at kappa = 3 is the ratio rule at 3, and
    prints its mean and se bit for bit.  The horizon truncates ~10% of the
    paths, which both the estimator and the command report."""
    with pytest.warns(UserWarning, match="horizon-biased"):
        ref = g.compare_rules(g.make_bessel_model(3.0), 4.0, [g.StoppingRule.ratio_rule(3.0)],
                              n_paths=300, seed=17, step=1e-3, horizon=30.0).estimates[0]
    assert ref.truncated_fraction > 0.0
    with pytest.warns(UserWarning, match="horizon-biased"):
        res = CliRunner().invoke(main, [
            "--seed", "17", "cev", "--c-sigma", "2", "--z0", "0.5", "--kappa", "3",
            "--n-paths", "300", "--step", "1e-3", "--horizon", "30"])
    assert res.exit_code == 0
    assert res.output.splitlines() == [
        "kappa,mean,std_error", f"3,{ref.mean:.17g},{ref.std_error:.17g}"]


def test_martingale_defect_table():
    cev = g.CevModel(d=3.0, c_sigma=1.0)
    rows = g.martingale_defect_table(cev, 1.0, [2.0, 0.5, 1.0],
                                     n_paths=2000, seed=42, step=1e-3)
    assert [r["horizon"] for r in rows] == [0.5, 1.0, 2.0]
    means = [r["mean_price"] for r in rows]
    assert means[0] > means[1] > means[2]  # the bubble deflates
    assert all(m < 1.0 for m in means)
    for r in rows:
        oracle = erf(1.0 / math.sqrt(2.0 * r["horizon"]))
        assert abs(r["mean_price"] - oracle) <= 4.0 * r["std_error"] + 0.005
    with pytest.raises(g.DomainError):
        g.martingale_defect_table(cev, 1.0, [])
    with pytest.raises(g.DomainError):
        g.martingale_defect_table(cev, 1.0, [0.0, 1.0])


def test_direct_sampler_deterministic_and_validated():
    cev = g.CevModel(d=3.0, c_sigma=1.0)
    za, na = g.direct_stopped_samples(cev, 1.0, LAM3, n_paths=500, seed=9, step=1e-3)
    zb, nb = g.direct_stopped_samples(cev, 1.0, LAM3, n_paths=500, seed=9, step=1e-3)
    assert np.array_equal(za, zb) and na == nb
    with pytest.raises(g.DomainError):
        g.direct_stopped_samples(cev, 0.0, 2.0, n_paths=10)
    with pytest.raises(g.DomainError):
        g.direct_stopped_samples(cev, 1.0, 1.0, n_paths=10)
    # kappa = inf never triggers: every path would run to the horizon
    with pytest.raises(g.DomainError, match="kappa"):
        g.direct_stopped_samples(cev, 1.0, math.inf, n_paths=64, step=1e-2, horizon=1.0)
    with pytest.raises(g.DomainError):
        g.direct_stopped_samples(cev, 1.0, 2.0, n_paths=0)


def replay_direct_path(cev, z0, kappa, seed, index, step, horizon):
    """Re-derive one direct-Euler price path, scalar arithmetic only.

    Follows the documented stream layout: Philox key [seed, 2k], two
    uniforms per step, the first mapped to a normal, the second unused.
    Returns (stopped price, truncated).
    """
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 2 * index], dtype=np.uint64)))
    n_max = int(math.ceil(horizon / step - 1e-9))
    sqdt = math.sqrt(step)
    z = s = float(z0)
    for _ in range(n_max):
        w = float(ndtri(np.maximum(np.float64(gen.random()), 2.0 ** -53)))
        gen.random()
        zp = float((np.array([z]) ** (1.0 + cev.beta))[0])  # the vector pow
        z = max(z + cev.sigma * zp * sqdt * w, 1e-10)
        s = max(s, z)
        if s >= kappa * z:
            return z, False
    return z, True


@pytest.mark.parametrize("d, horizon", [(3.0, 30.0), (3.0, 0.3), (4.0, 0.3)])
def test_direct_sampler_replay_oracle(d, horizon):
    """The direct route reproduces the scalar replay bit for bit, and a
    short horizon truncates some paths."""
    cev = g.CevModel(d=d, c_sigma=1.0)
    kappa, n, seed, step = 2.0, 12, 21, 1e-2
    short = horizon < 1.0
    with pytest.warns(UserWarning, match="hit the horizon") if short else nullcontext():
        z, n_trunc = g.direct_stopped_samples(cev, 1.0, kappa, n_paths=n, seed=seed,
                                              step=step, horizon=horizon)
    paths = [replay_direct_path(cev, 1.0, kappa, seed, k, step, horizon) for k in range(n)]
    assert n_trunc == sum(t for _, t in paths)
    assert np.array_equal(z, np.sort([v for v, t in paths if not t]))
    if short:
        assert 0 < n_trunc < n


def test_two_route_agreement_reduced_scale():
    """Transformed-Bessel and direct-Euler stopped prices agree in law.  The
    transformed route is a drawdown pass of the source from x0 = K^{-1}(1)
    = 1 read through K."""
    cev = g.CevModel(d=3.0, c_sigma=1.0)
    res = g.simulate_rules(g.make_bessel_model(3.0), 1.0, [g.StoppingRule.drawdown_rule(LAM3)],
                           2000, seed=42, step=1e-3, horizon=30.0, bridge=False)
    za = g.cev_transform(cev, res.x_stop[0])
    zb, nb = g.direct_stopped_samples(cev, 1.0, LAM3, n_paths=2000,
                                      seed=1_000_045, step=1e-3)
    assert not res.truncated.any() and nb == 0
    assert ks_2samp(za, zb).statistic < 0.06


def test_direct_sampler_checks_its_seed_before_forking(monkeypatch):
    def forked(run, n_paths):
        raise AssertionError("the pass was sharded before its seed was checked")

    monkeypatch.setattr(cev_module, "_sharded", forked)
    with pytest.raises(g.DomainError, match="seed must lie in"):
        g.direct_stopped_samples(g.CevModel(3.0), 1.0, 2.0, n_paths=4096, seed=-1)


def test_direct_sampler_sharded_equals_serial(monkeypatch):
    monkeypatch.setattr(simulate, "_MIN_SHARD_PATHS", 16)
    cev = g.CevModel(d=3.0, c_sigma=1.0)
    out = []
    for cpus in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        with pytest.warns(UserWarning, match="hit the horizon"):
            out.append(g.direct_stopped_samples(cev, 1.0, 2.0, n_paths=50, seed=21,
                                                step=1e-2, horizon=0.3))
    (za, na), (zb, nb) = out
    assert np.array_equal(za, zb) and na == nb and 0 < na < 50


def test_direct_sampler_excludes_exploded_prices():
    """At this seed the Euler price of path 3664 overflows at t = 0.288 (it
    used to enter the sample as +inf); it is excluded, with a warning that
    names it, and numpy stays quiet."""
    cev = g.CevModel(d=3.0, c_sigma=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        z, n_trunc = g.direct_stopped_samples(cev, 1.0, LAM3, n_paths=3665,
                                              seed=4_295_967_300, step=1e-3, horizon=30.0)
    assert [w.category for w in caught] == [UserWarning]
    msg = str(caught[0].message)
    assert "excluding 1 " in msg and "path 3664 at t=0.288" in msg and "reduce step" in msg
    assert n_trunc == 0 and z.size == 3664 and np.all(np.isfinite(z))
