"""Check groups: pass counts, the merged golden-rule pass, grader forms."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp

import goldenstop as g
from goldenstop import cev, checks, simulate
from goldenstop.simulate import BatchResult, MonteCarloEstimate


@pytest.mark.parametrize("seed", [3, 11])
def test_golden_rule_checks_equal_star_then_sweep(seed, monkeypatch):
    passes = []  # rules per engine pass

    def counting(model, x0, rules, *args, **kwargs):
        passes.append(len(rules))
        return simulate.simulate_rules(model, x0, rules, *args, **kwargs)

    monkeypatch.setattr(checks, "simulate_rules", counting)
    kw = dict(n_paths=300, seed=seed, step=1e-2)
    merged = [r.row() for r in checks.golden_rule_checks(**kw)]
    assert passes == [5]
    star = [r.row() for r in checks.golden_rule_star_checks(**kw)]
    assert passes == [5, 1]
    assert [r["name"] for r in merged] == [
        "objective-vs-prediction", "stopped-law-ks", "stopped-mean", "sweep-optimality"]
    assert merged[:3] == star


def test_run_checks_rejects_a_fractional_path_count(monkeypatch):
    # it used to truncate 2.5 to 2 paths and run every group on them
    ran = []
    monkeypatch.setattr(simulate, "_sharded", lambda run, n, n_steps: ran.append(n))
    monkeypatch.setattr(cev, "_sharded", lambda run, n, n_steps: ran.append(n))
    for group in checks.CHECK_GROUPS:
        with pytest.raises(g.DomainError, match="n_paths"):
            checks.run_checks([group], n_paths=2.5, step=1e-2)
    assert ran == []


def test_cev_group_warning_names_its_caller():
    # at horizon 1 some direct paths are still running; the truncation
    # warning names this file, not a module of the package
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        checks.cev_checks(n_paths=64, seed=42, step=1e-2, horizon=1.0)
    assert len(w) == 1 and "hit the horizon" in str(w[0].message)
    assert w[0].filename == __file__


def test_cev_group_rejects_a_horizon_with_no_stops():
    # at horizon 0.05 every path of both routes is truncated: the KS row
    # would grade an empty sample
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(g.DomainError, match=r"horizon=0\.05 stops 0 transformed and 0 direct"):
            checks.cev_checks(n_paths=64, seed=42, step=1e-2, horizon=0.05)


def test_engine_passes_per_check_group(monkeypatch):
    # one Monte Carlo pass per certification group wherever the stream
    # contract makes two passes identical; a split pass shows up here
    calls = []
    original = simulate._sharded

    def counting(run, n_paths, n_steps):
        calls.append(n_paths)
        return original(run, n_paths, n_steps)

    monkeypatch.setattr(simulate, "_sharded", counting)
    monkeypatch.setattr(cev, "_sharded", counting)
    counts = {}
    for group in checks.CHECK_GROUPS:
        calls.clear()
        checks.run_checks([group], n_paths=64, seed=5, step=1e-2)
        counts[group] = len(calls)
    assert counts == {"golden-rule": 1, "future-min": 2, "cev": 2}


@pytest.mark.parametrize("seed", [3, 11])
def test_cev_route_ks_equals_the_transformed_sampler(seed):
    # the drawdown row of the identity pass is the transformed route
    kw = dict(n_paths=300, step=1e-2, horizon=30.0)
    rows = {r.name: r for r in checks.cev_checks(seed=seed, **kw)}
    model = cev.CevModel(3.0, 1.0)
    lam = g.bessel_lambda(3.0)
    # a one-rule drawdown pass from x0 = K^{-1}(1) = 1, read through K
    res = simulate.simulate_rules(g.make_bessel_model(3.0), 1.0, [g.StoppingRule.drawdown_rule(lam)],
                                  seed=seed, bridge=False, **kw)
    za = cev.cev_transform(model, res.x_stop[0, ~res.truncated[0]])
    zb, _ = cev.direct_stopped_samples(model, 1.0, lam, seed=seed + 1_000_003, **kw)
    assert rows["cev-two-route-ks"].value == float(ks_2samp(za, zb).statistic)
    ident = rows["drawdown-step-identity"]
    assert ident.passed and ident.value == 0.0 and "over 300 shared paths" in ident.detail


def test_step_identity_counts_paths_that_differ(monkeypatch):
    # an engine fault that moved only one path's objective in the drawdown
    # row reads one differing path, not a zero max |x_stop difference|
    def nudged(*args, **kwargs):
        res = simulate.simulate_rules(*args, **kwargs)
        res.objective[1, 7] += 1e-9
        return res

    monkeypatch.setattr(checks, "simulate_rules", nudged)
    ident = checks.cev_checks(n_paths=64, seed=3, step=1e-2)[0]
    assert ident.name == "drawdown-step-identity"
    assert ident.value == 1 and not ident.passed


def _stopped_mean_row(x_stop, step):
    res = BatchResult(1, x_stop.size)
    res.x_stop[0] = x_stop
    return next(r for r in checks._grade_star(res, 0, step) if r.name == "stopped-mean")


def test_stopped_mean_grades_the_overshoot_corrected_mean():
    step, n = 1e-3, 50_000
    dist = g.make_stopped_distribution(3.0, g.bessel_lambda(3.0), 1.0)
    exact = g.stopped_quantile(dist, (np.arange(n) + 0.5) / n)
    overshoot = 0.5825971579390107 * math.sqrt(step)
    m0 = g.stopped_mean(dist)  # phi * x0

    row = _stopped_mean_row(exact + overshoot, step)
    assert row.passed and row.value < 1e-4
    assert row.tolerance == pytest.approx(3 * exact.std(ddof=1) / math.sqrt(n) / m0, rel=1e-9)
    # a mean off by 1% of phi * x0 fails, either way from the corrected target
    assert not _stopped_mean_row(exact + overshoot + 0.01 * m0, step).passed
    assert not _stopped_mean_row(exact + overshoot - 0.01 * m0, step).passed
    # the continuous-monitoring mean misses the grid overshoot (1.14% here)
    assert not _stopped_mean_row(exact, step).passed
    # the band never exceeds the flat 1% it replaced
    assert _stopped_mean_row(exact[::250], step).tolerance == 0.01


def _fake_dip(mean, share, se):
    def estimate(model, x0, level, n_paths, seed, step, horizon):
        return MonteCarloEstimate(mean=mean, std_error=se, n_paths=n_paths, seed=seed,
                                  step=step, rule_id="dip", horizon=horizon,
                                  extra={"analytic_share": share, "exit_level": 6.4721,
                                         "exit_fraction": 0.559})
    return estimate


def test_future_min_grades_the_completed_estimate(monkeypatch):
    se, share = 0.0030, 0.088
    # a completed estimate on target passes both rows
    monkeypatch.setattr(checks, "estimate_future_min_prob", _fake_dip(0.5, share, se))
    r3, _ = checks.future_min_checks()
    assert r3.passed and r3.value == pytest.approx(0.0, abs=1e-12)
    assert r3.tolerance == pytest.approx(3 * se + checks._DIP_ALLOWANCE)
    assert "completed estimate 0.5000 (analytic share 0.0880)" in r3.detail
    assert "se 0.003" in r3.detail
    assert "exit level 6.4721 reached by 55.9% of paths" in r3.detail
    # one a whole analytic share too high (the survivors counted twice) fails
    monkeypatch.setattr(checks, "estimate_future_min_prob", _fake_dip(0.5 + share, share, se))
    r3, _ = checks.future_min_checks()
    assert not r3.passed and r3.value == pytest.approx(share)
