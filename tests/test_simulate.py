"""Engine tests built around a scalar replay oracle.

The oracle re-derives whole paths step by step in pure Python from the
documented stream layout (Philox key [seed, 2k] for uniforms, [seed, 2k+1]
for gammas, two uniforms per step) and must reproduce the vectorised
engine bit for bit.  Statistical tests at reduced scale back up the
full-size runs exercised by the acceptance suite.
"""

import functools
import math
import os
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gammaincinv, ndtri
from scipy.stats import kstest

import goldenstop as g
from goldenstop import simulate
from goldenstop.simulate import _DipProbe, _first_true, _shards, simulate_rules

_U_FLOOR = 2.0 ** -53
LAM3 = g.bessel_lambda(3.0)


def _stopped_sample(model, rule, **kw):
    """Sorted stopped states x_stop, from x0 = 1, of the paths the rule stopped."""
    res = simulate_rules(model, 1.0, [rule], **kw)
    return np.sort(res.x_stop[0, ~res.truncated[0]])


def replay_ratio_path(d, x0, lam, seed, index, step, horizon, scheme, bridge):
    """Re-derive one engine path under a ratio rule, scalar arithmetic only.

    Returns the recorded fields plus the number of gamma draws consumed,
    so tests can confirm the origin guard actually fired.
    """
    gen_u = np.random.Generator(np.random.Philox(key=np.array([seed, 2 * index], dtype=np.uint64)))
    gen_g = np.random.Generator(np.random.Philox(key=np.array([seed, 2 * index + 1], dtype=np.uint64)))
    n_max = int(math.ceil(horizon / step - 1e-9))
    sqdt = math.sqrt(step)
    nu = d - 2.0
    drift_num = (d - 1.0) / 2.0
    gshape = (d - 1.0) / 2.0

    def gamma_inverse(gu):
        # gamma(1) is the exponential, so at d = 3 its inverse is -log1p(-u)
        return -np.log1p(-gu) if gshape == 1.0 else gammaincinv(np.float64(gshape), gu)

    x_guard = max(4.0 * math.sqrt((d - 1.0) * step), 8.5 * math.sqrt(step))
    X = float(x0)
    I = float(x0)
    obj = 0.0
    cprev = -1.0
    theta = 0
    n_gamma = 0

    def pack(k, truncated):
        return dict(stop_step=k, x_stop=X, i_stop=I, objective=obj,
                    theta_step=theta, truncated=truncated, n_gamma=n_gamma)

    if X >= lam * I:
        return pack(0, False)
    for k_next in range(1, n_max + 1):
        u1 = gen_u.random()
        u2 = gen_u.random()
        z = float(ndtri(np.maximum(np.float64(u1), _U_FLOOR)))
        bu = float(np.maximum(np.float64(u2), _U_FLOOR))
        a = X
        if scheme == "exact":
            gu = np.maximum(np.float64(gen_g.random()), _U_FLOOR)
            gam = 2.0 * float(gamma_inverse(gu))
            n_gamma += 1
            t = a + sqdt * z
            xn = float(np.sqrt(np.float64(t * t + step * gam)))
        else:
            if a < x_guard:
                gu = np.maximum(np.float64(gen_g.random()), _U_FLOOR)
                gam = 2.0 * float(gamma_inverse(gu))
                n_gamma += 1
                t = a + sqdt * z
                xn = float(np.sqrt(np.float64(t * t + step * gam)))
            else:
                xn = a + drift_num / a * step + sqdt * z
                assert xn > 1e-12
            xn = max(xn, 1e-12)
        if bridge:
            span = min(a, xn)
            dd = a - xn
            arg = dd * dd - (2.0 * step) * float(np.log(np.float64(bu)))
            mb = 0.5 * ((a + xn) - float(np.sqrt(np.float64(arg))))
            mb = max(mb, 1e-12)
            if span < x_guard:
                mb = span
            new_min = mb
        else:
            new_min = min(a, xn)
        if new_min < I:
            theta = k_next
            I = min(I, new_min)
        X = xn
        r = I / X
        pw = r if nu == 1.0 else r ** nu
        c_new = 1.0 - 2.0 * pw
        obj += (0.5 * step) * (cprev + c_new)
        cprev = c_new
        if X >= lam * I:
            return pack(k_next, False)
    return pack(n_max, True)


def _assert_replay_matches(d, x0, lam, seed, step, scheme, bridge,
                           n=8, horizon=50.0, obj_tol=0.0):
    model = g.make_bessel_model(d)
    rule = g.StoppingRule.ratio_rule(lam)
    res = simulate_rules(model, x0, [rule], n, seed=seed, step=step,
                         horizon=horizon, scheme=scheme, bridge=bridge)
    total_gamma = 0
    for p in range(n):
        rp = replay_ratio_path(d, x0, lam, seed, p, step, horizon, scheme, bridge)
        total_gamma += rp["n_gamma"]
        assert int(res.stop_step[0, p]) == rp["stop_step"]
        assert float(res.x_stop[0, p]) == rp["x_stop"]
        assert float(res.i_stop[0, p]) == rp["i_stop"]
        assert int(res.theta_step[0, p]) == rp["theta_step"]
        assert bool(res.truncated[0, p]) == rp["truncated"]
        if obj_tol == 0.0:
            assert float(res.objective[0, p]) == rp["objective"]
        else:
            assert abs(float(res.objective[0, p]) - rp["objective"]) <= obj_tol
    return res, total_gamma


def test_replay_oracle_euler_bridge():
    # x0 below the origin guard so both step branches run
    _, n_gamma = _assert_replay_matches(3.0, 0.4, LAM3, seed=7, step=1e-2,
                                        scheme="euler", bridge=True)
    assert n_gamma > 0


def test_replay_oracle_euler_nobridge():
    _, n_gamma = _assert_replay_matches(3.0, 0.35, LAM3, seed=11, step=1e-2,
                                        scheme="euler", bridge=False)
    assert n_gamma > 0


def test_replay_oracle_exact_scheme():
    _assert_replay_matches(3.0, 0.4, LAM3, seed=13, step=1e-2,
                           scheme="exact", bridge=True)


def test_exponential_gamma_substep_at_d3(monkeypatch):
    """At d = 3 the gamma substep has shape 1 and is drawn as -log1p(-u),
    never through gammaincinv; any other dimension still uses gammaincinv."""
    u = np.concatenate([[_U_FLOOR, 0.5, 1.0 - _U_FLOOR],
                        np.maximum(np.random.default_rng(3).random(100_000), _U_FLOOR)])
    ref = gammaincinv(1.0, u)
    assert np.all(np.abs(-np.log1p(-u) - ref) <= 1e-14 * ref)

    class Called(Exception):
        pass

    def refuse(a, x):
        raise Called

    monkeypatch.setattr(simulate, "gammaincinv", refuse)
    rule = g.StoppingRule.ratio_rule(LAM3)
    m3 = g.make_bessel_model(3.0)
    simulate_rules(m3, 0.4, [rule], 8, seed=13, step=1e-2, horizon=50.0, scheme="exact")
    # x0 = 0.4 lies below the origin guard (0.85 at step 1e-2): every lane's
    # first Euler step is the exact substep
    simulate_rules(m3, 0.4, [rule], 8, seed=7, step=1e-2, horizon=50.0, scheme="euler")
    with pytest.raises(Called):
        simulate_rules(g.make_bessel_model(4.0), 0.4, [g.StoppingRule.ratio_rule(g.bessel_lambda(4.0))],
                       8, seed=13, step=1e-2, horizon=50.0, scheme="exact")


def test_replay_oracle_production_step():
    _assert_replay_matches(3.0, 1.0, LAM3, seed=42, step=1e-3,
                           scheme="euler", bridge=True, n=3)


@pytest.mark.parametrize("scheme", ["euler", "exact"])
def test_replay_oracle_noninteger_dimension(scheme):
    # nu != 1 routes the running cost through pow(); the accumulated
    # objective may then sit an ulp off the vectorised sum.  Off d = 3 the
    # gamma substep still goes through gammaincinv.
    _assert_replay_matches(3.5, 0.4, g.bessel_lambda(3.5), seed=5, step=1e-2,
                           scheme=scheme, bridge=True, obj_tol=1e-15)


def test_replay_oracle_truncated_paths():
    res, _ = _assert_replay_matches(3.0, 1.0, 4.0, seed=3, step=1e-2,
                                    scheme="euler", bridge=True, n=6, horizon=0.25)
    assert res.truncated[0].sum() >= 3
    assert np.all(res.stop_step[0][res.truncated[0]] == 25)


def _assert_rows_replay(res, model, x0, rules, seed, step, horizon, **kw):
    """simulate_path reproduces every (rule, path) row of ``res`` bit for bit."""
    for j, rule in enumerate(rules):
        for p in range(res.stop_step.shape[1]):
            po = g.simulate_path(model, x0, step, rule, horizon, g.make_path_stream(seed, p), **kw)
            assert po == g.PathOutcome(
                x_stop=float(res.x_stop[j, p]),
                i_stop=float(res.i_stop[j, p]),
                objective_integral=float(res.objective[j, p]),
                theta_proxy=float(res.theta_step[j, p]) * step,
                n_steps=int(res.stop_step[j, p]),
                truncated=bool(res.truncated[j, p]),
            ), (j, p)


def test_simulate_path_matches_batch_row():
    """simulate_path(seed, k) reproduces path k of a batch run exactly."""
    model = g.make_bessel_model(3.0)
    rule = g.StoppingRule.ratio_rule(LAM3)
    res = simulate_rules(model, 0.4, [rule], 4, seed=7, step=1e-2, horizon=50.0)
    for p in range(4):
        po = g.simulate_path(model, 0.4, 1e-2, rule, 50.0,
                             g.make_path_stream(7, p))
        assert po.n_steps == int(res.stop_step[0, p])
        assert po.x_stop == float(res.x_stop[0, p])
        assert po.i_stop == float(res.i_stop[0, p])
        assert po.objective_integral == float(res.objective[0, p])
        assert po.theta_proxy == float(res.theta_step[0, p]) * 1e-2
        assert po.truncated == bool(res.truncated[0, p])


def test_simulate_path_matches_custom_model_rows(custom3):
    """The same holds for a coefficient-built model, under a ratio rule and
    a fixed-time rule evaluated side by side in the batch."""
    rules = [g.StoppingRule.ratio_rule(LAM3), g.StoppingRule.fixed_time_rule(0.3)]
    n, step, horizon = 29, 1e-2, 50.0
    res = simulate_rules(custom3, 1.0, rules, n, seed=7, step=step, horizon=horizon)
    _assert_rows_replay(res, custom3, 1.0, rules, seed=7, step=step, horizon=horizon)
    assert np.all(res.stop_step[1] == 30) and res.stop_step[0].max() > 30


def _lanes(width, blocks, groups, *args, run=simulate_rules, **kwargs):
    """``run`` (simulate_rules by default) with the engine's lane width, block
    length and group length replaced."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_LANE_WIDTH", width)
        mp.setattr(simulate, "_BLOCK_STEPS", blocks)
        mp.setattr(simulate, "_GROUP_STEPS", groups)
        return run(*args, **kwargs)


def test_chunk_and_block_invariance(custom3):
    """The lane width, block length and group length must not change any
    recorded value."""
    model = g.make_bessel_model(3.0)
    rules = [g.StoppingRule.ratio_rule(LAM3), g.StoppingRule.fixed_time_rule(0.5)]
    kw = dict(seed=19, step=1e-3, horizon=3.0)
    base = simulate_rules(model, 1.0, rules, 40, **kw)
    tiny = _lanes(7, 11, 16, model, 1.0, rules, 40, **kw)
    wide = _lanes(1000, 4096, 16, model, 1.0, rules, 40, **kw)
    pairs = [(base, tiny), (base, wide)]

    # 7 lanes for 40 paths: retired lanes are refilled at every boundary.
    # Groups of 1 row, of 7 rows (which divides neither block length) and
    # of a whole block
    pchip = g.minimal_boundary(model, 0.5, 2.0)
    assert pchip.ratio is None
    cases = [
        (model, 1.0, rules, {}),
        (model, 1.0, rules, dict(scheme="exact")),
        (model, 1.0, [g.StoppingRule.boundary_rule(pchip)], {}),
        (custom3, 1.0, rules, {}),
        (model, 2.0, [_DipProbe(level=1.0)], {}),
        (model, 2.0, [_DipProbe(level=1.0, exit=3.0)], {}),
    ]
    for case_model, x0, case_rules, extra in cases:
        ref = simulate_rules(case_model, x0, case_rules, 40, **kw, **extra)
        for blocks, groups in ((11, (1, 7)), (256, (7, 256))):
            runs = [_lanes(7, blocks, n, case_model, x0, case_rules, 40, **kw, **extra)
                    for n in groups]
            assert runs[0].path_steps_stepped == runs[1].path_steps_stepped
            pairs += [(ref, other) for other in runs]

    # the two-sided probe retires lanes at both ends and at the horizon,
    # and each of its rows replays one path at a time
    exits = (ref.x_stop[0] >= 3.0) & ~ref.truncated[0]
    assert exits.any() and (ref.i_stop[0] < 1.0).any() and ref.truncated[0].any()
    _assert_rows_replay(ref, model, 2.0, case_rules, **kw)

    for base, other in pairs:
        assert np.array_equal(base.stop_step, other.stop_step)
        assert np.array_equal(base.x_stop, other.x_stop)
        assert np.array_equal(base.i_stop, other.i_stop)
        assert np.array_equal(base.objective, other.objective)
        assert np.array_equal(base.theta_step, other.theta_step)
        assert np.array_equal(base.truncated, other.truncated)


def test_direct_cev_route_group_invariance():
    """The direct CEV route advances and stops its lanes group by group too;
    its sample and truncation count do not depend on the group length."""
    cev = g.CevModel(d=3.0, c_sigma=1.0)
    kw = dict(n_paths=40, seed=21, step=1e-2, horizon=0.3)
    out = []
    for groups in (16, 1, 7):
        with pytest.warns(UserWarning, match="hit the horizon"):
            out.append(_lanes(7, 11, groups, cev, 1.0, 2.0, run=g.direct_stopped_samples, **kw))
    (z, n_trunc), others = out[0], out[1:]
    assert 0 < n_trunc < 40 and z.size == 40 - n_trunc
    for z_other, n_other in others:
        assert np.array_equal(z, z_other) and n_other == n_trunc


def test_block_temporaries_are_group_sized():
    """One serial full-width Euler pass of four blocks traces at most 96 MiB:
    the block's uniforms (32 MiB) plus temporaries the size of one group.
    With temporaries the size of a block the same pass traces about 249 MiB.
    The exact scheme adds the block's gamma uniforms (16 MiB), filled in
    place, and traces at most 84 MiB; stacked from per-lane draws they took
    it to 89.5 MiB."""
    rules = [g.StoppingRule.ratio_rule(lam) for lam in (1.8, 2.1, LAM3, 3.3, 4.0)]
    for scheme, bound in (("euler", 96), ("exact", 84)):
        run, _ = simulate._engine(g.make_bessel_model(3.0), 1.0, rules, 1, 1e-3, 1.024, scheme, True)
        tracemalloc.start()
        try:
            res = run(0, 8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.stop_step.max() == 1024 and res.truncated.any()
        assert peak <= bound * 2**20, f"{scheme}: traced peak {peak / 2**20:.1f} MiB"


def test_ray_boundary_rule_matches_ratio_rule():
    # a ray boundary evaluates to lam * i exactly, so the two rules must
    # trigger on identical steps with identical records
    model = g.make_bessel_model(3.0)
    b = g.line_boundary(model, LAM3, 0.05, 40.0)
    rules = [g.StoppingRule.ratio_rule(LAM3), g.StoppingRule.boundary_rule(b)]
    res = simulate_rules(model, 1.0, rules, 64, seed=23, step=1e-3, horizon=50.0)
    assert np.array_equal(res.stop_step[0], res.stop_step[1])
    assert np.array_equal(res.x_stop[0], res.x_stop[1])
    assert np.array_equal(res.objective[0], res.objective[1])
    assert np.array_equal(res.truncated[0], res.truncated[1])


def test_drawdown_rule_identities():
    model3 = g.make_bessel_model(3.0)
    kw = dict(n_paths=64, seed=29, step=1e-3, horizon=20.0)
    a = simulate_rules(model3, 1.0, [g.StoppingRule.ratio_rule(LAM3)], **kw)
    b = simulate_rules(model3, 1.0, [g.StoppingRule.drawdown_rule(LAM3)], **kw)
    assert np.array_equal(a.stop_step, b.stop_step)
    assert np.array_equal(a.x_stop, b.x_stop)
    assert np.array_equal(a.objective, b.objective)

    # other dimensions map kappa through the (d-2)-th root
    model5 = g.make_bessel_model(5.0)
    kappa = 3.7
    c = simulate_rules(model5, 1.0, [g.StoppingRule.drawdown_rule(kappa)], **kw)
    d_ = simulate_rules(model5, 1.0,
                        [g.StoppingRule.ratio_rule(kappa ** (1.0 / 3.0))], **kw)
    assert np.array_equal(c.stop_step, d_.stop_step)
    assert np.array_equal(c.x_stop, d_.x_stop)


@pytest.fixture(scope="module")
def shot_limit3():
    """The d = 3 shot-limit boundary: within 1e-9 of the ray lam(3) i,
    but a monotone-cubic grid, so evaluation interpolates and inversion
    solves the interpolant."""
    b = g.minimal_boundary(g.make_bessel_model(3.0), 0.05, 4.0)
    assert b.ratio is None
    return b


def test_shot_limit_stopped_cdf_is_the_ratio_law(shot_limit3):
    model = g.make_bessel_model(3.0)
    dist = g.make_stopped_distribution(3.0, LAM3, 1.0)
    for y in np.linspace(0.2, 2.6, 13):
        got = g.stopped_cdf_general(model, shot_limit3, 1.0, float(y))
        assert abs(got - float(g.stopped_cdf(dist, y))) < 1e-9, y


def test_shot_limit_stopped_sample_is_the_ratio_sample(shot_limit3):
    # the boundary rule triggers on the same steps as the ray it approximates,
    # and its KS distance reads the quadrature law through the cubic's inverse
    model = g.make_bessel_model(3.0)
    kw = dict(n_paths=300, seed=7, step=1e-2, horizon=20.0)
    s_b = _stopped_sample(model, g.StoppingRule.boundary_rule(shot_limit3), **kw)
    s_r = _stopped_sample(model, g.StoppingRule.ratio_rule(LAM3), **kw)
    assert np.array_equal(s_b, s_r)
    ks_b = kstest(s_b, lambda y: np.array([
        g.stopped_cdf_general(model, shot_limit3, 1.0, float(v)) for v in y])).statistic
    dist = g.make_stopped_distribution(3.0, LAM3, 1.0)
    ks_r = kstest(s_r, lambda y: g.stopped_cdf(dist, y)).statistic
    assert abs(ks_b - ks_r) < 1e-9


def test_rule_validation():
    with pytest.raises(g.DomainError):
        g.StoppingRule.ratio_rule(1.0)
    with pytest.raises(g.DomainError):
        g.StoppingRule.ratio_rule(math.inf)
    with pytest.raises(g.DomainError):
        g.StoppingRule.drawdown_rule(0.9)
    with pytest.raises(g.DomainError):
        g.StoppingRule.fixed_time_rule(-1.0)
    with pytest.raises(g.DomainError):
        g.StoppingRule(variant="boundary", boundary=None)
    with pytest.raises(g.DomainError):
        g.StoppingRule(variant="garbled")


def test_path_count_must_be_an_integer():
    model, rule = g.make_bessel_model(3.0), g.StoppingRule.ratio_rule(LAM3)
    kw = dict(seed=3, step=1e-2, horizon=1.0)
    for bad in (2.5, np.float64(4.0), "4", 0, np.int64(-1)):
        with pytest.raises(g.DomainError, match="n_paths"):
            simulate_rules(model, 1.0, [rule], bad, **kw)
    ref = simulate_rules(model, 1.0, [rule], 4, **kw)
    res = simulate_rules(model, 1.0, [rule], np.int64(4), **kw)
    assert np.array_equal(res.x_stop, ref.x_stop) and np.array_equal(res.stop_step, ref.stop_step)


def test_rule_ids():
    assert g.StoppingRule.ratio_rule(2.5).rule_id == "ratio(lam=2.5)"
    assert g.StoppingRule.drawdown_rule(3.0).rule_id == "drawdown(kappa=3)"
    assert g.StoppingRule.fixed_time_rule(0.25).rule_id == "fixed_time(t=0.25)"
    model = g.make_bessel_model(3.0)
    b = g.line_boundary(model, 3.0, 0.5, 2.0)
    assert g.StoppingRule.boundary_rule(b).rule_id.startswith("boundary(")


def test_fixed_time_step_counts():
    model = g.make_bessel_model(3.0)
    res = simulate_rules(model, 1.0, [g.StoppingRule.fixed_time_rule(0.025)],
                         3, seed=1, step=0.01, horizon=1.0)
    assert np.all(res.stop_step[0] == 3)  # first grid time >= 0.025
    assert not res.truncated[0].any()
    res = simulate_rules(model, 1.0, [g.StoppingRule.fixed_time_rule(0.03)],
                         3, seed=1, step=0.01, horizon=1.0)
    assert np.all(res.stop_step[0] == 3)  # exact multiple, no off-by-one
    res0 = simulate_rules(model, 1.0, [g.StoppingRule.fixed_time_rule(0.0)],
                          3, seed=1, step=0.01, horizon=1.0)
    assert np.all(res0.stop_step[0] == 0)
    assert np.all(res0.objective[0] == 0.0)
    assert np.all(res0.x_stop[0] == 1.0)


def test_trigger_and_minimum_invariants():
    model = g.make_bessel_model(3.0)
    res = simulate_rules(model, 1.0, [g.StoppingRule.ratio_rule(LAM3)],
                         128, seed=31, step=1e-3, horizon=50.0)
    ok = ~res.truncated[0]
    assert ok.all()
    assert np.all(res.x_stop[0, ok] >= LAM3 * res.i_stop[0, ok])
    assert np.all(res.i_stop[0] <= 1.0)
    assert np.all(res.i_stop[0] > 0.0)
    assert np.all(res.theta_step[0] <= res.stop_step[0])


def test_truncation_warning():
    model = g.make_bessel_model(3.0)
    with pytest.warns(UserWarning, match="horizon-biased"):
        est = g.compare_rules(model, 1.0, [g.StoppingRule.ratio_rule(4.0)],
                              n_paths=64, seed=37, step=1e-3, horizon=0.05).estimates[0]
    assert est.truncated_fraction > 0.9
    assert math.isfinite(est.mean)



def test_truncation_warning_names_the_caller():
    model, rule = g.make_bessel_model(3.0), g.StoppingRule.ratio_rule(4.0)
    kw = dict(n_paths=64, seed=37, step=1e-3, horizon=0.05)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        g.compare_rules(model, 1.0, [rule], **kw)
    assert len(w) == 1 and "horizon-biased" in str(w[0].message)
    assert w[0].filename == __file__


def test_compare_rules_warns_once_per_truncated_rule():
    # from x0 = 1 at horizon 0.05 nearly every 4.0-path and 3.3-path is
    # still running; ratio 1.05 fires within a few steps on every path
    model = g.make_bessel_model(3.0)
    rules = [g.StoppingRule.ratio_rule(l) for l in (4.0, 1.05, 3.3)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cmp_ = g.compare_rules(model, 1.0, rules, n_paths=64, seed=37, step=1e-3, horizon=0.05)
    msgs = [str(w.message) for w in caught]
    assert [e.truncated_fraction > 0.01 for e in cmp_.estimates] == [True, False, True]
    assert len(msgs) == 2
    for msg, j in zip(msgs, (0, 2)):
        assert "horizon-biased" in msg and cmp_.estimates[j].rule_id in msg

def _plunging_model():
    # properly normalised scale but a drift that slams paths through zero
    return g.model_from_scale(
        drift=lambda x: np.full_like(np.asarray(x, dtype=float), -60.0),
        volatility=lambda x: np.full_like(np.asarray(x, dtype=float), 0.1),
        scale=lambda x: -1.0 / np.asarray(x, dtype=float),
        scale_deriv=lambda x: 1.0 / np.asarray(x, dtype=float) ** 2,
        scale_inverse=lambda v: -1.0 / np.asarray(v, dtype=float),
    )


def test_scheme_error_on_crossing_zero():
    model = _plunging_model()
    with pytest.raises(g.SchemeError, match="reduce step"):
        simulate_rules(model, 0.5, [g.StoppingRule.ratio_rule(2.0)],
                       4, seed=2, step=0.01, horizon=1.0)


def test_scheme_error_only_on_live_lanes():
    # every path crosses zero between t = 0.03 and t = 0.04; a rule that
    # retired the lane at t = 0.01 never sees that step, also when the
    # failing step falls in a later group of the block (groups of 1 and 3)
    model = _plunging_model()
    kw = dict(seed=2, step=0.01, horizon=1.0)
    for groups in (None, 1, 3):
        run = simulate_rules if groups is None else functools.partial(_lanes, 4, 256, groups)
        res = run(model, 2.0, [g.StoppingRule.fixed_time_rule(0.01)], 4, **kw)
        assert np.all(res.stop_step[0] == 1)
        with pytest.raises(g.SchemeError) as err:
            run(model, 2.0, [g.StoppingRule.fixed_time_rule(0.05)], 4, **kw)
        msg = str(err.value)
        assert "path 0" in msg and "t=0.04" in msg and "reduce step" in msg


def test_stepped_path_steps_waste_below_one_block():
    model = g.make_bessel_model(3.0)
    rules = [g.StoppingRule.ratio_rule(2.1), g.StoppingRule.ratio_rule(LAM3)]
    for n_paths, width, blocks in ((40, 7, 16), (300, 64, 256), (50, 8192, 256)):
        res = _lanes(width, blocks, simulate._GROUP_STEPS, model, 1.0, rules, n_paths,
                     seed=3, step=1e-3, horizon=10.0)
        consumed = int(res.stop_step.max(axis=0).sum())
        assert consumed <= res.path_steps_stepped < consumed + n_paths * blocks


def test_bessel_euler_step_cannot_reach_the_floor():
    # the engine skips the failed-step scan on Bessel models: an unguarded
    # lane starts at >= 8.5 sqrt(step), above the largest normal decrement
    assert -ndtri(simulate._U_FLOOR) < 8.5


def test_horizon_and_step_must_span_finite_steps():
    """A step that is not finite and positive, or a horizon that is infinite,
    nan or shorter than one step, is a DomainError naming both and the
    remedy, in the engine and in the direct CEV route alike."""
    model = g.make_bessel_model(3.0)
    rule = g.StoppingRule.ratio_rule(2.0)
    cev = g.CevModel(d=3.0, c_sigma=1.0)
    for step, horizon, remedy in ((1e-3, math.inf, "finite horizon"),
                                  (1e-3, math.nan, "finite horizon"),
                                  (0.01, 1e-12, "no shorter than the step"),
                                  (1e-3, 0.0, "no shorter than the step"),
                                  (1e-300, 1e300, "finite horizon"),
                                  (math.nan, 1.0, "step > 0"),
                                  (-1e-3, 1.0, "step > 0"),
                                  (math.inf, 1.0, "step > 0")):
        for run in (lambda: simulate_rules(model, 1.0, [rule], 2, seed=0, step=step, horizon=horizon),
                    lambda: g.direct_stopped_samples(cev, 1.0, 2.0, n_paths=2, seed=0,
                                                     step=step, horizon=horizon)):
            with pytest.raises(g.DomainError, match=remedy) as err:
                run()
            assert f"step={step}" in str(err.value) and f"horizon={horizon}" in str(err.value)


def test_custom_model_rejections():
    model = _plunging_model()
    with pytest.raises(g.DomainError, match="Bessel-specific"):
        simulate_rules(model, 0.5, [g.StoppingRule.ratio_rule(2.0)],
                       4, seed=2, step=1e-4, horizon=0.01, scheme="exact")
    with pytest.raises(g.DomainError, match="drawdown"):
        simulate_rules(model, 0.5, [g.StoppingRule.drawdown_rule(2.0)],
                       4, seed=2, step=1e-4, horizon=0.01)


def test_simulate_input_validation():
    model = g.make_bessel_model(3.0)
    rule = g.StoppingRule.ratio_rule(2.0)
    for bad in (dict(x0=0.0), dict(step=0.0), dict(horizon=0.0),
                dict(n_paths=0), dict(scheme="milstein"), dict(seed=-1)):
        kw = dict(x0=1.0, step=1e-3, horizon=1.0, n_paths=2, scheme="euler", seed=0)
        kw.update(bad)
        with pytest.raises(g.DomainError):
            simulate_rules(model, kw["x0"], [rule], kw["n_paths"], seed=kw["seed"],
                           step=kw["step"], horizon=kw["horizon"], scheme=kw["scheme"])
    with pytest.raises(g.DomainError):
        simulate_rules(model, 1.0, [], 2, seed=0, step=1e-3, horizon=1.0)


def test_make_path_stream_validation():
    st = g.make_path_stream(5, 3)
    assert st.seed == 5 and st.index == 3
    with pytest.raises(g.DomainError):
        g.make_path_stream(-1, 0)
    with pytest.raises(g.DomainError):
        g.make_path_stream(2 ** 63, 0)
    with pytest.raises(g.DomainError):
        g.make_path_stream(0, -1)
    with pytest.raises(g.DomainError):
        g.make_path_stream(0, 2 ** 62)


def test_estimator_moments_match_batch():
    model = g.make_bessel_model(3.0)
    rule = g.StoppingRule.ratio_rule(LAM3)
    kw = dict(n_paths=50, seed=41, step=1e-3, horizon=30.0)
    est = g.compare_rules(model, 1.0, [rule], **kw).estimates[0]
    res = simulate_rules(model, 1.0, [rule], 50, seed=41, step=1e-3, horizon=30.0)
    objs = res.objective[0]
    assert est.mean == float(np.sum(objs)) / 50
    assert est.std_error == float(np.std(objs, ddof=1) / math.sqrt(50))
    assert est.rule_id == rule.rule_id
    d = est.to_dict()
    assert d["n_paths"] == 50 and d["seed"] == 41


def test_estimates_deterministic_and_seed_sensitive():
    model = g.make_bessel_model(3.0)
    rule = g.StoppingRule.ratio_rule(LAM3)
    kw = dict(n_paths=200, step=1e-3, horizon=30.0)
    a, b, c = (g.compare_rules(model, 1.0, [rule], seed=s, **kw).estimates[0] for s in (42, 42, 43))
    assert a.mean == b.mean and a.std_error == b.std_error
    assert a.mean != c.mean


def test_compare_rules_pairing():
    model = g.make_bessel_model(3.0)
    rules = [g.StoppingRule.ratio_rule(2.0), g.StoppingRule.ratio_rule(LAM3)]
    cmp_ = g.compare_rules(model, 1.0, rules, n_paths=400, seed=47, step=1e-3)
    dm, dse = cmp_.paired_difference(0, 1)
    assert math.isclose(dm, cmp_.estimates[0].mean - cmp_.estimates[1].mean,
                        rel_tol=0.0, abs_tol=1e-15)
    assert dse > 0.0
    rows = cmp_.rows()
    assert [r["rule_id"] for r in rows] == [e.rule_id for e in cmp_.estimates]


def test_stopped_law_reduced_scale():
    """KS against the closed-form power law at 4k paths, step 1e-3."""
    model = g.make_bessel_model(3.0)
    sample = _stopped_sample(model, g.StoppingRule.ratio_rule(LAM3),
                             n_paths=4000, seed=42, step=1e-3)
    dist = g.make_stopped_distribution(3.0, LAM3, 1.0)
    assert kstest(sample, lambda y: g.stopped_cdf(dist, y)).statistic < 0.04
    assert abs(float(sample.mean()) - g.stopped_mean(dist)) < 0.04 * g.stopped_mean(dist)
    assert sample.max() <= LAM3 * 1.0 * (1.0 + 0.05)  # overshoot is one step worth


def test_threshold_local_optimality_paired():
    """Paired CRN comparison around the optimal threshold.

    A 2 percent bump must not help beyond noise; at step 1e-3 the coarse
    monitoring shifts the discrete optimum slightly below the continuum
    one, so the downward bump only gets a one-sided bound.
    """
    model = g.make_bessel_model(3.0)
    rules = [g.StoppingRule.ratio_rule(LAM3),
             g.StoppingRule.ratio_rule(LAM3 * 1.02),
             g.StoppingRule.ratio_rule(LAM3 * 0.98)]
    cmp_ = g.compare_rules(model, 1.0, rules, n_paths=4000, seed=42, step=1e-3)
    up, up_se = cmp_.paired_difference(1, 0)
    dn, dn_se = cmp_.paired_difference(2, 0)
    assert up > 2.0 * up_se
    assert dn >= -3.0 * dn_se - 1e-4


def test_step_halving_consistency():
    model = g.make_bessel_model(3.0)
    rule = g.StoppingRule.ratio_rule(LAM3)
    e1, e2 = (g.compare_rules(model, 1.0, [rule], n_paths=4000, seed=42, step=s).estimates[0]
              for s in (2e-3, 1e-3))
    assert abs(e1.mean - e2.mean) <= 3.0 * math.hypot(e1.std_error, e2.std_error)


def test_future_min_probability_reduced_scale(monkeypatch):
    n, kw = 3000, dict(seed=42, step=1e-3, horizon=20.0)
    passes = []
    batch = simulate.simulate_rules
    monkeypatch.setattr(simulate, "simulate_rules",
                        lambda *a, **k: passes.append(batch(*a, **k)) or passes[-1])
    for d, target in ((3.0, 0.5), (4.0, 0.25)):
        model = g.make_bessel_model(d)
        passes.clear()
        est = g.estimate_future_min_prob(model, 2.0, 1.0, n_paths=n, **kw)
        (res,) = passes
        assert abs(est.mean - target) <= 3.0 * est.std_error + 0.015
        # dipped paths complete with 1, the others (exited at M = 2 + sqrt(20),
        # or truncated) with L(X_tau)/L(level) in (0, 1)
        M = est.extra["exit_level"]
        assert M == 2.0 + math.sqrt(20.0)
        dipped = float(np.mean(res.i_stop[0] < 1.0))
        exited = (res.x_stop[0] >= M) & ~res.truncated[0]
        assert est.extra["exit_fraction"] == float(np.mean(exited)) > 0.5
        assert est.truncated_fraction == float(np.mean(res.truncated[0]))
        assert dipped + est.extra["exit_fraction"] + est.truncated_fraction == pytest.approx(1.0, abs=1e-12)
        share = est.extra["analytic_share"]
        assert 0.0 < share < 1.0 - dipped
        assert est.mean == pytest.approx(dipped + share, abs=1e-12)
        # the completed value is E[1{dip} | path to tau], so its se stays
        # below that of the dip indicator itself
        assert est.std_error < math.sqrt(target * (1.0 - target) / n)

        # against a dip-only probe on the same streams: fewer path-steps, and
        # the analytic share rises only by P(dip after the exit) - P(dip after T)
        only = batch(model, 2.0, [_DipProbe(level=1.0)], n, **kw)
        assert res.path_steps_stepped < only.path_steps_stepped
        surv = only.truncated[0]
        share_only = float(np.sum(model.scale(only.x_stop[0, surv]) / model.scale(1.0))) / n
        assert share - share_only <= 0.015
    with pytest.raises(g.DomainError):
        g.estimate_future_min_prob(model, 1.0, 1.5, n_paths=10, seed=1)


def test_gamma_stream_built_on_first_use():
    st = g.make_path_stream(5, 3)
    assert "gamma" not in vars(st)
    ref = np.random.Generator(np.random.Philox(key=np.array([5, 7], dtype=np.uint64)))
    assert np.array_equal(st.gamma.random(4), ref.random(4))
    assert st.gamma is st.gamma


# ---------------------------------------------------------------------------
# path-index shards


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture(scope="module")
def custom3():
    """The 3-d Bessel process rebuilt from its coefficients (numeric scale)."""
    m3 = g.make_bessel_model(3.0)
    return g.model_from_coefficients(m3.drift, m3.volatility)


def test_shard_plan():
    # shards are sized by paths x step bound (2^20 path-steps at least)
    # the exact-scheme defect table of the cev-routes benchmark: 4,002,000
    assert _shards(1000, 4002, 2) == [(0, 500), (500, 1000)]
    assert _shards(1000, 4002, 64) == [(0, 333), (333, 666), (666, 1000)]
    # the chunk-invariance passes stay serial
    assert _shards(40, 3000, 2) == [(0, 40)]
    # 409,600 path-steps: serial, though 4,096 paths used to make two shards
    assert _shards(4096, 100, 2) == [(0, 4096)]
    assert _shards(16384, 50_000, 1) == [(0, 16384)]
    assert _shards(16384, 50_000, 2) == [(0, 8192), (8192, 16384)]
    # never an empty shard, however long the paths
    assert _shards(3, 10**7, 64) == [(0, 1), (1, 2), (2, 3)]
    assert _shards(5, 64, 64) == [(0, 5)]
    for n, steps, cpus in ((2048, 2000, 2), (50_000, 30, 2), (3001, 30_000, 64), (7, 10**9, 1)):
        plan = _shards(n, steps, cpus)
        assert plan[0][0] == 0 and plan[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(plan, plan[1:]))
        assert len(plan) == 1 or min(hi - lo for lo, hi in plan) * steps >= 2**20


def test_first_true():
    def first(rows):
        cols, at = _first_true(np.array(rows, dtype=bool))
        return cols.tolist(), at.tolist()

    assert first([[0, 0, 0], [0, 0, 0]]) == ([], [])
    assert first([[0, 1, 0], [0, 0, 0]]) == ([1], [0])
    assert first([[0, 0, 0], [0, 0, 0], [1, 0, 0]]) == ([0], [2])
    assert first([[0, 0, 0], [0, 1, 1], [0, 1, 0], [1, 1, 1]]) == ([0, 1, 2], [3, 1, 1])


def test_sharded_merges_by_path_index_and_reraises_lowest_shard(monkeypatch):
    monkeypatch.setattr(simulate, "_MIN_SHARD_PATH_STEPS", 16)
    _cpus(monkeypatch, 3)

    def run(lo, hi):
        return SimpleNamespace(index=np.arange(lo, hi), pid=np.full(hi - lo, os.getpid()),
                               width=hi - lo, tag="shard", shards=1)

    out = simulate._sharded(run, 50, 30)
    assert np.array_equal(out.index, np.arange(50)) and out.width == 50 and out.tag == "shard"
    assert out.shards == 3
    assert np.all(out.pid[:16] == os.getpid()) and np.all(out.pid[16:] != os.getpid())

    def failing(lo, hi):
        if lo:
            raise g.SchemeError(f"shard at {lo}")
        return run(lo, hi)

    with pytest.raises(g.SchemeError, match="shard at 16"):
        simulate._sharded(failing, 50, 30)


def test_no_fork_start_method_runs_serially(monkeypatch):
    import concurrent.futures
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # a pool would fail
    _cpus(monkeypatch, 2)
    assert len(_shards(4096, 1000, 2)) == 2
    calls = []
    out = simulate._sharded(
        lambda lo, hi: calls.append((lo, hi, os.getpid())) or SimpleNamespace(v=np.arange(lo, hi)),
        4096, 1000)
    assert calls == [(0, 4096, os.getpid())] and out.v.size == 4096


def test_no_workers_forked_while_other_threads_run(monkeypatch):
    _cpus(monkeypatch, 2)
    assert len(_shards(4096, 1000, 2)) == 2
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, daemon=True)
    other.start()
    try:
        out = simulate._sharded(lambda lo, hi: SimpleNamespace(pid=np.full(hi - lo, os.getpid())),
                                4096, 1000)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive() and np.all(out.pid == os.getpid())


def test_sharded_pass_equals_serial(monkeypatch, custom3):
    """Three uneven shards over 50 paths give the serial pass bit for bit."""
    monkeypatch.setattr(simulate, "_MIN_SHARD_PATH_STEPS", 16)
    assert _shards(50, 25, 3) == [(0, 16), (16, 33), (33, 50)]
    model = g.make_bessel_model(3.0)
    R = g.StoppingRule
    golden = R.ratio_rule(LAM3)
    pchip = g.minimal_boundary(model, 0.5, 2.0)
    cases = [
        (model, 1.0, [golden, R.ratio_rule(2.0)], {}),
        (model, 0.4, [golden], dict(bridge=False)),
        (model, 0.4, [golden, R.fixed_time_rule(0.5)], dict(scheme="exact")),
        (model, 1.0, [R.boundary_rule(pchip)], {}),
        (model, 2.0, [_DipProbe(level=1.0)], {}),
        (model, 2.0, [_DipProbe(level=1.0, exit=3.0)], {}),
        (model, 1.0, [R.fixed_time_rule(0.0), R.fixed_time_rule(0.25)], {}),
        (model, 1.0, [R.ratio_rule(4.0)], dict(horizon=0.25)),
        (custom3, 3.0, [golden], dict(step=2e-3, horizon=0.5)),
    ]
    for model_, x0, rules, extra in cases:
        kw = dict(seed=19, step=1e-2, horizon=3.0) | extra
        _cpus(monkeypatch, 1)
        serial = simulate_rules(model_, x0, rules, 50, **kw)
        _cpus(monkeypatch, 3)
        sharded = simulate_rules(model_, x0, rules, 50, **kw)
        assert (serial.shards, sharded.shards) == (1, 3)
        for name in ("stop_step", "x_stop", "i_stop", "objective", "theta_step", "truncated"):
            assert np.array_equal(getattr(serial, name), getattr(sharded, name)), name
        assert sharded.rule_ids == serial.rule_ids
        if kw["horizon"] == 0.25:
            assert serial.truncated.any()
        if isinstance(rules[0], _DipProbe) and rules[0].exit < math.inf:
            assert (sharded.x_stop[0] >= rules[0].exit).any()
            _assert_rows_replay(sharded, model_, x0, rules, **kw)


def test_scheme_error_in_worker_shard_reaches_caller(monkeypatch, custom3, shard_plans):
    # at seed 52 Euler fails on paths 19 and 45 only: shards 1 and 2 of 3
    monkeypatch.setattr(simulate, "_MIN_SHARD_PATH_STEPS", 16)
    _cpus(monkeypatch, 3)
    with pytest.raises(g.SchemeError, match="path 19 .*reduce step"):
        simulate_rules(custom3, 0.5, [g.StoppingRule.ratio_rule(LAM3)], 48,
                       seed=52, step=0.02, horizon=2.0)
    assert shard_plans == [3]
