"""Integer arguments are checked in one place: a seed, a path index, a
path count, a grid size or a shot count is a Python or numpy integer, never
a float, bool or string truncated or coerced to one.  The per-path stream
contract keys each path's draws on (seed, index), so a truncated 2.5 would
silently rerun seed 2.  Bounded reals must be finite, no real is text, and
a parameter that is one real (a dimension, a rule's threshold) is no array."""

import math

import numpy as np
import pytest

import goldenstop as g

M3 = g.make_bessel_model(3.0)
LAM3 = g.bessel_lambda(3.0)
RULE = g.StoppingRule.ratio_rule(LAM3)
MC = dict(step=1e-2, horizon=0.5)

# each entry point with one integer argument left open
INTEGER_ARGUMENTS = {
    "engine seed": lambda v: g.simulate_rules(M3, 1.0, [RULE], 4, seed=v, **MC),
    "direct sampler seed": lambda v: g.direct_stopped_samples(
        g.CevModel(3.0), 1.0, 2.0, n_paths=4, seed=v, step=1e-2, horizon=30.0),
    "run_checks seed": lambda v: g.run_checks(["cev"], n_paths=4, seed=v, step=1e-2),
    "martingale table seed": lambda v: g.martingale_defect_table(
        g.CevModel(3.0), 1.0, [0.1], n_paths=4, seed=v, step=1e-2),
    "index": lambda v: g.make_path_stream(1, v),
    "n_paths": lambda v: g.simulate_rules(M3, 1.0, [RULE], v, seed=3, **MC),
    "n": lambda v: g.fibonacci_levels(v),
    "line_boundary n_grid": lambda v: g.line_boundary(M3, LAM3, 0.5, 2.0, v),
    "shoot_from_h n_grid": lambda v: g.shoot_from_h(M3, 0.5, 2.0, n_grid=v),
    "minimal_boundary n_grid": lambda v: g.minimal_boundary(M3, 0.5, 2.0, n_grid=v, n_shots=1),
    "n_shots": lambda v: g.minimal_boundary(M3, 0.5, 2.0, n_grid=16, n_shots=v),
}
# a valid value of each, as a Python int
GOOD = {"engine seed": 5, "direct sampler seed": 5, "run_checks seed": 5,
        "martingale table seed": 5, "index": 7, "n_paths": 4, "n": 12,
        "line_boundary n_grid": 33, "shoot_from_h n_grid": 16,
        "minimal_boundary n_grid": 16, "n_shots": 1}


def _same(a, b):
    """Equal results, compared through their array or tuple fields."""
    if isinstance(a, g.BatchResult):
        return all(np.array_equal(getattr(a, k), getattr(b, k))
                   for k in ("stop_step", "x_stop", "i_stop", "objective"))
    if isinstance(a, g.Boundary):
        return np.array_equal(a.f_grid, b.f_grid) and a.provenance == b.provenance
    if isinstance(a, g.PathStream):
        return (a.seed, a.index) == (b.seed, b.index) and a.uniform.random() == b.uniform.random()
    if isinstance(a, tuple) and isinstance(a[0], np.ndarray):
        return np.array_equal(a[0], b[0]) and a[1] == b[1]
    return a == b


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_are_never_truncated(entry):
    call = INTEGER_ARGUMENTS[entry]
    for bad in (2.5, True, "7", math.nan, float(GOOD[entry])):
        with pytest.raises(g.DomainError):
            call(bad)
    assert _same(call(np.int64(GOOD[entry])), call(GOOD[entry]))


@pytest.mark.parametrize("call", [
    lambda: g.free_boundary_residuals(M3, g.line_boundary(M3, LAM3, 0.5, 2.0), math.inf, math.inf),
    lambda: g.value_function_numeric(M3, g.line_boundary(M3, LAM3, 0.5, 2.0), 1.0, math.nan),
    lambda: g.model_from_coefficients(M3.drift, M3.volatility, x_max=math.inf),
    lambda: g.line_boundary(M3, LAM3, 0.5, math.inf),
    lambda: g.bessel_value(3.0, "2.5", 1.0, 1.0),
    lambda: g.StoppingRule(variant="ratio"),
    lambda: g.make_bessel_model("3"),
    lambda: g.bessel_lambda("3"),
    lambda: g.CevModel("3"),
    lambda: g.StoppingRule.ratio_rule("2.5"),
    lambda: g.StoppingRule.drawdown_rule("2.5"),
    lambda: g.StoppingRule.fixed_time_rule("1"),
    lambda: g.estimate_future_min_prob(M3, 2.0, "1", n_paths=4, **MC),
    lambda: g.martingale_defect_table(g.CevModel(3.0), 1.0, ["0.5"], n_paths=4, step=1e-2),
    lambda: g.make_bessel_model([3.0]),
    lambda: g.StoppingRule.ratio_rule([2.5, 3.0]),
    lambda: g.martingale_defect_table(g.CevModel(3.0), 1.0, 0.5, n_paths=4, step=1e-2),
    lambda: g.martingale_defect_table(g.CevModel(3.0), 1.0, [[0.5, 1.0]], n_paths=4, step=1e-2),
], ids=["residuals-inf", "value-nan", "coefficients-x_max-inf", "ray-i_max-inf",
        "value-lam-string", "ratio-rule-no-lam", "model-d-string", "lambda-d-string",
        "cev-d-string", "ratio-rule-string", "drawdown-rule-string", "fixed-time-rule-string",
        "future-min-level-string", "defect-table-horizon-string", "model-d-array",
        "ratio-rule-array", "defect-table-horizon-scalar", "defect-table-horizons-2d"])
def test_bounded_reals_must_be_finite(call):
    with pytest.raises(g.DomainError):
        call()
