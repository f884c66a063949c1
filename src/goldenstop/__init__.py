"""Golden-ratio stopping rules for transient diffusions.

A transient diffusion on (0, inf) drifts to infinity; its running
minimum settles at some final value at a random (unobservable) time.
This package solves the problem of stopping as close as possible to that
time, in expectation, using only the observed past.  For Bessel
processes the answer is a ratio rule: stop when the state first reaches
lam(d) times the running minimum, where lam(d) solves a polynomial
characteristic equation; at d = 3 the threshold is 1 + phi (phi the
golden ratio) and the rule becomes, through an exact change of variable,
the 61.8% golden-retracement trailing stop on a CEV price bubble.

Layout: `diffusion` (model plumbing: scale, speed, hitting laws),
`bessel` (closed forms: thresholds, values, stopped laws), `boundary`
(general-model free boundary by shooting, value quadrature, residual
diagnostics), `simulate` (deterministic Monte Carlo engine and rule
comparisons), `cev` (price-side drawdown picture, Fibonacci levels),
`checks` (statistical certification), `cli` (the `goldenstop` command).
"""

from .errors import (
    ConsistencyError,
    DivergenceError,
    DomainError,
    GoldenstopError,
    NoMinimalSolutionError,
    NumericalError,
    SchemeError,
    SingularPointError,
    UnsupportedModelError,
)
from .diffusion import (
    DiffusionModel,
    c_value,
    expected_exit_integral,
    green_function,
    h_curve,
    hitting_probabilities,
    make_bessel_model,
    model_from_coefficients,
    model_from_csv,
    model_from_scale,
    validate_model,
)
from .bessel import (
    GOLDEN_RATIO,
    StoppedDistribution,
    bessel_characteristic,
    bessel_characteristic_derivative,
    bessel_lambda,
    bessel_lambda_bisect,
    bessel_value,
    make_stopped_distribution,
    stopped_cdf,
    stopped_cdf_general,
    stopped_mean,
    stopped_pdf,
    stopped_quantile,
)
from .boundary import (
    Boundary,
    boundary_from_csv,
    boundary_ode_rhs,
    boundary_to_csv,
    free_boundary_residuals,
    line_boundary,
    minimal_boundary,
    shoot_from_h,
    value_function_numeric,
)
from .simulate import (
    BatchResult,
    MonteCarloEstimate,
    PathOutcome,
    PathStream,
    RuleComparison,
    StoppingRule,
    compare_rules,
    estimate_future_min_prob,
    estimate_objective,
    make_path_stream,
    sample_stopped_distribution,
    simulate_path,
    simulate_rules,
)
from .cev import (
    CevModel,
    FibonacciLevels,
    cev_inverse_transform,
    cev_rule_threshold,
    cev_transform,
    direct_stopped_samples,
    fibonacci_levels,
    martingale_defect_table,
    retracement_fraction,
    simulate_cev_objective,
    transformed_stopped_samples,
)
from .checks import (
    CheckResult,
    cev_checks,
    future_min_checks,
    golden_rule_checks,
    run_checks,
)

__version__ = "0.1.0"

__all__ = [
    "GoldenstopError",
    "DomainError",
    "UnsupportedModelError",
    "NumericalError",
    "SingularPointError",
    "DivergenceError",
    "NoMinimalSolutionError",
    "ConsistencyError",
    "SchemeError",
    "DiffusionModel",
    "make_bessel_model",
    "model_from_scale",
    "model_from_coefficients",
    "model_from_csv",
    "validate_model",
    "c_value",
    "h_curve",
    "hitting_probabilities",
    "green_function",
    "expected_exit_integral",
    "GOLDEN_RATIO",
    "bessel_characteristic",
    "bessel_characteristic_derivative",
    "bessel_lambda",
    "bessel_lambda_bisect",
    "bessel_value",
    "StoppedDistribution",
    "make_stopped_distribution",
    "stopped_cdf",
    "stopped_pdf",
    "stopped_mean",
    "stopped_quantile",
    "stopped_cdf_general",
    "Boundary",
    "line_boundary",
    "boundary_ode_rhs",
    "shoot_from_h",
    "minimal_boundary",
    "value_function_numeric",
    "free_boundary_residuals",
    "boundary_to_csv",
    "boundary_from_csv",
    "StoppingRule",
    "PathOutcome",
    "MonteCarloEstimate",
    "BatchResult",
    "RuleComparison",
    "PathStream",
    "make_path_stream",
    "simulate_path",
    "simulate_rules",
    "estimate_objective",
    "compare_rules",
    "sample_stopped_distribution",
    "estimate_future_min_prob",
    "CevModel",
    "cev_transform",
    "cev_inverse_transform",
    "cev_rule_threshold",
    "retracement_fraction",
    "FibonacciLevels",
    "fibonacci_levels",
    "simulate_cev_objective",
    "transformed_stopped_samples",
    "direct_stopped_samples",
    "martingale_defect_table",
    "CheckResult",
    "golden_rule_checks",
    "future_min_checks",
    "cev_checks",
    "run_checks",
    "__version__",
]
