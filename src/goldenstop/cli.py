"""Command line front end.

Subcommands map one-to-one onto the library surface: `lambda` (optimal
ratio root), `boundary` (free-boundary tables), `value` (closed form vs
quadrature), `distribution` (stopped-state law), `simulate` (Monte Carlo
estimates and the statistical check suite), `cev` (drawdown sweeps on the
price side), `fib` (Fibonacci retracement levels).

Conventions: output goes to stdout, or atomically to --out (temp file in
the target directory, then rename); reruns with equal arguments produce
byte-identical output (fixed column order, no timestamps, reals printed
with 17 significant digits and a "." decimal point).  Exit codes: 0 ok,
2 invalid arguments or domain errors, 3 numerical failures, 4 statistical
check failures.  Every option can also be set through environment
variables with the GOLDENSTOP_ prefix (e.g. GOLDENSTOP_SIMULATE_STEP).
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile

import click
from click.core import ParameterSource

from .bessel import (
    GOLDEN_RATIO,
    bessel_characteristic,
    bessel_lambda,
    bessel_value,
    make_stopped_distribution,
    stopped_mean,
    stopped_quantile,
)
from .boundary import (
    boundary_from_csv,
    line_boundary,
    minimal_boundary,
    value_function_numeric,
)
from .cev import (
    CevModel,
    cev_inverse_transform,
    cev_rule_threshold,
    fibonacci_levels,
    retracement_fraction,
)
from .checks import run_checks
from .diffusion import make_bessel_model
from .errors import DomainError, NumericalError
from .simulate import StoppingRule, compare_rules

__all__ = ["dispatch", "main"]


_G = "%.17g"


def _g(v) -> str:
    return _G % float(v)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _csv_records(records) -> str:
    """CSV of equal-keyed dicts of reals: the keys are the header."""
    return _csv_text(list(records[0]), [[_g(v) for v in r.values()] for r in records])


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_output(out, text: str) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    target = os.path.abspath(out)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(target), prefix=".goldenstop-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def dispatch(body, fmt="csv", out=None, **options) -> int:
    """Run `body(fmt, **options)`, write its text to stdout or atomically to
    `out`, and return its exit code; domain errors map to 2, numerical
    failures to 3."""
    try:
        text, code = body(fmt, **options)
    except (DomainError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except (NumericalError, RuntimeError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 3
    try:
        _write_output(out, text)
    except OSError as exc:
        click.echo(f"error: cannot write output: {exc}", err=True)
        return 2
    return code


# ---------------------------------------------------------------------------
# command bodies (pure: format and options in, (text, exit_code) out)


def _cmd_lambda(fmt, d):
    lam = bessel_lambda(d)
    record = {"d": d, "lambda": lam, "residual": abs(float(bessel_characteristic(d, lam)))}
    return (_json_text(record) if fmt == "json" else _csv_records([record])), 0


def _cmd_boundary(fmt, d, i_min, i_max, grid, shots, ray):
    model = make_bessel_model(d)
    if ray:
        b = line_boundary(model, bessel_lambda(d), i_min, i_max, grid)
    else:
        b = minimal_boundary(model, i_min, i_max, n_grid=grid, n_shots=shots)
    rows = [
        {"i": i, "f": f, "h": h, "f_over_i": f / i}
        for i, f, h in zip(b.i_grid, b.f_grid, b.h_grid)
    ]
    if fmt == "json":
        return _json_text({"provenance": b.provenance, "rows": rows}), 0
    return _csv_records(rows), 0


def _cmd_value(fmt, d, lam, i, x):
    if lam is None:
        lam = bessel_lambda(d)
    closed = bessel_value(d, lam, i, x)
    model = make_bessel_model(d)
    lo = min(i, x) / 4.0
    hi = max(i, x) * 4.0
    b = line_boundary(model, lam, lo, hi, 33)
    numeric = value_function_numeric(model, b, i, x)
    record = {
        "d": d,
        "lam": lam,
        "i": i,
        "x": x,
        "value_closed": closed,
        "value_quadrature": numeric,
        "abs_diff": abs(closed - numeric),
    }
    return (_json_text(record) if fmt == "json" else _csv_records([record])), 0


def _cmd_distribution(fmt, d, lam, x0):
    if lam is None:
        lam = bessel_lambda(d)
    dist = make_stopped_distribution(d, lam, x0)
    qs = [k / 20.0 for k in range(1, 20)]
    quantiles = {f"{q:.2f}": stopped_quantile(dist, q) for q in qs}
    if fmt == "json":
        text = _json_text(
            {
                "d": d,
                "lam": lam,
                "x0": x0,
                "exponent": dist.p,
                "mean": stopped_mean(dist),
                "upper_support": lam * x0,
                "quantiles": quantiles,
            }
        )
    else:
        rows = [
            ["exponent", _g(dist.p)],
            ["mean", _g(stopped_mean(dist))],
            ["upper_support", _g(lam * x0)],
        ]
        rows += [[f"q{k}", _g(quantiles[k])] for k in sorted(quantiles)]
        text = _csv_text(["name", "value"], rows)
    return text, 0


def _parse_rule(text: str, model) -> StoppingRule:
    kind, _, arg = text.partition(":")
    kind = kind.strip().lower()
    arg = arg.strip()
    if kind == "ratio":
        lam = float(arg) if arg else bessel_lambda(model.dim)
        return StoppingRule.ratio_rule(lam)
    if kind == "drawdown":
        kappa = float(arg) if arg else cev_rule_threshold(CevModel(model.dim))
        return StoppingRule.drawdown_rule(kappa)
    if kind == "fixed":
        return StoppingRule.fixed_time_rule(float(arg))
    if kind == "boundary":
        if not arg:
            raise DomainError("boundary rule needs a CSV path: boundary:FILE")
        return StoppingRule.boundary_rule(boundary_from_csv(arg, model=model))
    raise DomainError(
        f"cannot parse rule {text!r}; expected ratio[:LAM], drawdown[:KAPPA], "
        "fixed:T or boundary:FILE"
    )


def _check_table(fmt, results):
    failed = any(not r.passed for r in results)
    if fmt == "json":
        text = _json_text({"checks": [r.row() for r in results], "passed": not failed})
    else:
        rows = [
            [r.name, _g(r.value), _g(r.tolerance), "true" if r.passed else "false"]
            for r in results
        ]
        text = _csv_text(["name", "value", "tolerance", "passed"], rows)
    return text, 4 if failed else 0


def _cmd_simulate(fmt, seed, d, x0, rules, n_paths, step, horizon, scheme, bridge,
                  check, check_groups):
    if check or check_groups:
        # None leaves the suite's own sample size and step in charge
        results = run_checks(
            groups=check_groups or None, n_paths=n_paths, seed=seed, step=step
        )
        return _check_table(fmt, results)
    model = make_bessel_model(d)
    cmp = compare_rules(
        model,
        x0,
        [_parse_rule(t, model) for t in rules or ("ratio",)],
        n_paths=50_000 if n_paths is None else n_paths,
        seed=seed,
        step=1e-4 if step is None else step,
        horizon=horizon,
        scheme=scheme,
        bridge=bridge,
    )
    if fmt == "json":
        text = _json_text({"estimates": cmp.rows()})
    else:
        rows = [
            [e.rule_id, _g(e.mean), _g(e.std_error), str(e.n_paths), str(e.seed), _g(e.step)]
            for e in cmp.estimates
        ]
        text = _csv_text(
            ["rule_id", "mean", "std_error", "n_paths", "seed", "step"], rows
        )
    return text, 0


def _cmd_cev(fmt, seed, d, c_sigma, z0, kappas, n_paths, step, horizon, scheme, bridge):
    cev = CevModel(d, c_sigma)
    kappas = list(kappas) or [2.0, cev_rule_threshold(cev), 4.0]
    model = make_bessel_model(d)
    x0 = cev_inverse_transform(cev, z0)
    rules = [StoppingRule.drawdown_rule(k) for k in kappas]
    cmp = compare_rules(
        model,
        x0,
        rules,
        n_paths=n_paths,
        seed=seed,
        step=step,
        horizon=horizon,
        scheme=scheme,
        bridge=bridge,
    )
    if fmt == "json":
        text = _json_text(
            {
                "d": d,
                "c_sigma": c_sigma,
                "z0": z0,
                "x0": x0,
                "threshold": cev_rule_threshold(cev),
                "retracement": retracement_fraction(),
                "estimates": [
                    dict(kappa=k, **e.to_dict())
                    for k, e in zip(kappas, cmp.estimates)
                ],
            }
        )
    else:
        rows = [
            [_g(k), _g(e.mean), _g(e.std_error)]
            for k, e in zip(kappas, cmp.estimates)
        ]
        text = _csv_text(["kappa", "mean", "std_error"], rows)
    return text, 0


def _cmd_fib(fmt, n):
    levels = fibonacci_levels(n)._asdict()
    limits = dict(zip(levels, (GOLDEN_RATIO**-3, GOLDEN_RATIO**-2, GOLDEN_RATIO**-1)))
    if fmt == "json":
        text = _json_text(
            {"n": n, **levels, "limits": limits, "retracement": retracement_fraction()}
        )
    else:
        rows = [["n", str(n)]]
        rows += [[k, _g(v)] for k, v in levels.items()]
        rows += [[f"{k}_limit", _g(v)] for k, v in limits.items()]
        rows.append(["retracement", _g(retracement_fraction())])
        text = _csv_text(["name", "value"], rows)
    return text, 0


# ---------------------------------------------------------------------------
# click wiring


@click.group(
    context_settings={
        "auto_envvar_prefix": "GOLDENSTOP",
        "help_option_names": ["-h", "--help"],
    }
)
@click.option("--seed", type=int, default=42, show_default=True,
              help="Base RNG seed (dimensionless integer).")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write output atomically to this file instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True, help="Output format.")
@click.pass_context
def main(ctx, seed, out, fmt):
    """Golden-ratio stopping toolkit: roots, boundaries, values, simulation."""
    ctx.obj = {"seed": seed, "out": out, "fmt": fmt}


def _run(ctx, body, **options):
    """Dispatch `body` with the group's --format and --out; exit with its code."""
    ctx.exit(dispatch(body, ctx.obj["fmt"], ctx.obj["out"], **options))


_dim_option = click.option(
    "--dim", "-d", type=float, default=3.0, show_default=True,
    help="Bessel dimension d > 2 (dimensionless).",
)


def _path_options(f):
    """--horizon, --scheme and --bridge/--no-bridge, shared by simulate and cev."""
    f = click.option("--bridge/--no-bridge", default=True, show_default=True,
                     help="Sample sub-step minima from the diffusion bridge.")(f)
    f = click.option("--scheme", type=click.Choice(["euler", "exact"]), default="euler",
                     show_default=True, help="Path discretisation scheme.")(f)
    return click.option("--horizon", type=float, default=50.0, show_default=True,
                        help="Hard simulation horizon (time units).")(f)


@main.command("lambda")
@_dim_option
@click.pass_context
def lambda_cmd(ctx, dim):
    """Optimal stop-ratio threshold and its characteristic residual."""
    _run(ctx, _cmd_lambda, d=dim)


@main.command("boundary")
@_dim_option
@click.option("--i-min", type=float, default=0.5, show_default=True,
              help="Lower end of the running-minimum grid (state units).")
@click.option("--i-max", type=float, default=2.0, show_default=True,
              help="Upper end of the running-minimum grid (state units).")
@click.option("--grid", type=click.IntRange(min=16), default=129, show_default=True,
              help="Number of grid nodes.")
@click.option("--shots", type=click.IntRange(min=1, max=12), default=6,
              show_default=True,
              help="Number of progressively deeper shooting starts.")
@click.option("--ray", is_flag=True, default=False,
              help="Use the closed-form straight-ray boundary instead of shooting.")
@click.pass_context
def boundary_cmd(ctx, dim, **options):
    """Stopping boundary table: columns i, f, h and the ratio f/i."""
    if options["ray"] and ctx.get_parameter_source("shots") is not ParameterSource.DEFAULT:
        raise click.UsageError("--shots conflicts with --ray: it sets the shooting solver, which --ray skips")
    _run(ctx, _cmd_boundary, d=dim, **options)


@main.command("value")
@_dim_option
@click.option("--lam", type=float, default=None,
              help="Stop-ratio threshold (> 1); defaults to the optimal root.")
@click.option("--i", "i_", type=float, default=1.0, show_default=True,
              help="Running minimum (state units).")
@click.option("--x", "x_", type=float, default=1.0, show_default=True,
              help="Current state (state units, x >= i).")
@click.pass_context
def value_cmd(ctx, dim, lam, i_, x_):
    """Expected-loss value at (i, x): closed form and quadrature side by side."""
    _run(ctx, _cmd_value, d=dim, lam=lam, i=i_, x=x_)


@main.command("distribution")
@_dim_option
@click.option("--lam", type=float, default=None,
              help="Stop-ratio threshold (> 1); defaults to the optimal root.")
@click.option("--x0", type=float, default=1.0, show_default=True,
              help="Starting state (state units).")
@click.pass_context
def distribution_cmd(ctx, dim, **options):
    """Law of the stopped state: exponent, mean, quantiles."""
    _run(ctx, _cmd_distribution, d=dim, **options)


# simulate options that only a plain estimate reads, as (parameter, flag)
_PLAIN_ONLY = (("dim", "--dim"), ("x0", "--x0"), ("rules", "--rule"), ("horizon", "--horizon"),
               ("scheme", "--scheme"), ("bridge", "--bridge/--no-bridge"))


@main.command("simulate")
@_dim_option
@click.option("--x0", type=float, default=1.0, show_default=True,
              help="Starting state (state units).")
@click.option("--rule", "rules", multiple=True,
              help="Stopping rule, repeatable: ratio[:LAM], drawdown[:KAPPA], "
                   "fixed:T (time units) or boundary:FILE (CSV). "
                   "Default: ratio at the optimal threshold.")
@click.option("--n-paths", type=click.IntRange(min=1), default=None,
              help="Monte Carlo sample size.  [default: 50000]")
@click.option("--step", type=float, default=None,
              help="Time step of the scheme (time units).  [default: 0.0001]")
@_path_options
@click.option("--check", is_flag=True, default=False,
              help="Run the statistical certification suite instead of a plain "
                   "estimate; exit code 4 if any check fails.  Only --n-paths, "
                   "--step and --seed apply to the suite; setting --dim, --x0, "
                   "--rule, --horizon, --scheme or --bridge/--no-bridge with it "
                   "is a usage error.")
@click.option("--checks", "check_groups", multiple=True,
              help="Run only these groups of the suite (golden-rule, future-min, "
                   "cev); repeatable; implies --check.")
@click.pass_context
def simulate_cmd(ctx, dim, **options):
    """Monte Carlo objective estimates, or the statistical check suite."""
    if options["check"] or options["check_groups"]:
        ignored = [flag for name, flag in _PLAIN_ONLY
                   if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT]
        if ignored:
            raise click.UsageError(
                f"{', '.join(ignored)} cannot be combined with --check/--checks: "
                "the suite fixes its own models, rules and horizons"
            )
    _run(ctx, _cmd_simulate, seed=ctx.obj["seed"], d=dim, **options)


@main.command("cev")
@_dim_option
@click.option("--c-sigma", type=float, default=1.0, show_default=True,
              help="Price-map constant c_sigma > 0 (price units).")
@click.option("--z0", type=float, default=1.0, show_default=True,
              help="Starting price (price units).")
@click.option("--kappa", "kappas", type=float, multiple=True,
              help="Drawdown threshold S/Z > 1, repeatable.  Default sweep: "
                   "2.0, the optimal threshold, 4.0.")
@click.option("--n-paths", type=click.IntRange(min=1), default=50_000,
              show_default=True, help="Monte Carlo sample size.")
@click.option("--step", type=float, default=1e-4, show_default=True,
              help="Time step of the scheme (time units).")
@_path_options
@click.pass_context
def cev_cmd(ctx, dim, **options):
    """Objective sweep over drawdown thresholds on the price side."""
    _run(ctx, _cmd_cev, seed=ctx.obj["seed"], d=dim, **options)


@main.command("fib")
@click.option("--n", type=click.IntRange(min=2), default=12, show_default=True,
              help="Fibonacci index (ratios use F_n against F_{n+1..3}).")
@click.pass_context
def fib_cmd(ctx, n):
    """Fibonacci retracement levels and their golden-ratio limits."""
    _run(ctx, _cmd_fib, n=n)


if __name__ == "__main__":
    main()
