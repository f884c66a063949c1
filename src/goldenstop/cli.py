"""Command line front end.

Subcommands map one-to-one onto the library surface: `lambda` (optimal
ratio root), `boundary` (free-boundary tables), `value` (closed form vs
quadrature), `distribution` (stopped-state law), `simulate` (Monte Carlo
estimates and the statistical check suite), `cev` (drawdown sweeps on the
price side), `fib` (Fibonacci retracement levels).

Conventions: each command builds one document; --format json prints it,
csv prints named columns of its records (reals to 17 significant digits
with a "." decimal point, integers as digits, true/false).  Output goes to
stdout, or atomically to --out (temp file in the target directory, then
rename); reruns with equal arguments produce byte-identical output (fixed
column order, no timestamps).  Exit codes: 0 ok, 2 invalid arguments or
domain errors, 3 numerical failures, 4 statistical check failures.  Every
option can also be set through environment variables with the GOLDENSTOP_
prefix (e.g. GOLDENSTOP_SIMULATE_STEP).
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
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
    Boundary,
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
from .checks import CHECK_GROUPS, run_checks
from .diffusion import _read_columns, h_curve, make_bessel_model
from .errors import DomainError, NumericalError
from .simulate import StoppingRule, compare_rules

__all__ = ["dispatch", "main"]


def _cell(v) -> str:
    """One CSV cell: true/false for a bool, the digits of an integer (exact
    past 2^53, where %.17g is not), text as is, any other real to 17
    significant digits."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, str)):
        return str(v)
    return "%.17g" % v


def _csv_text(columns, records) -> str:
    """Header ``columns``, then per record its values under those names."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows([_cell(r[c]) for c in columns] for r in records)
    return buf.getvalue()


def _json_text(obj) -> str:
    """Strict JSON (RFC 8259): a non-finite value raises ValueError."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_output(out, text: str) -> None:
    if out is None:
        click.echo(text, nl=False, file=sys.stdout)  # not click's cached stream, which keeps it alive
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
    """Run `body(**options)`, which returns (doc, columns, records, code);
    render `doc` as JSON or, for "csv", the named `columns` of `records`;
    write the text to stdout or atomically to `out` and return `code`.
    Domain errors map to 2, numerical failures to 3."""
    try:
        doc, columns, records, code = body(**options)
        text = _json_text(doc) if fmt == "json" else _csv_text(columns, records)
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
# command bodies (pure: options in, (doc, columns, records, exit_code) out)


def _named(pairs):
    """Records of a name,value table."""
    return [{"name": k, "value": v} for k, v in pairs]


def _cmd_lambda(d):
    lam = bessel_lambda(d)
    record = {"d": d, "lambda": lam, "residual": abs(float(bessel_characteristic(d, lam)))}
    return record, list(record), [record], 0


def _cmd_boundary(d, i_min, i_max, grid, shots, ray):
    model = make_bessel_model(d)
    if ray:
        b = line_boundary(model, bessel_lambda(d), i_min, i_max, grid)
    else:
        b = minimal_boundary(model, i_min, i_max, n_grid=grid, n_shots=shots)
    rows = [
        {"i": i, "f": f, "h": h, "f_over_i": f / i}
        for i, f, h in zip(b.i_grid, b.f_grid, b.h_grid)
    ]
    return {"provenance": b.provenance, "rows": rows}, ["i", "f", "h", "f_over_i"], rows, 0


def _cmd_value(d, lam, i, x):
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
    return record, list(record), [record], 0


def _cmd_distribution(d, lam, x0):
    if lam is None:
        lam = bessel_lambda(d)
    dist = make_stopped_distribution(d, lam, x0)
    quantiles = {f"{k / 20.0:.2f}": stopped_quantile(dist, k / 20.0) for k in range(1, 20)}
    doc = {
        "d": d,
        "lam": lam,
        "x0": x0,
        "exponent": dist.p,
        "mean": stopped_mean(dist),
        "upper_support": lam * x0,
        "quantiles": quantiles,
    }
    pairs = [(k, doc[k]) for k in ("exponent", "mean", "upper_support")]
    pairs += [(f"q{k}", v) for k, v in quantiles.items()]
    return doc, ["name", "value"], _named(pairs), 0


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
        # the table `boundary` writes; h comes from the running model, not the file
        i, f = _read_columns(arg, "boundary file", ("i", "f"))
        return StoppingRule.boundary_rule(Boundary(i, f, h_curve(model, i), "imported"))
    raise DomainError(
        f"cannot parse rule {text!r}; expected ratio[:LAM], drawdown[:KAPPA], "
        "fixed:T or boundary:FILE"
    )


def _cmd_simulate(seed, d, x0, rules, n_paths, step, check, check_groups, **path):
    if check or check_groups:
        # None leaves the suite's own sample size and step in charge
        rows = [r.row() for r in run_checks(
            groups=check_groups or None, n_paths=n_paths, seed=seed, step=step
        )]
        passed = all(r["passed"] for r in rows)
        doc = {"checks": rows, "passed": passed}
        return doc, ["name", "value", "tolerance", "passed"], rows, 0 if passed else 4
    model = make_bessel_model(d)
    cmp = compare_rules(
        model,
        x0,
        [_parse_rule(t, model) for t in rules or ("ratio",)],
        n_paths=50_000 if n_paths is None else n_paths,
        seed=seed,
        step=1e-4 if step is None else step,
        **path,
    )
    rows = cmp.rows()
    return {"estimates": rows}, ["rule_id", "mean", "std_error", "n_paths", "seed", "step"], rows, 0


def _cmd_cev(d, c_sigma, z0, kappas, **sampling):
    cev = CevModel(d, c_sigma)
    threshold = cev_rule_threshold(cev)
    kappas = list(kappas) or [2.0, threshold, 4.0]
    x0 = cev_inverse_transform(cev, z0)
    rules = [StoppingRule.drawdown_rule(k) for k in kappas]
    cmp = compare_rules(make_bessel_model(d), x0, rules, **sampling)
    rows = [dict(kappa=k, **e.to_dict()) for k, e in zip(kappas, cmp.estimates)]
    doc = {
        "d": d,
        "c_sigma": c_sigma,
        "z0": z0,
        "x0": x0,
        "threshold": threshold,
        "retracement": retracement_fraction(),
        "estimates": rows,
    }
    return doc, ["kappa", "mean", "std_error"], rows, 0


def _cmd_fib(n):
    levels = fibonacci_levels(n)._asdict()
    limits = dict(zip(levels, (GOLDEN_RATIO**-3, GOLDEN_RATIO**-2, GOLDEN_RATIO**-1)))
    doc = {"n": n, **levels, "limits": limits, "retracement": retracement_fraction()}
    pairs = [("n", n), *levels.items(), *((f"{k}_limit", v) for k, v in limits.items()),
             ("retracement", doc["retracement"])]
    return doc, ["name", "value"], _named(pairs), 0


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


def _reject_given(ctx, names, reason):
    """UsageError naming every option among ``names`` that the command line
    or the environment set, followed by ``reason``."""
    flags = ["/".join(p.opts[:1] + p.secondary_opts) for p in ctx.command.params
             if p.name in names and ctx.get_parameter_source(p.name) is not ParameterSource.DEFAULT]
    if flags:
        raise click.UsageError(f"{', '.join(flags)} {reason}")


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
    if options["ray"]:
        _reject_given(ctx, {"shots"}, "conflicts with --ray: it sets the shooting solver, which --ray skips")
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


@main.command("simulate")
@_dim_option
@click.option("--x0", type=float, default=1.0, show_default=True,
              help="Starting state (state units).")
@click.option("--rule", "rules", multiple=True,
              help="Stopping rule, repeatable: ratio[:LAM], drawdown[:KAPPA], "
                   "fixed:T (time units) or boundary:FILE (CSV). "
                   "Default: ratio at the optimal threshold.")
@click.option("--n-paths", type=click.IntRange(min=2), default=None,
              help="Monte Carlo sample size.  [default: 50000]")
@click.option("--step", type=float, default=None,
              help="Time step of the scheme (time units).  [default: 0.0001]")
@_path_options
@click.option("--check", is_flag=True, default=False,
              help="Run the statistical certification suite instead of a plain "
                   "estimate; exit code 4 if any check fails.  Only --n-paths, "
                   "--step and --seed apply to the suite; setting any other "
                   "simulate option with it is a usage error.")
@click.option("--checks", "check_groups", multiple=True,
              help=f"Run only these groups of the suite ({', '.join(CHECK_GROUPS)}); "
                   "repeatable; implies --check.")
@click.pass_context
def simulate_cmd(ctx, dim, **options):
    """Monte Carlo objective estimates, or the statistical check suite."""
    if options["check"] or options["check_groups"]:
        # the suite reads only these; every other option sets a plain estimate
        suite = {"n_paths", "step", "check", "check_groups"}
        _reject_given(ctx, {p.name for p in ctx.command.params} - suite,
                    "cannot be combined with --check/--checks: "
                    "the suite fixes its own models, rules and horizons")
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
@click.option("--n-paths", type=click.IntRange(min=2), default=50_000,
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
