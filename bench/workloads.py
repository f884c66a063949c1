"""The four benchmark workloads: inputs from a seed, a timed unit, grading.

Every workload is a closed loop with one client: the child process calls
``unit(prepare(k))`` for k = 0, 1, ... back to back in one thread, each
call waiting for the previous one.  ``prepare(k)`` builds the inputs of
unit k outside the timer: the seed ``unit_seed(seed, k)`` or queries
drawn from ``(seed, k)``.  ``unit`` hands them to the program, nothing
else.

``grade`` runs after the timed body.  It returns one row per graded
operation: ``{"name", "value", "tolerance", "passed", "detail", "hard"}``.
Hard rows grade deterministic outputs (a failure means a wrong output);
soft rows are statistical verdicts, recorded verbatim.  Both count in
``failed``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import time

import numpy as np

from goldenstop import bessel, boundary, cev, checks, cli, diffusion, simulate

# per-scale parameters; "tiny" only serves the smoke tests
SCALES = {
    "full": {
        "gc": dict(n_paths=16_384, step=1e-3, horizon=50.0),
        "dip": dict(n_paths=4096, step=1e-3, horizon=20.0),
        "cev": dict(n_paths=10_000, step=1e-3, horizon=30.0),
        "mart": dict(n_paths=1000, step=1e-3, horizons=(1.0, 2.0, 4.0)),
        # 28 times the successful calls the tier-1 tests make to each entry
        # point (5, 1, 1, 1, 6, 13, 8, 1; query_mix.py counts them), the
        # smallest multiple of their 36 that reaches 1,000 queries; plus the
        # one custom-model minimal boundary
        "queries": {
            "cli-lambda": 140,
            "cli-value": 28,
            "cli-distribution": 28,
            "cli-boundary": 28,
            "cdf-general": 168,
            "residuals": 364,
            "hitting": 224,
            "exit-integral": 28,
            "custom-boundary": 1,
        },
        # executions of each fast query per unit (see SolverQueries)
        "query_repeats": 10,
        "replays_per_pass": 3,
    },
    "tiny": {
        "gc": dict(n_paths=64, step=1e-2, horizon=5.0),
        "dip": dict(n_paths=64, step=1e-2, horizon=2.0),
        "cev": dict(n_paths=64, step=1e-2, horizon=3.0),
        "mart": dict(n_paths=32, step=1e-2, horizons=(0.5, 1.0)),
        "queries": {
            "cli-lambda": 2,
            "cli-value": 2,
            "cli-distribution": 2,
            "cli-boundary": 1,
            "cdf-general": 2,
            "residuals": 2,
            "hitting": 2,
            "exit-integral": 2,
            "custom-boundary": 0,
        },
        "query_repeats": 2,
        "replays_per_pass": 1,
    },
}


def unit_seed(seed: int, k: int) -> int:
    """Program seed of unit k; unit 0 runs at the benchmark seed itself."""
    return seed + k * 2**32


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _check_rows(results):
    # a zero tolerance asks for an exact identity (drawdown-step-identity),
    # not a verdict on a sample, so breaking it is a wrong output
    return [dict(r.row(), hard=r.tolerance == 0.0) for r in results]


def verdict(rows):
    """(correct, attempted, failed) over graded rows: every row counts in
    ``failed``; only a failed hard row makes the run incorrect."""
    return (all(r["passed"] for r in rows if r["hard"]), len(rows),
            sum(not r["passed"] for r in rows))


# ---------------------------------------------------------------------------
# Monte Carlo workloads: one check-group call (plus a table on cev-routes)


class CheckGroup:
    """One call of the check group ``checks.<fn_name>`` per unit."""

    monte_carlo = True

    def __init__(self, fn_name, scale_key, seed, scale):
        self.fn_name, self.seed, self.p = fn_name, seed, SCALES[scale][scale_key]

    def prepare(self, k):
        return unit_seed(self.seed, k)

    def unit(self, s):
        # looked up per call, so a traced run calls the tracer's wrapper
        rows, dt = _timed(getattr(checks, self.fn_name), seed=s, **self.p)
        return [dt], rows

    def grade(self, raw):
        return _check_rows(raw)


class CevRoutes(CheckGroup):
    """Both price routes, fixed-time rules and the exact (gamma) scheme."""

    def __init__(self, seed, scale):
        super().__init__("cev_checks", "cev", seed, scale)
        self.mart = SCALES[scale]["mart"]

    def unit(self, s):
        (dt1,), rows = super().unit(s)
        table, dt2 = _timed(
            cev.martingale_defect_table, cev.CevModel(3.0, 1.0), 1.0,
            self.mart["horizons"], n_paths=self.mart["n_paths"], seed=s,
            step=self.mart["step"], scheme="exact",
        )
        return [dt1, dt2], (rows, table)

    def grade(self, raw):
        rows, table = raw
        out = super().grade(rows)
        for r in table:
            # d=3, c_sigma=1, z0=1: E[Z_T] = erf(1/sqrt(2T)); the exact
            # scheme has no discretisation bias, so the unit test's
            # 4 se + 0.005 allowance applies
            target = math.erf(1.0 / math.sqrt(2.0 * r["horizon"]))
            dev = abs(r["mean_price"] - target)
            tol = 4.0 * r["std_error"] + 0.005
            out.append(dict(
                name=f"martingale-defect-T{r['horizon']:g}", value=dev,
                tolerance=tol, passed=dev <= tol, hard=False,
                detail=f"mean price {r['mean_price']:.5f} vs erf oracle {target:.5f}",
            ))
        return out


# ---------------------------------------------------------------------------
# solver queries: no Monte Carlo at all


def _cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(args, standalone_mode=False)
    rows = list(csv.reader(buf.getvalue().splitlines()))
    return code, rows


def _strata(rng, n, lo, hi):
    """n jittered-stratified draws on [lo, hi]: seeded, but evenly spread,
    so the query mix (and its slow tail) barely moves between seeds."""
    return lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n


def _lam(d):
    return bessel.bessel_lambda_bisect(d)


def _gen_dims(rng, n):
    return [dict(d=float(d)) for d in _strata(rng, n, 2.5, 10.0)]


def _run_lambda(q):
    return _cli(["lambda", "--dim", repr(q["d"])])


def _grade_lambda(q, out):
    code, rows = out
    lam, resid = float(rows[1][1]), float(rows[1][2])
    dev = abs(lam - _lam(q["d"]))
    ok = code == 0 and resid <= 1e-9 and lam > 2.0 ** (1.0 / (q["d"] - 2.0))
    return dev, 1e-9, ok and dev <= 1e-9


def _gen_value(rng, n):
    out = []
    for d in _strata(rng, n, 2.5, 10.0):
        i = float(rng.uniform(0.3, 2.0))
        x = float(rng.uniform(i, 1.3 * _lam(d) * i))
        out.append(dict(d=float(d), i=i, x=x))
    return out


def _run_value(q):
    return _cli(["value", "--dim", repr(q["d"]), "--i", repr(q["i"]), "--x", repr(q["x"])])


def _grade_value(q, out):
    code, rows = out
    diff = float(rows[1][6])
    return diff, 1e-8, code == 0 and diff <= 1e-8


def _gen_distribution(rng, n):
    return [dict(d=float(d), x0=float(rng.uniform(0.5, 2.0))) for d in _strata(rng, n, 2.5, 10.0)]


def _run_distribution(q):
    return _cli(["distribution", "--dim", repr(q["d"]), "--x0", repr(q["x0"])])


def _grade_distribution(q, out):
    # the stopped state has CDF (y/u)^p on (0, u] with u = lam x0 and
    # p = (d-2)/(1 - lam^-(d-2)); check the table against those identities
    code, rows = out
    vals = {name: float(v) for name, v in rows[1:]}
    d, lam = q["d"], _lam(q["d"])
    u, p = vals["upper_support"], vals["exponent"]
    p_ref = (d - 2.0) / (1.0 - lam ** (-(d - 2.0)))
    errs = [abs(u - lam * q["x0"]) / u, abs(p - p_ref) / p_ref,
            abs(vals["mean"] - u * p / (p + 1.0)) / u]
    errs += [abs((v / u) ** p - float(k[1:])) for k, v in vals.items() if k.startswith("q")]
    err = max(errs)
    return err, 1e-9, code == 0 and err <= 1e-9


def _run_boundary(q):
    return _cli(["boundary", "--dim", repr(q["d"])])


def _grade_boundary(q, out):
    # criterion 03: the shot limit lies within 1e-2 of the ray lam(d) i
    code, rows = out
    lam = _lam(q["d"])
    err = max(abs(float(r[3]) - lam) for r in rows[1:])
    return err, 1e-2, code == 0 and len(rows) > 1 and err <= 1e-2


def _gen_cdf(rng, n):
    return [dict(d=float(d), y_frac=float(rng.uniform(0.2, 0.95))) for d in _strata(rng, n, 2.5, 10.0)]


def _run_cdf(q):
    model = diffusion.make_bessel_model(q["d"])
    lam = bessel.bessel_lambda(q["d"])
    b = boundary.line_boundary(model, lam, 0.05, 4.0)
    return bessel.stopped_cdf_general(model, b, 1.0, q["y_frac"] * lam)


def _grade_cdf(q, out):
    lam = _lam(q["d"])
    ref = float(bessel.stopped_cdf(bessel.make_stopped_distribution(q["d"], lam, 1.0), q["y_frac"] * lam))
    err = abs(out - ref)
    return err, 1e-6, err <= 1e-6


def _gen_residuals(rng, n):
    return [dict(i=float(i), frac=float(rng.uniform(0.35, 0.7))) for i in _strata(rng, n, 0.55, 1.9)]


def _run_residuals(q):
    # the ray at lam(3) is the minimal boundary of the d=3 Bessel model
    model = diffusion.make_bessel_model(3.0)
    b = boundary.line_boundary(model, bessel.bessel_lambda(3.0), 0.5, 2.0)
    i = q["i"]
    x = i + q["frac"] * (float(b(i)) - i)
    return boundary.free_boundary_residuals(model, b, i, x)


def _grade_residuals(q, out):
    # criterion 05: pde <= 1e-4, smooth fit and reflection <= 1e-3
    pde, smooth, refl = (abs(v) for v in out)
    worst = max(pde / 1e-4, smooth / 1e-3, refl / 1e-3)  # share of each bound
    return worst, 1.0, worst <= 1.0


def _gen_interval(rng, n):
    out = []
    for d in _strata(rng, n, 2.5, 10.0):
        a = float(rng.uniform(0.5, 1.5))
        b = a * float(rng.uniform(1.5, 4.0))
        out.append(dict(d=float(d), a=a, x=float(rng.uniform(a, b)), b=b))
    return out


def _run_hitting(q):
    model = diffusion.make_bessel_model(q["d"])
    return diffusion.hitting_probabilities(model, q["a"], q["x"], q["b"])


def _grade_hitting(q, out):
    p_a, p_b = out
    d, a, x, b = q["d"], q["a"], q["x"], q["b"]
    ref = (a ** (2.0 - d) - x ** (2.0 - d)) / (a ** (2.0 - d) - b ** (2.0 - d))
    err = abs(p_b - ref)
    return err, 1e-12, err <= 1e-12 and p_a + p_b == 1.0


def _run_exit(q):
    model = diffusion.make_bessel_model(q["d"])
    return diffusion.expected_exit_integral(model, np.ones_like, q["a"], q["x"], q["b"])


def _grade_exit(q, out):
    # E tau by the martingale X^2 - d t: (p_a a^2 + p_b b^2 - x^2) / d
    d, a, x, b = q["d"], q["a"], q["x"], q["b"]
    p_b = (a ** (2.0 - d) - x ** (2.0 - d)) / (a ** (2.0 - d) - b ** (2.0 - d))
    ref = ((1.0 - p_b) * a * a + p_b * b * b - x * x) / d
    err = abs(out - ref)
    return err, 1e-9, err <= 1e-9


def _gen_custom(rng, n):
    return [dict(d=3.0)] * n


def _run_custom(q):
    ref = diffusion.make_bessel_model(q["d"])
    model = diffusion.model_from_coefficients(ref.drift, ref.volatility)
    b = boundary.minimal_boundary(model, 0.5, 2.0)
    return b.f_grid / b.i_grid


def _grade_custom(q, out):
    err = float(np.max(np.abs(out - _lam(q["d"]))))
    return err, 1e-2, err <= 1e-2


QUERY_KINDS = {
    "cli-lambda": (_gen_dims, _run_lambda, _grade_lambda),
    "cli-value": (_gen_value, _run_value, _grade_value),
    "cli-distribution": (_gen_distribution, _run_distribution, _grade_distribution),
    "cli-boundary": (_gen_dims, _run_boundary, _grade_boundary),
    "cdf-general": (_gen_cdf, _run_cdf, _grade_cdf),
    "residuals": (_gen_residuals, _run_residuals, _grade_residuals),
    "hitting": (_gen_interval, _run_hitting, _grade_hitting),
    "exit-integral": (_gen_interval, _run_exit, _grade_exit),
    "custom-boundary": (_gen_custom, _run_custom, _grade_custom),
}


# the slow tail: shooting solves that make up most of a unit's time and
# all of query_p99_ms; each runs once per unit
RUN_ONCE = ("cli-boundary", "custom-boundary")


def _same(a, b):
    """Bit-equality of two outputs of one query."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return (isinstance(b, type(a)) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return bool(a == b)


class SolverQueries:
    """A seeded mix of CLI and library solver queries, run in shuffled order.

    Each fast query runs ``query_repeats`` times per unit, its executions
    spread over the unit by the shuffle; its latency is its fastest
    execution.  A shared 2-core Intel Xeon virtual machine changes speed by
    up to 30% from one second to the next, and a sub-millisecond call timed
    once carries that change; the fastest of several executions far apart
    in time carries much less of it (see README.md, *Noise and bounds*).
    """

    monte_carlo = False

    def __init__(self, seed, scale):
        self.seed, self.counts = seed, SCALES[scale]["queries"]
        self.repeats = SCALES[scale]["query_repeats"]

    def prepare(self, k):
        rng = np.random.default_rng([self.seed, k])
        qs = [(kind, q) for kind, n in self.counts.items()
              for q in QUERY_KINDS[kind][0](rng, n)]
        order = [j for j, (kind, _) in enumerate(qs)
                 for _ in range(1 if kind in RUN_ONCE else self.repeats)]
        return qs, [order[i] for i in rng.permutation(len(order))]

    def unit(self, inputs):
        qs, order = inputs
        times, outs = [[] for _ in qs], [[] for _ in qs]
        for j in order:
            kind, q = qs[j]
            t0 = time.perf_counter()
            try:
                out = QUERY_KINDS[kind][1](q)
            except Exception as exc:  # graded as a failed query below
                out = exc
            times[j].append(time.perf_counter() - t0)
            outs[j].append(out)
        lat = [min(t) for t in times]
        return lat, list(zip(qs, outs, lat))

    @staticmethod
    def executed(raw):
        return sum(len(outs) for _, outs, _ in raw)

    def grade(self, raw):
        rows = []
        for (kind, q), outs, dt in raw:
            value, tol, ok = math.inf, 0.0, False
            bad = next((o for o in outs if isinstance(o, Exception)), None)
            if bad is not None:
                detail = f"raised {bad!r}"
            elif not all(_same(outs[0], o) for o in outs[1:]):
                detail = f"{len(outs)} executions disagree"
            else:
                try:
                    value, tol, ok = QUERY_KINDS[kind][2](q, outs[0])
                    detail = ""
                except (ValueError, IndexError, KeyError) as exc:
                    detail = f"malformed output: {exc!r}"
            rows.append(dict(name=kind, value=value, tolerance=tol, passed=bool(ok),
                             detail=detail or repr(q), hard=True, seconds=dt))
        return rows


WORKLOADS = {
    # star pass plus the 5-rule common-random-numbers sweep pass
    "golden-cert": functools.partial(CheckGroup, "golden_rule_checks", "gc"),
    # future-minimum probe at d=3 and d=4; most lanes live to the horizon
    "dip-horizon": functools.partial(CheckGroup, "future_min_checks", "dip"),
    "cev-routes": CevRoutes,
    "solver-queries": SolverQueries,
}


# ---------------------------------------------------------------------------
# replay gate


def replay_gate(passes, seed, per_pass):
    """Replay seeded (rule, path) rows of each engine pass one path at a time.

    By the stream contract, ``simulate_path(..., make_path_stream(seed, k))``
    reproduces row k of a batch bit for bit, so every field must compare
    equal.  Returns one hard row per replay.
    """
    rows = []
    for n, ep in enumerate(passes):
        a, res = ep.args, ep.result
        n_rules, n_paths = res.stop_step.shape
        rng = np.random.default_rng([seed, n])
        for _ in range(per_pass):
            j, k = int(rng.integers(n_rules)), int(rng.integers(n_paths))
            name = f"replay pass {n} rule {j} path {k}"
            try:
                out = simulate.simulate_path(
                    a["model"], a["x0"], a["step"], a["rules"][j], a["horizon"],
                    simulate.make_path_stream(a["seed"], k),
                    scheme=a["scheme"], bridge=a["bridge"],
                )
            except Exception as exc:  # a replay that raises is a mismatch
                rows.append(dict(name=name, value=math.inf, tolerance=0.0, passed=False,
                                 detail=f"raised {exc!r}", hard=True))
                continue
            fields = {
                "stop_step": out.n_steps == res.stop_step[j, k],
                "x_stop": out.x_stop == res.x_stop[j, k],
                "i_stop": out.i_stop == res.i_stop[j, k],
                "objective": out.objective_integral == res.objective[j, k],
                "theta_step": out.theta_proxy == float(res.theta_step[j, k]) * a["step"],
                "truncated": out.truncated == bool(res.truncated[j, k]),
            }
            bad = [f for f, same in fields.items() if not same]
            rows.append(dict(name=name, value=float(len(bad)), tolerance=0.0,
                             passed=not bad, hard=True,
                             detail="bit-identical" if not bad else "differs in " + ",".join(bad)))
    return rows
