"""Monte Carlo engine for minimum-prediction stopping rules.

Paths of the model are advanced by Euler steps (with an exact
squared-Bessel substep near the origin, where Euler is unstable) or by the
exact Bessel transition every step.  The running minimum can optionally be
sharpened by the Brownian-bridge minimum between grid points, which
removes most of the discrete-monitoring bias of order sqrt(step).

Reproducibility contract
------------------------
Each path owns two counter-based streams, Philox(key=[seed, 2*index]) for
the per-step uniforms and Philox(key=[seed, 2*index + 1]) for the
occasional gamma draws.  Every step consumes exactly two uniforms from the
first stream (one mapped to a normal through the inverse CDF, one for the
bridge minimum) whether or not the bridge is enabled, so the draw a path
sees at step s is a pure function of (seed, index, s).  Results are
therefore bit-identical for any chunking of paths, any block size, any
number of rules evaluated in the same pass, and simulate_path(seed, k)
reproduces path k of a batch run exactly.

Lanes
-----
The engine runs paths on up to _LANE_WIDTH = 8,192 lanes in blocks of
_BLOCK_STEPS = 256 steps.  Inside a block a lane only advances its state;
the first trigger of every pending rule is then found over the block's
history at once.  At each block boundary the lanes whose rules have all
fired, or that reached the horizon, retire and the next path indices take
their places, each lane keeping its own step offset.  A run therefore has
one straggler tail, and by the contract above neither constant changes
any result.

Shards
------
A pass of 2,048 paths or more runs as contiguous path-index shards
[lo, hi) of at least 1,024 paths, one per usable CPU: the first in the
calling process, the others in workers forked from it (none without the
``fork`` start method, or while the caller runs other threads).  The
per-path outputs are merged in path order, so by the contract above the
pass is bit-identical to a serial one.

Rules
-----
Each rule stops once X reaches a function of its running minimum I (lam * I,
a boundary f(I), or a drawdown threshold kappa, which the price map turns
into the ratio kappa^(1/(d-2))), or at a fixed time.  `_trigger` turns a
rule into its vectorised test and `_ratio_of` is the one drawdown-to-ratio
map.  The objective accumulated along a path is int_0^tau c(I_t, X_t) dt by
the trapezoid rule on the step grid; a rule that triggers at t = 0 reports
objective 0.  Every objective estimate is made by `compare_rules`, which
warns once for each rule whose paths hit the horizon more than 1% of the
time.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import warnings
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np
from scipy.special import gammaincinv, ndtri

from .boundary import Boundary
from .diffusion import DiffusionModel, _check_count, _check_real
from .errors import DomainError, SchemeError, _caller_stacklevel

__all__ = [
    "StoppingRule",
    "PathOutcome",
    "MonteCarloEstimate",
    "BatchResult",
    "RuleComparison",
    "PathStream",
    "make_path_stream",
    "simulate_path",
    "simulate_rules",
    "compare_rules",
    "estimate_future_min_prob",
]

# smallest admissible state for a raw Euler step; below it the scheme failed
EULER_FLOOR = 1e-12
# uniforms are clipped here before the inverse normal and gamma CDFs
# (random() is a multiple of 2^-53, so only exact zeros are affected)
_U_FLOOR = 2.0**-53


# ---------------------------------------------------------------------------
# rules


@dataclass(frozen=True)
class StoppingRule:
    """Stopping rule for the minimum-prediction problem.

    Variants: ``ratio`` stops when X >= lam * I; ``boundary`` stops when
    X >= f(I) for a Boundary f; ``drawdown`` stops when the mapped price
    has fallen to 1/kappa of its running maximum, which on the Bessel side
    is the ratio rule with lam = kappa^(1/(d-2)); ``fixed_time`` stops at
    the first grid time >= t (t = 0 stops immediately with objective 0).
    """

    variant: str
    lam: Optional[float] = None
    kappa: Optional[float] = None
    t: Optional[float] = None
    boundary: Optional[Boundary] = None

    def __post_init__(self):
        v = self.variant
        if v == "ratio":
            _check_real("lam", self.lam, 1.0)
        elif v == "drawdown":
            _check_real("kappa", self.kappa, 1.0)
        elif v == "fixed_time":
            _check_real("t", self.t, 0.0, strict=False)
        elif v == "boundary":
            if not isinstance(self.boundary, Boundary):
                raise DomainError("boundary rule needs a Boundary instance")
        else:
            raise DomainError(f"unknown rule variant {v!r}")

    @classmethod
    def ratio_rule(cls, lam: float) -> "StoppingRule":
        return cls(variant="ratio", lam=float(lam))

    @classmethod
    def boundary_rule(cls, boundary: Boundary) -> "StoppingRule":
        return cls(variant="boundary", boundary=boundary)

    @classmethod
    def drawdown_rule(cls, kappa: float) -> "StoppingRule":
        return cls(variant="drawdown", kappa=float(kappa))

    @classmethod
    def fixed_time_rule(cls, t: float) -> "StoppingRule":
        return cls(variant="fixed_time", t=float(t))

    @property
    def rule_id(self) -> str:
        if self.variant == "ratio":
            return f"ratio(lam={self.lam:.17g})"
        if self.variant == "drawdown":
            return f"drawdown(kappa={self.kappa:.17g})"
        if self.variant == "fixed_time":
            return f"fixed_time(t={self.t:.17g})"
        return f"boundary({self.boundary.provenance})"


@dataclass(frozen=True)
class PathOutcome:
    """Result of one simulated path under one rule (stopped at n_steps * step)."""

    x_stop: float
    i_stop: float
    objective_integral: float
    theta_proxy: float
    n_steps: int
    truncated: bool


@dataclass(frozen=True, eq=False)
class MonteCarloEstimate:
    """Estimator output; extra carries diagnostics (e.g. an analytic share)."""

    mean: float
    std_error: float
    n_paths: int
    seed: int
    step: float
    rule_id: str
    horizon: float = math.inf
    truncated_fraction: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        out.update(out.pop("extra"))
        return out


@dataclass(frozen=True)
class PathStream:
    """Per-path random streams: uniforms for stepping, uniforms for gammas
    (built on first use: Euler paths draw gammas only near the origin)."""

    uniform: np.random.Generator
    seed: int
    index: int

    @functools.cached_property
    def gamma(self) -> np.random.Generator:
        key = np.array([self.seed, 2 * self.index + 1], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def make_path_stream(seed: int, index: int) -> PathStream:
    """Streams for path ``index`` under ``seed``; fresh on every call.

    Both are Python or numpy integers, seed in [0, 2^63) and index in
    [0, 2^62); anything else (a float, a bool, a string) raises DomainError
    rather than being truncated onto another path's stream.
    """
    seed = _check_count("seed", seed, 0, below=2**63)
    index = _check_count("index", index, 0, below=2**62)
    key_u = np.array([seed, 2 * index], dtype=np.uint64)
    return PathStream(uniform=np.random.Generator(np.random.Philox(key=key_u)),
                      seed=seed, index=index)


# ---------------------------------------------------------------------------
# rule preparation


@dataclass(frozen=True)
class _DipProbe:
    """Internal pseudo-rule: fires once the running minimum falls below
    level, or once the state climbs to exit (never, at the default inf)."""

    level: float
    exit: float = math.inf
    variant = "dip"

    @property
    def rule_id(self) -> str:
        return f"future-min(level={self.level:.17g}, exit={self.exit:.17g})"


def _ratio_of(rule, model: DiffusionModel) -> Optional[float]:
    """The lam for which ``rule`` is the ratio rule X >= lam * I, else None.

    A drawdown threshold kappa maps through the Bessel price map to
    lam = kappa^(1/(d-2)); at d = 3 the pow is exactly kappa.
    """
    if rule.variant == "ratio":
        return float(rule.lam)
    if rule.variant != "drawdown":
        return None
    if model.kind != "bessel":
        raise DomainError(
            "drawdown rules are defined through the Bessel price map; "
            f"model kind {model.kind!r} is not supported"
        )
    return float(rule.kappa) ** (1.0 / (model.dim - 2.0))


def _steps(t: float, step: float) -> int:
    """Steps of length ``step`` that reach time t >= 0 (0 at t = 0)."""
    return int(math.ceil(t / step - 1e-9))


def _horizon_steps(horizon: float, step: float) -> int:
    """Step count of a pass to ``horizon``; raises DomainError unless the
    step is finite and positive and the horizon finite and one step or more."""
    if not (step > 0.0 and math.isfinite(step)):
        raise DomainError(f"step={step} (horizon={horizon}) is not finite and positive; pass a step > 0")
    if not (math.isfinite(horizon / step) and _steps(horizon, step) >= 1):
        raise DomainError(
            f"horizon={horizon} at step={step} is not a finite run of at least one step; "
            "pass a finite horizon no shorter than the step"
        )
    return _steps(horizon, step)


def _trigger(rule, model: DiffusionModel, step: float):
    """The rule's vectorised test ``hit(x, i, t)``: state x, running minimum
    i and step index t reached, all broadcast together."""
    if not isinstance(rule, (StoppingRule, _DipProbe)):
        raise DomainError(f"not a stopping rule: {rule!r}")
    lam = _ratio_of(rule, model)
    if lam is not None:
        return lambda x, i, t: x >= lam * i
    if rule.variant == "boundary":
        return lambda x, i, t: x >= rule.boundary(i)
    if rule.variant == "fixed_time":
        k_stop = _steps(rule.t, step)
        return lambda x, i, t: t >= k_stop
    return lambda x, i, t: (i < rule.level) | (x >= rule.exit)


# ---------------------------------------------------------------------------
# engine


class BatchResult:
    """Per-path outputs for each rule of one engine pass (path order).

    ``path_steps_stepped`` counts lane-steps advanced; the rules consumed
    the per-path maximum of ``stop_step``, the rest is block-tail waste.
    """

    def __init__(self, n_rules: int, n_paths: int):
        shape = (n_rules, n_paths)
        self.stop_step = np.zeros(shape, dtype=np.int64)
        self.x_stop = np.zeros(shape)
        self.i_stop = np.zeros(shape)
        self.objective = np.zeros(shape)
        self.theta_step = np.zeros(shape, dtype=np.int64)
        self.truncated = np.zeros(shape, dtype=bool)
        self.path_steps_stepped = 0


# a narrower shard costs more in fork round trip and straggler tail than it saves
_MIN_SHARD_PATHS = 1024
# lanes stepped side by side, and steps per block between lane refills
_LANE_WIDTH = 8192
_BLOCK_STEPS = 256


def _shards(n_paths, cpus):
    """[lo, hi) ranges tiling [0, n_paths): one per CPU, none below the minimum."""
    k = max(1, min(cpus, n_paths // _MIN_SHARD_PATHS))
    return [(n_paths * s // k, n_paths * (s + 1) // k) for s in range(k)]


def _adopt(run):
    global _job  # set in forked shard workers only
    _job = run


def _run_adopted(lo, hi):
    return _job(lo, hi)


def _sharded(run, n_paths):
    """``run(lo, hi)`` over [0, n_paths), one path-index shard per usable CPU.

    This process runs the first shard, forked workers the others: ``run``
    reaches them by the fork, not by pickle.  Shard results are merged by
    path index (array attributes concatenated on the last axis, integers
    summed); the lowest-indexed failing shard's exception is re-raised.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    shards = _shards(n_paths, cpus)
    # forking a process that runs other threads can deadlock the child
    if len(shards) < 2 or threading.active_count() > 1:
        return run(0, n_paths)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return run(0, n_paths)

    with ProcessPoolExecutor(len(shards) - 1, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(run,)) as pool:
        futures = [pool.submit(_run_adopted, lo, hi) for lo, hi in shards[1:]]
        parts = [run(*shards[0])] + [f.result() for f in futures]
    out = parts[0]
    for key, v in vars(out).items():
        vals = [vars(p)[key] for p in parts]
        if isinstance(v, np.ndarray):
            setattr(out, key, np.concatenate(vals, axis=-1))
        elif isinstance(v, int):
            setattr(out, key, sum(vals))
    return out


def _lane_blocks(seed, lo, hi, n_max, init):
    """Admit/fill/retire iterator behind every path-advancing loop.

    Up to ``_LANE_WIDTH`` lanes run the paths [lo, hi) side by side.  A lane
    is one path: its index, streams, step offset and state arrays (one per
    name in ``init``, lane axis last, admitted at the ``init`` value).  Each
    yield is one block of ``steps`` <= ``_BLOCK_STEPS`` steps with its draws
    made: ``z`` and ``u`` are (steps, lanes) arrays of each step's normal
    increment and floored bridge uniform, and ``t`` the step index each row
    reaches.  The caller advances ``state`` and marks ``done`` the lanes it
    has finished; at the next boundary those and the lanes that reached
    ``n_max`` retire and new paths take their places.
    """
    col = {k: np.asarray(v)[..., None] for k, v in init.items()}
    ln = SimpleNamespace(index=np.zeros(0, dtype=np.int64), offset=np.zeros(0, dtype=np.int64),
                         streams=[], done=np.zeros(0, dtype=bool),
                         state={k: c[..., :0] for k, c in col.items()})
    admitted = lo
    while True:
        keep = ~ln.done & (ln.offset < n_max)
        first, admitted = admitted, min(admitted + _LANE_WIDTH - int(keep.sum()), hi)
        new = np.arange(first, admitted)
        ln.streams = [s for s, kp in zip(ln.streams, keep) if kp] + [
            make_path_stream(seed, p) for p in new]
        ln.index = np.concatenate([ln.index[keep], new])
        ln.offset = np.concatenate([ln.offset[keep], np.zeros(new.size, dtype=np.int64)])
        ln.state = {k: np.concatenate([v[..., keep], np.repeat(col[k], new.size, -1)], -1)
                    for k, v in ln.state.items()}
        m = ln.index.size
        if m == 0:
            return
        # no lane steps past n_max: the block ends where the oldest lane's run does
        ln.steps = B = min(_BLOCK_STEPS, n_max - int(ln.offset.max()))
        ln.z = ln.u = ln.t = None
        U = np.empty((m, 2 * B))
        for r, st in enumerate(ln.streams):
            st.uniform.random(out=U[r])
        ln.z = ndtri(np.maximum(U[:, 0::2].T, _U_FLOOR, out=np.empty((B, m))))
        ln.u = np.maximum(U[:, 1::2].T, _U_FLOOR, out=np.empty((B, m)))
        del U
        ln.t = ln.offset + np.arange(1, B + 1)[:, None]
        ln.done = np.zeros(m, dtype=bool)
        yield ln
        ln.offset += B


def _first_true(hit):
    """(lanes, rows) of the first True row in every column that has one."""
    first = hit.argmax(axis=0)
    cols = np.nonzero(hit[first, np.arange(hit.shape[1])])[0]
    return cols, first[cols]


def _engine(model, x0, rules, seed, step, horizon, scheme, bridge):
    """Check one pass's arguments; return ``run(lo, hi)``, which advances
    the paths [lo, hi) and returns their BatchResult, ``hi - lo`` wide."""
    x0 = _check_real("x0", x0, 0.0)
    n_max = _horizon_steps(horizon, step)
    if scheme not in ("euler", "exact"):
        raise DomainError(f"unknown scheme {scheme!r}")
    if scheme == "exact" and model.kind != "bessel":
        raise DomainError("the exact transition scheme is Bessel-specific")
    rules = list(rules)
    if not rules:
        raise DomainError("need at least one rule")
    seed = _check_count("seed", seed, 0, below=2**63)

    triggers = [_trigger(r, model, step) for r in rules]
    rule_ids = [r.rule_id for r in rules]

    # rules that hold at t = 0 (fixed_time(0), a degenerate boundary) fire
    # there on every path with objective 0
    start = np.full(1, x0)
    at0 = np.array([hit(start, start, np.zeros(1, np.int64))[0] for hit in triggers])

    is_bessel = model.kind == "bessel"
    if is_bessel:
        d = model.dim
        nu = d - 2.0
        drift_num = gshape = (d - 1.0) / 2.0  # drift (d-1)/(2x); chi-square substep shape
        # union of the drift-dominance region mu*step > x/32 (radius
        # 4 sqrt((d-1) step)) and the region a diffusive step could cross zero
        x_guard = max(4.0 * math.sqrt((d - 1.0) * step), 8.5 * math.sqrt(step))

        def bessel_step(a, sz, gu):
            """Exact squared-Bessel step from a: normal part sz, gamma uniforms gu."""
            gdraw = 2.0 * gammaincinv(gshape, np.maximum(gu, _U_FLOOR))
            return np.sqrt((a + sz) ** 2 + step * gdraw)
    sqdt = math.sqrt(step)
    init = dict(X=x0, I=x0, obj=0.0, cprev=-1.0, theta=0, pending=~at0)

    def run(lo, hi):
        res = BatchResult(len(rules), hi - lo)
        res.rule_ids = rule_ids
        res.x_stop[at0] = res.i_stop[at0] = x0
        if at0.all():
            return res
        for ln in _lane_blocks(seed, lo, hi, n_max, init):
            B, m, st = ln.steps, ln.index.size, ln.state
            res.path_steps_stepped += m * B

            # the block: state update only, one history row per step
            X = np.empty((B + 1, m))
            X[0] = st["X"]
            SZ, VOL = (sqdt * ln.z, None) if is_bessel else (None, np.empty((B, m)))
            if scheme == "exact":
                G = np.array([ps.gamma.random(B) for ps in ln.streams]).T
                for k in range(B):
                    X[k + 1] = bessel_step(X[k], SZ[k], G[k])
            elif is_bessel:
                for k in range(B):
                    a = X[k]
                    Xn = a + drift_num / a * step + SZ[k]
                    guarded = a < x_guard
                    if guarded.any():
                        rows = np.nonzero(guarded)[0]
                        gu = np.array([ln.streams[r].gamma.random() for r in rows])
                        Xn[rows] = bessel_step(a[rows], SZ[k, rows], gu)
                    np.maximum(Xn, EULER_FLOOR, out=X[k + 1])
            else:
                for k in range(B):
                    a = X[k]
                    mu = np.asarray(model.drift(a), dtype=float)
                    VOL[k] = sg = np.asarray(model.volatility(a), dtype=float)
                    np.maximum(a + mu * step + sg * sqdt * ln.z[k], EULER_FLOOR, out=X[k + 1])

            # running minimum (bridge-sharpened), its time, the objective
            a, Xn = X[:-1], X[1:]
            new_min = np.minimum(a, Xn)
            if bridge:
                sg2 = 1.0 if is_bessel else VOL**2
                arg = (a - Xn) ** 2 - (2.0 * step) * sg2 * np.log(ln.u)
                mb = np.maximum(0.5 * ((a + Xn) - np.sqrt(arg)), EULER_FLOOR)
                # near the origin the interpolating bridge is not Brownian;
                # keep endpoint monitoring there
                new_min = np.where(new_min < x_guard, new_min, mb) if is_bessel else mb
            # (row loops: numpy's accumulate along axis 0 is ~10x slower)
            I = np.vstack([st["I"], new_min])
            for k in range(B):
                np.minimum(I[k], I[k + 1], out=I[k + 1])
            theta = np.vstack([st["theta"], (new_min < I[:-1]) * ln.t])
            I = I[1:]
            if is_bessel:
                r = I / Xn
                c = 1.0 - 2.0 * (r if nu == 1.0 else r**nu)
            else:
                sx, si = (np.asarray(model.scale(v.ravel()), dtype=float) for v in (Xn, I))
                c = (1.0 - 2.0 * sx / si).reshape(Xn.shape)
            obj = np.vstack([st["obj"], (0.5 * step) * (np.vstack([st["cprev"], c[:-1]]) + c)])
            for k in range(B):
                np.add(obj[k], obj[k + 1], out=obj[k + 1])
                np.maximum(theta[k], theta[k + 1], out=theta[k + 1])
            obj, theta = obj[1:], theta[1:]

            # each pending rule's first trigger in the block, then the horizon
            pending = st["pending"]

            def record(j, cols, rows, truncated):
                ids = ln.index[cols] - lo
                res.stop_step[j, ids] = ln.t[rows, cols]
                res.x_stop[j, ids] = Xn[rows, cols]
                res.i_stop[j, ids] = I[rows, cols]
                res.objective[j, ids] = obj[rows, cols]
                res.theta_step[j, ids] = theta[rows, cols]
                res.truncated[j, ids] = truncated
                pending[j, cols] = False

            for j in np.nonzero(pending.any(axis=1))[0]:
                hit = triggers[j](Xn, I, ln.t)
                hit &= pending[j]
                record(j, *_first_true(hit), False)
            at_h = ln.offset + B == n_max
            for j, row in enumerate(pending & at_h):
                record(j, np.nonzero(row)[0], B - 1, True)

            # a failed Euler step counts only on a lane still live at that step.
            # Bessel lanes cannot fail: a guarded lane takes the exact substep,
            # an unguarded one starts at a >= 8.5 sqrt(step) with drift > 0 and
            # z >= ndtri(_U_FLOOR) = -8.21, so it lands above 0.29 sqrt(step),
            # which exceeds EULER_FLOOR for any step > 1.2e-23
            if scheme == "euler" and not is_bessel:
                cols, rows = _first_true(Xn <= EULER_FLOOR)
                t_bad, p_bad = ln.t[rows, cols], ln.index[cols]
                last = res.stop_step[:, p_bad - lo].max(axis=0)
                live = np.nonzero(pending[:, cols].any(axis=0) | (t_bad <= last))[0]
                if live.size:
                    e = live[np.lexsort((p_bad[live], t_bad[live]))[0]]
                    raise SchemeError(f"Euler step drove path {p_bad[e]} to X <= {EULER_FLOOR:g} "
                                      f"at t={t_bad[e] * step:g}; reduce step")

            ln.done = ~pending.any(axis=0)
            st.update(X=Xn[-1].copy(), I=I[-1].copy(), obj=obj[-1].copy(),
                      cprev=c[-1].copy(), theta=theta[-1].copy())
        return res

    return run


def simulate_rules(
    model: DiffusionModel,
    x0: float,
    rules: Sequence,
    n_paths: int,
    seed: int = 42,
    step: float = 1e-4,
    horizon: float = 50.0,
    scheme: str = "euler",
    bridge: bool = True,
) -> BatchResult:
    """One common-random-numbers pass recording every rule's first trigger.

    The trajectory does not depend on the rules, so evaluating many rules
    in one pass is exactly equivalent to separate runs with the same seed.
    ``n_paths`` and ``seed`` must be Python or numpy integers: a float such
    as 2.5 raises DomainError instead of running seed 2's paths.
    """
    run = _engine(model, x0, rules, seed, step, horizon, scheme, bridge)
    return _sharded(run, _check_count("n_paths", n_paths, 1))


def simulate_path(
    model: DiffusionModel,
    x0: float,
    step: float,
    rule,
    horizon: float,
    stream: PathStream,
    scheme: str = "euler",
    bridge: bool = True,
) -> PathOutcome:
    """Advance a single path until the rule fires or the horizon is hit.

    With a freshly made stream for (seed, k) this reproduces path k of the
    batch estimators bit for bit: the path is run afresh from
    (``stream.seed``, ``stream.index``).
    """
    run = _engine(model, x0, [rule], stream.seed, step, horizon, scheme, bridge)
    res = run(stream.index, stream.index + 1)
    return PathOutcome(
        x_stop=float(res.x_stop[0, 0]),
        i_stop=float(res.i_stop[0, 0]),
        objective_integral=float(res.objective[0, 0]),
        theta_proxy=float(res.theta_step[0, 0]) * step,
        n_steps=int(res.stop_step[0, 0]),
        truncated=bool(res.truncated[0, 0]),
    )


def _mean_se(values):
    """Sample mean of a 1-d array and its standard error (inf for one value)."""
    n = values.size
    se = float(np.std(values, ddof=1)) / math.sqrt(n) if n > 1 else math.inf
    return float(np.mean(values)), se


@dataclass(frozen=True, eq=False)
class RuleComparison:
    """Common-random-number comparison of several rules on one pass."""

    estimates: list
    objectives: np.ndarray  # (n_rules, n_paths)

    def paired_difference(self, j: int, k: int):
        """Mean and standard error of objective_j - objective_k (paired)."""
        return _mean_se(self.objectives[j] - self.objectives[k])

    def rows(self):
        return [e.to_dict() for e in self.estimates]


def compare_rules(
    model: DiffusionModel,
    x0: float,
    rules: Sequence,
    n_paths: int = 50_000,
    seed: int = 42,
    step: float = 1e-4,
    horizon: float = 50.0,
    scheme: str = "euler",
    bridge: bool = True,
) -> RuleComparison:
    """Mean and standard error of every rule's stopped objective, on the
    same trajectories (one pass, so differences can be paired).

    Truncated paths (horizon hit first) contribute their accumulated
    objective; each rule whose truncated fraction exceeds 1% draws its own
    warning, since its estimate is then noticeably horizon-biased.  The
    warning names the line that called into the package.
    """
    res = simulate_rules(
        model, x0, rules, n_paths, seed=seed, step=step, horizon=horizon,
        scheme=scheme, bridge=bridge,
    )
    ests = []
    for j, rule_id in enumerate(res.rule_ids):
        mean, se = _mean_se(res.objective[j])
        trunc = float(np.mean(res.truncated[j]))
        if trunc > 0.01:
            warnings.warn(
                f"{trunc:.1%} of paths hit the horizon before the rule {rule_id} "
                "fired; the estimate is horizon-biased",
                stacklevel=_caller_stacklevel(),
            )
        ests.append(MonteCarloEstimate(
            mean=mean, std_error=se, n_paths=n_paths, seed=seed, step=step,
            rule_id=rule_id, horizon=horizon, truncated_fraction=trunc,
        ))
    return RuleComparison(estimates=ests, objectives=res.objective)


def estimate_future_min_prob(
    model: DiffusionModel,
    x0: float,
    level: float,
    n_paths: int = 50_000,
    seed: int = 42,
    step: float = 1e-3,
    horizon: float = 50.0,
) -> MonteCarloEstimate:
    """P(the path ever dips below ``level``), completed at a two-sided exit.

    A path retires at tau, the first of: its running minimum dips below
    the level, its state climbs to the exit level M = x0 + sigma(x0)
    sqrt(horizon) (one diffusive spread over the horizon above the start),
    or the horizon.  Its value is 1 if it dipped, and otherwise its exact
    conditional dip probability L(X_tau)/L(level).  By the strong Markov
    property that value is E[1{dip ever} | path to tau] at any stopping
    time tau, so the mean is unbiased for L(x0)/L(level) wherever M sits.
    M trades path-steps (the lanes that climb away are the ones that
    would run to the horizon) against the share of the mean that the
    scale ratio supplies rather than the simulation: a lower M retires
    more lanes sooner, a higher one grades more of the law by Monte Carlo.
    The pass takes Euler steps with the bridge minimum on.  The standard
    error is that of the per-path values.  The non-dipped
    paths' share of the mean is extra["analytic_share"], M is
    extra["exit_level"] and the share of paths that retired there
    extra["exit_fraction"]; truncated_fraction counts the paths that
    reached the horizon.
    """
    if not (0.0 < level < x0):
        raise DomainError(f"need 0 < level < x0, got level={level}, x0={x0}")
    exit_level = float(x0) + float(model.volatility(x0)) * math.sqrt(horizon)
    res = simulate_rules(
        model, x0, [_DipProbe(level=float(level), exit=exit_level)], n_paths,
        seed=seed, step=step, horizon=horizon,
    )
    trunc = res.truncated[0]
    rest = ~(res.i_stop[0] < level)  # exited or truncated
    completed = np.ones(n_paths)
    completed[rest] = np.asarray(model.scale(res.x_stop[0, rest]), dtype=float) / float(model.scale(level))
    mean, se = _mean_se(completed)
    return MonteCarloEstimate(
        mean=mean,
        std_error=se,
        n_paths=n_paths,
        seed=seed,
        step=step,
        rule_id=res.rule_ids[0],
        horizon=horizon,
        truncated_fraction=float(np.mean(trunc)),
        extra={
            "analytic_share": float(np.sum(completed[rest])) / n_paths,
            "exit_level": exit_level,
            "exit_fraction": float(np.mean(rest & ~trunc)),
        },
    )
