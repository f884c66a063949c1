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
sees at step s is a pure function of (seed, index, s).  The second stream
is consumed in step order: one uniform per step on the exact scheme, and
on Euler one per guarded step (a step taken by the exact substep near the
origin).  Results are therefore bit-identical for any chunking of paths,
any block size, any number of rules evaluated in the same pass, and
simulate_path(seed, k) reproduces path k of a batch run exactly.
`_lane_blocks` is the contract's one implementation: no other code draws
from or floors the streams that `make_path_stream` opens.

Lanes
-----
The engine runs paths on up to _LANE_WIDTH = 8,192 lanes in blocks of
_BLOCK_STEPS = 256 steps, the unit of refill and of the uniform fill: at
each block boundary the lanes whose rules have all fired, or that reached
the horizon, retire, the next path indices take their places (each lane
keeping its own step offset), and every lane draws the block's uniforms.
The block is then transformed, stepped and scanned for each pending rule's
first trigger in cache-sized groups of _GROUP_STEPS = 16 full-width rows
(more rows on fewer lanes).  A run therefore has one straggler tail, and
by the contract above none of the three constants changes any result.

Shards
------
A pass runs as contiguous path-index shards [lo, hi), one per usable CPU,
as long as each shard keeps at least _MIN_SHARD_PATH_STEPS = 2^20
path-steps of the pass's bound (its paths times its step bound n_max):
one fork round trip costs about 20 ms on a 2-core Intel Xeon VM (a
trivial 1,000-path pass took 24 ms serial and 40-47 ms sharded), so a
smaller shard saves less than it costs.  The first shard runs in the
calling process, the others in workers forked from it (none without the
``fork`` start method, or while the caller runs other threads).  The
per-path outputs are merged in path order, so by the contract above the
pass is bit-identical to a serial one; ``BatchResult.shards`` counts the
shards that ran it.

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
from .diffusion import DiffusionModel, _check_count, _check_scalar
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
            object.__setattr__(self, "lam", _check_scalar("lam", self.lam, 1.0))
        elif v == "drawdown":
            object.__setattr__(self, "kappa", _check_scalar("kappa", self.kappa, 1.0))
        elif v == "fixed_time":
            object.__setattr__(self, "t", _check_scalar("t", self.t, 0.0, strict=False))
        elif v == "boundary":
            if not isinstance(self.boundary, Boundary):
                raise DomainError("boundary rule needs a Boundary instance")
        else:
            raise DomainError(f"unknown rule variant {v!r}")

    @classmethod
    def ratio_rule(cls, lam: float) -> "StoppingRule":
        return cls(variant="ratio", lam=lam)

    @classmethod
    def boundary_rule(cls, boundary: Boundary) -> "StoppingRule":
        return cls(variant="boundary", boundary=boundary)

    @classmethod
    def drawdown_rule(cls, kappa: float) -> "StoppingRule":
        return cls(variant="drawdown", kappa=kappa)

    @classmethod
    def fixed_time_rule(cls, t: float) -> "StoppingRule":
        return cls(variant="fixed_time", t=t)

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
        return rule.lam
    if rule.variant != "drawdown":
        return None
    if model.kind != "bessel":
        raise DomainError(
            "drawdown rules are defined through the Bessel price map; "
            f"model kind {model.kind!r} is not supported"
        )
    return rule.kappa ** (1.0 / (model.dim - 2.0))


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
    ``shards`` is the number of path-index shards that ran the pass.
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
        self.shards = 1


# a shard with less bound saves less than its ~20 ms fork round trip costs
_MIN_SHARD_PATH_STEPS = 2**20
# lanes side by side, steps per block between refills, steps per full-width group
_LANE_WIDTH = 8192
_BLOCK_STEPS = 256
_GROUP_STEPS = 16


def _shards(n_paths, n_steps, cpus):
    """[lo, hi) ranges tiling [0, n_paths): at most one per CPU, none empty,
    each with at least _MIN_SHARD_PATH_STEPS of the bound of ``n_steps``
    steps per path (one range if the whole pass has less)."""
    k = max(1, min(cpus, n_paths, n_paths * n_steps // _MIN_SHARD_PATH_STEPS))
    return [(n_paths * s // k, n_paths * (s + 1) // k) for s in range(k)]


def _adopt(run):
    global _job  # set in forked shard workers only
    _job = run


def _run_adopted(lo, hi):
    return _job(lo, hi)


def _sharded(run, n_paths, n_steps):
    """``run(lo, hi)`` over [0, n_paths) in the shards of ``_shards``, for
    a pass of at most ``n_steps`` steps per path.

    This process runs the first shard, forked workers the others: ``run``
    reaches them by the fork, not by pickle.  Shard results are merged by
    path index (array attributes concatenated on the last axis, integers
    summed, so a result's ``shards = 1`` sums to the plan's size); the
    lowest-indexed failing shard's exception is re-raised.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    shards = _shards(n_paths, n_steps, cpus)
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
    """Admit/fill/retire iterator behind every path-advancing loop, and the
    only reader of the per-path streams.

    Up to ``_LANE_WIDTH`` lanes run the paths [lo, hi) side by side.  A lane
    is one path: its index, streams, step offset and state arrays (one per
    name in ``init``, lane axis last, admitted at the ``init`` value).  Each
    yield is one block of ``steps`` <= ``_BLOCK_STEPS`` steps, its uniforms
    drawn, in row ranges ``groups``: ``z(k0, k1)`` and ``u(k0, k1)`` are the
    (rows, lanes) normal increments and floored bridge uniforms of rows
    [k0, k1), and ``t(k0, k1)`` the step index each row reaches.  Floored
    gamma uniforms come as ``g(k0, k1)``, one per step (the block's first
    call fills them for the whole block), or as ``g_next(lanes)``, one for
    each listed lane in lane order; a pass reads one or the other.
    ``ends`` marks the lanes whose run reaches ``n_max`` at the block's
    last row.  The caller advances ``state`` and marks ``done`` the lanes
    it has finished; at the next boundary those and the ``ends`` lanes
    retire and new paths take their places.
    """
    U = G = None  # the block's uniforms per lane: two per step; one gamma uniform per step

    def floored(cells):
        rows = cells.T
        return np.maximum(rows, _U_FLOOR, out=np.empty(rows.shape))

    def gamma_rows(k0, k1):
        nonlocal G
        if G is None:
            G = np.empty((len(ln.streams), ln.steps))
            for r, st in enumerate(ln.streams):
                st.gamma.random(out=G[r])
        return floored(G[:, k0:k1])

    col = {k: np.asarray(v)[..., None] for k, v in init.items()}
    ln = SimpleNamespace(index=np.zeros(0, dtype=np.int64), offset=np.zeros(0, dtype=np.int64),
                         streams=[], done=np.zeros(0, dtype=bool), ends=np.zeros(0, dtype=bool),
                         state={k: c[..., :0] for k, c in col.items()},
                         z=lambda k0, k1: ndtri(floored(U[:, 2 * k0:2 * k1:2])),
                         u=lambda k0, k1: floored(U[:, 2 * k0 + 1:2 * k1:2]),
                         g=gamma_rows,
                         g_next=lambda lanes: floored(
                             np.array([ln.streams[r].gamma.random() for r in lanes])),
                         t=lambda k0, k1: ln.offset + np.arange(k0 + 1, k1 + 1)[:, None])
    admitted = lo
    while True:
        keep = ~(ln.done | ln.ends)
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
        ln.ends = ln.offset + B == n_max
        # a group spans as many cells as _GROUP_STEPS rows of a full-width block
        span = _GROUP_STEPS * _LANE_WIDTH // m
        ln.groups = [(k0, min(k0 + span, B)) for k0 in range(0, B, span)]
        U = np.empty((m, 2 * B))
        for r, st in enumerate(ln.streams):
            st.uniform.random(out=U[r])
        ln.done = np.zeros(m, dtype=bool)
        yield ln
        U = G = None  # released before the next block's fill
        ln.offset += B


def _first_true(hit):
    """(lanes, rows) of the first True row in every column that has one."""
    cols = np.nonzero(hit.any(axis=0))[0]
    return cols, hit[:, cols].argmax(axis=0)


def _engine(model, x0, rules, seed, step, horizon, scheme, bridge):
    """Check one pass's arguments; return ``run(lo, hi)``, which advances
    the paths [lo, hi) and returns their BatchResult, ``hi - lo`` wide,
    and the pass's step bound."""
    x0 = _check_scalar("x0", x0, 0.0)
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
            """Exact squared-Bessel step from a: normal part sz, floored gamma uniforms gu."""
            return np.sqrt((a + sz) ** 2 + step * (2.0 * gammaincinv(gshape, gu)))
    sqdt = math.sqrt(step)
    init = dict(X=x0, I=x0, obj=0.0, cprev=-1.0, theta=0, pending=~at0)

    def run(lo, hi):
        res = BatchResult(len(rules), hi - lo)
        res.rule_ids = rule_ids
        res.x_stop[at0] = res.i_stop[at0] = x0
        if at0.all():
            return res

        def record(j, cols, rows, truncated):
            if not cols.size:
                return
            ids = ln.index[cols] - lo
            res.stop_step[j, ids] = t[rows, cols]
            res.x_stop[j, ids] = Xn[rows, cols]
            res.i_stop[j, ids] = I[rows, cols]
            res.objective[j, ids] = obj[rows, cols]
            res.theta_step[j, ids] = theta[rows, cols]
            res.truncated[j, ids] = truncated
            pending[j, cols] = False

        for ln in _lane_blocks(seed, lo, hi, n_max, init):
            m, st = ln.index.size, ln.state
            res.path_steps_stepped += m * ln.steps
            pending = st["pending"]
            bad = np.full(m, n_max + 1)  # each lane's first failed Euler step in the block

            for k0, k1 in ln.groups:
                n, t = k1 - k0, ln.t(k0, k1)
                # the group's steps: state update only, one history row per step
                X = np.empty((n + 1, m))
                X[0] = st["X"]
                z = ln.z(k0, k1)
                SZ, VOL = (sqdt * z, None) if is_bessel else (None, np.empty((n, m)))
                if scheme == "exact":
                    gu = ln.g(k0, k1)
                    for k in range(n):
                        X[k + 1] = bessel_step(X[k], SZ[k], gu[k])
                elif is_bessel:
                    for k in range(n):
                        a = X[k]
                        Xn = a + drift_num / a * step + SZ[k]
                        guarded = a < x_guard
                        if guarded.any():
                            rows = np.nonzero(guarded)[0]
                            Xn[rows] = bessel_step(a[rows], SZ[k, rows], ln.g_next(rows))
                        np.maximum(Xn, EULER_FLOOR, out=X[k + 1])
                else:
                    for k in range(n):
                        a = X[k]
                        mu = np.asarray(model.drift(a), dtype=float)
                        VOL[k] = sg = np.asarray(model.volatility(a), dtype=float)
                        np.maximum(a + mu * step + sg * sqdt * z[k], EULER_FLOOR, out=X[k + 1])

                # running minimum (bridge-sharpened), its time, the objective
                a, Xn = X[:-1], X[1:]
                new_min = np.minimum(a, Xn)
                if bridge:
                    sg2 = 1.0 if is_bessel else VOL**2
                    arg = (a - Xn) ** 2 - (2.0 * step) * sg2 * np.log(ln.u(k0, k1))
                    mb = np.maximum(0.5 * ((a + Xn) - np.sqrt(arg)), EULER_FLOOR)
                    # near the origin the interpolating bridge is not Brownian;
                    # keep endpoint monitoring there
                    new_min = np.where(new_min < x_guard, new_min, mb) if is_bessel else mb
                # (row loops: numpy's accumulate along axis 0 is ~10x slower)
                I = np.vstack([st["I"], new_min])
                for k in range(n):
                    np.minimum(I[k], I[k + 1], out=I[k + 1])
                theta = np.vstack([st["theta"], (new_min < I[:-1]) * t])
                I = I[1:]
                if is_bessel:
                    r = I / Xn
                    c = 1.0 - 2.0 * (r if nu == 1.0 else r**nu)
                else:
                    sx, si = (np.asarray(model.scale(v.ravel()), dtype=float) for v in (Xn, I))
                    c = (1.0 - 2.0 * sx / si).reshape(Xn.shape)
                obj = np.vstack([st["obj"], (0.5 * step) * (np.vstack([st["cprev"], c[:-1]]) + c)])
                for k in range(n):
                    np.add(obj[k], obj[k + 1], out=obj[k + 1])
                    np.maximum(theta[k], theta[k + 1], out=theta[k + 1])
                obj, theta = obj[1:], theta[1:]

                # each pending rule's first trigger in the group
                for j in np.nonzero(pending.any(axis=1))[0]:
                    hit = triggers[j](Xn, I, t)
                    hit &= pending[j]
                    record(j, *_first_true(hit), False)
                if not is_bessel:
                    bad = np.minimum(bad, np.where(Xn <= EULER_FLOOR, t, n_max + 1).min(axis=0))
                st.update(X=Xn[-1], I=I[-1], obj=obj[-1], cprev=c[-1], theta=theta[-1])

            # the lanes still pending at the horizon stop at the block's last row
            for j, row in enumerate(pending & ln.ends):
                record(j, np.nonzero(row)[0], n - 1, True)

            # a failed Euler step counts only on a lane still live at that step.
            # Bessel lanes cannot fail: a guarded lane takes the exact substep,
            # an unguarded one starts at a >= 8.5 sqrt(step) with drift > 0 and
            # z >= ndtri(_U_FLOOR) = -8.21, so it lands above 0.29 sqrt(step),
            # which exceeds EULER_FLOOR for any step > 1.2e-23
            cols = np.nonzero(bad <= n_max)[0]
            t_bad, p_bad = bad[cols], ln.index[cols]
            last = res.stop_step[:, p_bad - lo].max(axis=0)
            live = np.nonzero(pending[:, cols].any(axis=0) | (t_bad <= last))[0]
            if live.size:
                e = live[np.lexsort((p_bad[live], t_bad[live]))[0]]
                raise SchemeError(f"Euler step drove path {p_bad[e]} to X <= {EULER_FLOOR:g} "
                                  f"at t={t_bad[e] * step:g}; reduce step")

            ln.done = ~pending.any(axis=0)
        return res

    return run, n_max


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
    run, n_max = _engine(model, x0, rules, seed, step, horizon, scheme, bridge)
    return _sharded(run, _check_count("n_paths", n_paths, 1), n_max)


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
    run, _ = _engine(model, x0, [rule], stream.seed, step, horizon, scheme, bridge)
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
    x0, level = _check_scalar("x0", x0, 0.0), _check_scalar("level", level, 0.0)
    if not level < x0:
        raise DomainError(f"need 0 < level < x0, got level={level}, x0={x0}")
    exit_level = x0 + float(model.volatility(x0)) * math.sqrt(horizon)
    res = simulate_rules(
        model, x0, [_DipProbe(level=level, exit=exit_level)], n_paths,
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
