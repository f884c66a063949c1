"""Call-boundary instrumentation of the goldenstop package modules.

The benchmark wraps the public functions of each layer module in every
namespace that holds them (``checks.simulate_rules``,
``cev.make_path_stream``, ``boundary.h_curve`` and so on), so calls made
from one module into another pass through the wrapper as well.  Nothing in
the package itself is changed.

Two modes:

* untimed: only ``simulate_rules`` is wrapped, by a pass-through that keeps
  each returned ``BatchResult`` with its arguments (path-step counts and
  the replay gate need them);
* timed: every public function records a span ``[id, parent, name, start,
  end, attrs]``.  Spans stay in memory; the caller writes them out when
  the run ends.
"""

from __future__ import annotations

import inspect
import re
import time
from dataclasses import dataclass

import goldenstop
from goldenstop import bessel, boundary, cev, checks, cli, diffusion, simulate

LAYERS = {
    "simulate": simulate,
    "checks": checks,
    "cev": cev,
    "boundary": boundary,
    "bessel": bessel,
    "diffusion": diffusion,
    "cli": cli,
}
NAMESPACES = (goldenstop, *LAYERS.values())

ENGINE = "simulate.simulate_rules"


@dataclass
class EnginePass:
    """One ``simulate_rules`` call: its bound arguments and its result."""

    args: dict
    result: object

    @property
    def consumed(self) -> int:
        # a lane is consumed until the last of its rules fires
        return int(self.result.stop_step.max(axis=0).sum())


def _keep_pass(inst, bound, res):
    bound.apply_defaults()
    inst.passes.append(EnginePass(dict(bound.arguments), res))
    return None


def _shot_info(inst, bound, res):
    shots = re.search(r"n_shots=(\d+)", res.provenance)
    return {
        "shots": int(shots.group(1)) if shots else 0,
        "custom": bound.arguments["model"].kind != "bessel",
    }


_HOOKS = {ENGINE: _keep_pass, "boundary.minimal_boundary": _shot_info}


def public_functions():
    """(span name, function) for every public function of every layer."""
    out = []
    for layer, mod in LAYERS.items():
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj) and not inspect.isclass(obj):
                out.append((f"{layer}.{name}", obj))
    return out


class Instrument:
    """Installs the wrappers for the duration of a ``with`` block."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans = []
        self.passes = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for span_name, fn in public_functions():
            if not self.timed and span_name != ENGINE:
                continue
            wrapped = self._wrap(span_name, fn)
            attr = span_name.split(".", 1)[1]
            for ns in NAMESPACES:
                if getattr(ns, attr, None) is fn:
                    self._saved.append((ns, attr, fn))
                    setattr(ns, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for ns, attr, fn in reversed(self._saved):
            setattr(ns, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        if not self.timed:
            def passthrough(*args, **kwargs):
                res = fn(*args, **kwargs)
                hook(self, sig.bind(*args, **kwargs), res)
                return res
            return passthrough

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0, None]
            spans.append(span)
            stack.append(span[0])
            try:
                res = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(self, sig.bind(*args, **kwargs), res)
            return res
        return traced


def self_times(spans):
    """Self time of each span: its duration minus its direct children's.

    Calls are single-threaded and nest, so direct children never overlap
    and their durations add up to the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            covered[s[1]] += s[4] - s[3]
    return [s[4] - s[3] - covered[s[0]] for s in spans]


def has_ancestor(spans, span, prefix):
    p = span[1]
    while p >= 0:
        if spans[p][2].startswith(prefix):
            return True
        p = spans[p][1]
    return False


# ---------------------------------------------------------------------------
# per-layer metrics


# (width, steps): about 0.1-0.3 s of stepping each on a 2-core Xeon
PROBE_PLAN = {"full": ((1, 4000), (64, 2000), (1024, 600), (8192, 200)),
              "tiny": ((1, 50), (64, 20), (1024, 5), (8192, 2))}


def width_probe(plan, seed, reps=3):
    """ns per path-step of ``simulate_rules`` at fixed batch widths.

    A fixed_time rule makes the count exactly width * steps.  The time is
    the engine span's self time, so stream creation (its
    ``make_path_stream`` child spans) is left out.  Median of ``reps``.
    """
    model = diffusion.make_bessel_model(3.0)
    step = 1e-3
    out = {}
    for width, steps in plan:
        rule = simulate.StoppingRule.fixed_time_rule(steps * step)
        vals = []
        for r in range(reps):
            with Instrument(timed=True) as inst:
                simulate.simulate_rules(model, 1.0, [rule], width, seed=seed + r,
                                        step=step, horizon=(steps + 2) * step)
            consumed = inst.passes[0].consumed
            if consumed != width * steps:
                raise RuntimeError(f"width probe stepped {consumed} path-steps, "
                                   f"expected {width} x {steps}")
            engine = next(s for s in inst.spans if s[2] == ENGINE)
            vals.append(self_times(inst.spans)[engine[0]] / consumed * 1e9)
        out[width] = sorted(vals)[len(vals) // 2]
    return out


CHECK_GROUPS = ("golden_rule_star_checks", "golden_rule_sweep_checks",
                "future_min_checks", "cev_checks")


def layer_metrics(units, probe, rows_failed):
    """Per-layer metrics of the traced units, each averaged per unit.

    ``units`` holds (spans, passes) pairs; ``probe`` is width -> ns per
    path-step; ``rows_failed`` the failed check rows per unit.
    """
    n = len(units)
    calls, self_s, durs, attrs = {}, {}, {}, {}
    engine_passes = 0
    for spans, _ in units:
        for s, st in zip(spans, self_times(spans)):
            name = s[2]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + st
            durs.setdefault(name, []).append(s[4] - s[3])
            if s[5]:
                attrs.setdefault(name, []).append((s[4] - s[3], s[5]))
            if name == ENGINE and has_ancestor(spans, s, "checks."):
                engine_passes += 1
    passes = [p for _, ps in units for p in ps]
    steps = sum(p.consumed for p in passes)
    busy = sum(durs.get(ENGINE, []))
    shots = attrs.get("boundary.minimal_boundary", [])

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    def counted(span_name, p50=False):
        put(f"{span_name}.calls", calls.get(span_name, 0) / n, "count")
        put(f"{span_name}.self_s", self_s.get(span_name, 0.0) / n, "s")
        if p50:
            d = sorted(durs.get(span_name, [0.0]))
            put(f"{span_name}.p50_ms", 1e3 * d[len(d) // 2], "ms")

    counted(ENGINE)
    put(f"{ENGINE}.path_steps", steps / n, "count")
    put(f"{ENGINE}.path_steps_per_s", steps / busy if busy else 0.0, "1/s")
    put(f"{ENGINE}.truncated", sum(int(p.result.truncated.sum()) for p in passes) / n, "count")
    counted("simulate.make_path_stream")
    for width, ns in probe.items():
        put(f"simulate.ns_per_path_step.w{width}", ns, "ns")

    for fn in CHECK_GROUPS:
        put(f"checks.{fn}.self_s", self_s.get(f"checks.{fn}", 0.0) / n, "s")
    put("checks.engine_passes", engine_passes / n, "count")
    put("checks.rows_failed", rows_failed, "count")

    for fn in ("direct_stopped_samples", "transformed_stopped_samples", "martingale_defect_table"):
        put(f"cev.{fn}.self_s", self_s.get(f"cev.{fn}", 0.0) / n, "s")

    counted("boundary.minimal_boundary", p50=True)
    put("boundary.minimal_boundary.shots", sum(a["shots"] for _, a in shots) / n, "count")
    put("boundary.minimal_boundary.custom_s", sum(d for d, a in shots if a["custom"]) / n, "s")
    counted("boundary.value_function_numeric", p50=True)
    counted("boundary.free_boundary_residuals")

    counted("bessel.stopped_cdf_general", p50=True)
    counted("bessel.bessel_lambda")
    counted("bessel.stopped_cdf")

    for fn in ("h_curve", "model_from_coefficients", "hitting_probabilities", "expected_exit_integral"):
        counted(f"diffusion.{fn}")

    counted("cli.dispatch")
    put("cli.parse_s", self_s.get("cli.main", 0.0) / n, "s")
    return m
