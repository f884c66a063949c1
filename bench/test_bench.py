"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import goldenstop as g  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from goldenstop import checks, simulate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    out = _run("--workload", workload, "--seed", "7", "--seconds", "0.5",
               "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])
    for m in spec:
        assert any(ln.startswith(f"metric {m['name']} ") and ln.endswith(f" {m['unit']}")
                   for ln in lines), m["name"]
    assert any(ln.startswith("env ") for ln in lines)
    assert any(ln.startswith("replay-gate ") for ln in lines)


def test_replay_gate_flags_a_tampered_row():
    model = g.make_bessel_model(3.0)
    rules = [g.StoppingRule.ratio_rule(g.bessel_lambda(3.0)), g.StoppingRule.ratio_rule(4.0)]
    original = simulate.simulate_rules
    with tracing.Instrument(timed=False) as inst:
        checks.simulate_rules(model, 1.0, rules, 16, seed=5, step=1e-2, horizon=5.0)
    assert checks.simulate_rules is original and simulate.simulate_rules is original
    (ep,) = inst.passes

    rows = workloads.replay_gate(inst.passes, seed=0, per_pass=4)
    assert len(rows) == 4 and all(r["passed"] for r in rows)

    ep.result.x_stop[:] = np.nextafter(ep.result.x_stop, np.inf)
    rows = workloads.replay_gate(inst.passes, seed=0, per_pass=4)
    assert sum(not r["passed"] for r in rows) == 4
    assert all(r["hard"] and "x_stop" in r["detail"] for r in rows)


def test_a_broken_exact_identity_makes_the_run_incorrect():
    identity = checks.CheckResult("drawdown-step-identity", 1e-3, 0.0, False, "")
    sampled = checks.CheckResult("stopped-mean", 0.0124, 0.01, False, "")
    rows = workloads._check_rows([identity, sampled])
    assert [r["hard"] for r in rows] == [True, False]
    assert workloads.verdict(rows) == (False, 2, 2)
    # a failed statistical row alone is counted but leaves the run correct
    assert workloads.verdict(rows[1:]) == (True, 1, 1)


def test_traced_spans_nest_and_self_time_excludes_children():
    with tracing.Instrument(timed=True) as inst:
        checks.golden_rule_star_checks(n_paths=8, step=1e-2, horizon=2.0)
    names = [s[2] for s in inst.spans]
    assert names[0] == "checks.golden_rule_star_checks"
    engine = next(s for s in inst.spans if s[2] == tracing.ENGINE)
    streams = [s for s in inst.spans if s[2] == "simulate.make_path_stream"]
    assert len(streams) == 8 and all(s[1] == engine[0] for s in streams)
    self_s = tracing.self_times(inst.spans)
    child = sum(s[4] - s[3] for s in streams)
    assert self_s[engine[0]] == pytest.approx(engine[4] - engine[3] - child)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("--workload", "golden-cert", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_a_query_whose_repeats_disagree_fails():
    wl = workloads.SolverQueries(3, "tiny")
    qs, order = wl.prepare(0)
    assert len(order) > len(qs)  # the fast queries run more than once
    lat, raw = wl.unit((qs, order))
    assert len(lat) == len(qs) and wl.executed(raw) == len(order)
    assert workloads.verdict(wl.grade(raw))[0] is True

    j = next(j for j, (_, outs, _) in enumerate(raw) if len(outs) > 1)
    (kind, q), outs, dt = raw[j]
    raw[j] = ((kind, q), [outs[0], object()], dt)
    rows = wl.grade(raw)
    assert workloads.verdict(rows) == (False, len(qs), 1)
    assert "disagree" in rows[j]["detail"]
