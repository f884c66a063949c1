"""One benchmark process: set up a workload, run it, grade it, report.

``run.py`` starts this in a fresh interpreter for every measurement; the
last line of its standard output is one JSON object for ``run.py``.

    python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1
                           [--scale full|tiny] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from statistics import median

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"


@dataclass
class Unit:
    k: int
    timed: bool
    wall: float
    cpu: float
    latencies: list
    raw: object
    passes: list
    spans: list


def _cpu():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_unit(tracing, wl, k, inputs, timed):
    with tracing.Instrument(timed) as inst:
        c0, t0 = _cpu(), time.perf_counter()
        latencies, raw = wl.unit(inputs)
        wall, cpu = time.perf_counter() - t0, _cpu() - c0
    return Unit(k, timed, wall, cpu, latencies, raw, inst.passes, inst.spans)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # the checkout's own source tree, never an installed copy
    sys.path.insert(0, str(SRC))
    import goldenstop

    if Path(goldenstop.__file__).resolve().parent != SRC / "goldenstop":
        raise SystemExit(f"error: goldenstop imported from {goldenstop.__file__}, not {SRC}")
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    # timed body: whole units, at least one, and no unit started that the
    # last one's duration says would end past --seconds; a unit's inputs
    # are built before its timer starts, and a traced run repeats each
    # unit on the same inputs under the timing wrappers
    units = []
    t_start = time.perf_counter()
    k = 0
    last = 0.0
    while k == 0 or time.perf_counter() - t_start + last <= args.seconds:
        t0 = time.perf_counter()
        inputs = wl.prepare(k)
        units.append(run_unit(tracing, wl, k, inputs, timed=False))
        if args.trace:
            units.append(run_unit(tracing, wl, k, inputs, timed=True))
        last = time.perf_counter() - t0
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = [u for u in units if not u.timed]

    # correctness gate, outside the timed body
    rows = [r for u in plain for r in wl.grade(u.raw)]
    per_pass = workloads.SCALES[args.scale]["replays_per_pass"]
    replays = workloads.replay_gate([p for u in plain for p in u.passes], args.seed, per_pass)
    graded = rows + replays

    walls = [u.wall for u in plain]
    if args.trace:
        traced = [u for u in units if u.timed]
        probe = tracing.width_probe(tracing.PROBE_PLAN[args.scale], args.seed)
        check_failed = sum(not r["passed"] for r in rows) if wl.monte_carlo else 0
        metrics = tracing.layer_metrics(
            [(u.spans, u.passes) for u in traced], probe, check_failed / len(plain)
        )
        metrics["process.cpu_s"] = _metric(sum(u.cpu for u in plain) / len(plain), "s")
        metrics["trace.overhead_frac"] = _metric(
            median(u.wall for u in traced) / median(walls), "ratio"
        )
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_file, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["id", "parent", "name", "start", "end", "attrs"],
                       "units": [{"k": u.k, "spans": u.spans} for u in traced]}, fh)
    else:
        lat = [x for u in plain for x in u.latencies]
        if wl.monte_carlo:
            work = sum(p.consumed for u in plain for p in u.passes)
        else:
            work = sum(wl.executed(u.raw) for u in plain)
        metrics = {
            "run_s": _metric(median(walls), "s"),
            "throughput_per_s": _metric(work / sum(walls), "1/s"),
            "query_p50_ms": _metric(1e3 * np.percentile(lat, 50), "ms"),
            "query_p99_ms": _metric(1e3 * np.percentile(lat, 99), "ms"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        spans_file = None

    correct, attempted, failed = workloads.verdict(graded)
    print(json.dumps({
        "ready": ready,
        "units": len(plain),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "path_steps": [p.consumed for u in plain for p in u.passes],
        # every check row; of the solver queries and replays, the failures
        "rows": ([r for r in rows if wl.monte_carlo or not r["passed"]]
                 + [r for r in replays if not r["passed"]]),
        "replays": {"n": len(replays), "mismatched": sum(not r["passed"] for r in replays)},
        "queries": _query_summary(rows),
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
        "versions": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "click": metadata.version("click"),
        },
    }))
    return 0


def _query_summary(rows):
    """Per-kind count, failures and median latency of graded solver queries."""
    out = {}
    for r in rows:
        if "seconds" in r:
            out.setdefault(r["name"], []).append(r)
    return {
        kind: {"n": len(rs), "failed": sum(not r["passed"] for r in rs),
               "p50_ms": 1e3 * median(r["seconds"] for r in rs)}
        for kind, rs in sorted(out.items())
    }


if __name__ == "__main__":
    sys.exit(main())
