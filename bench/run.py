"""goldenstop benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run measures one workload in a fresh child process (``child.py``).
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
the per-layer metrics of a traced run, whose spans go to
``.bench_out/``.  Lines before the last describe the environment, every
check row, the replay gate and the metrics; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See README.md
in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
WORKLOADS = ("golden-cert", "dip-horizon", "cev-routes", "solver-queries")

# set-up is timed in the measuring child and in this many set-up-only
# processes before it and as many after it, so the median spans the run
SETUP_PROBES_EACH_SIDE = 2
# every run must end within 180 s
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _spawn(argv, timeout):
    """Run child.py; return (monotonic spawn time, its JSON report)."""
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD), *argv],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {' '.join(argv)} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(argv)} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("child printed no report")
    return t0, json.loads(lines[-1])


def _git(*args):
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    """nproc, CPU model, load average and source revision of this run."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        with open("/proc/loadavg") as fh:
            load = fh.read().strip()
    except OSError:
        load = None
    # a checkout without its own .git has no revision to report
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_before": load,
        "commit": _git("rev-parse", "HEAD") if in_repo else None,
        "dirty": bool(_git("status", "--porcelain")) if in_repo else None,
    }


def measure(args):
    env = environment()
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--scale", args.scale]
    deadline = time.monotonic() + DEADLINE_S

    def setup_probe():
        t0, probe = _spawn([*child_args, "--trace", "0", "--setup-only"],
                           deadline - time.monotonic())
        return probe["ready"] - t0

    n_probes = 0 if args.trace else SETUP_PROBES_EACH_SIDE
    setups = [setup_probe() for _ in range(n_probes)]
    t0, rep = _spawn([*child_args, "--trace", str(args.trace)], deadline - time.monotonic())
    setups.append(rep["ready"] - t0)
    setups += [setup_probe() for _ in range(n_probes)]

    metrics = rep["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": median(setups), "unit": "s"}, **metrics}
    env.update(rep["versions"])
    return env, rep, metrics


def report(args, env, rep, metrics):
    """Human-readable lines; the caller prints the JSON line after them."""
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} units {rep['units']}")
    for r in rep["rows"]:
        print(f"row {r['name']} value={r['value']!r} tolerance={r['tolerance']!r} "
              f"passed={r['passed']} ({r['detail']})")
    rg = rep["replays"]
    print(f"replay-gate {rg['n']} rows replayed, {rg['mismatched']} not bit-identical")
    for kind, q in rep["queries"].items():
        print(f"queries {kind} n={q['n']} failed={q['failed']} p50_ms={q['p50_ms']:.4f}")
    if rep["path_steps"]:
        print(f"path-steps consumed per engine pass {rep['path_steps']}")
    if rep["spans_file"]:
        print(f"spans written to {rep['spans_file']}")
    print(f"metric fail_frac {rep['failed'] / rep['attempted']!r} ratio "
          f"({rep['failed']} of {rep['attempted']} operations)")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long smoke run for the benchmark's tests")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        ap.error("--seed must lie in [0, 2^32)")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "goldenstop" / "__init__.py").is_file():
        print(f"error: no goldenstop source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        env, rep, metrics = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args, env, rep, metrics)
    print(json.dumps({"correct": rep["correct"], "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
