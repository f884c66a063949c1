"""Tier-1 footprint: engine passes, path-steps stepped and consumed, solver
quadratures, boundary shot solves and their right-hand-side evaluations,
source lines, public names and defaulted public parameters, and the peak
resident memory of the test process and of its forked shard workers.

Every Monte Carlo pass runs through ``simulate._sharded`` (``cev`` imports
the same function), so a session-wide wrapper in both modules counts the
passes, and among them those whose result's ``shards`` is more than one,
and adds the ``path_steps_stepped`` of each result that carries it, and
its path-steps consumed: the per-path maximum of ``stop_step`` over the
pass's rules, summed over paths.  Tests that patch ``_sharded``
themselves wrap this wrapper and still see every call.  Every solver
quadrature runs through ``diffusion._integrate``, which ``boundary`` and
``bessel`` import by name, so a wrapper in all three modules counts them.
A wrapper of ``boundary.solve_ivp`` counts the ODE solves of the boundary
shots and sums the ``nfev`` of their results.  The totals, the line count
of ``src/goldenstop/*.py``, ``len(goldenstop.__all__)`` and the number of
defaulted parameters of the functions in ``goldenstop.__all__`` (classes
not counted) are printed as one line at the end of the run, with the
``ru_maxrss`` of ``RUSAGE_SELF`` and of ``RUSAGE_CHILDREN`` (the largest
forked shard worker, as no test starts another process; Linux reports
kilobytes); no test reads them.
"""

import inspect
import resource
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "goldenstop"
footprint = {"passes": 0, "sharded": 0, "path_steps": 0, "consumed": 0, "quadratures": 0, "solves": 0,
             "nfev": 0}


@pytest.fixture(scope="session", autouse=True)
def _count_engine_passes():
    from goldenstop import bessel, boundary, cev, diffusion, simulate

    sharded, integrate, solve_ivp = simulate._sharded, diffusion._integrate, boundary.solve_ivp

    def counting(run, n_paths, n_steps):
        footprint["passes"] += 1
        out = sharded(run, n_paths, n_steps)
        footprint["sharded"] += getattr(out, "shards", 1) > 1
        footprint["path_steps"] += getattr(out, "path_steps_stepped", 0)
        if hasattr(out, "stop_step"):
            footprint["consumed"] += int(out.stop_step.max(axis=0).sum())
        return out

    def counting_integrate(*args, **kwargs):
        footprint["quadratures"] += 1
        return integrate(*args, **kwargs)

    def counting_solve_ivp(*args, **kwargs):
        footprint["solves"] += 1
        sol = solve_ivp(*args, **kwargs)
        footprint["nfev"] += sol.nfev
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_sharded", counting)
        mp.setattr(cev, "_sharded", counting)
        mp.setattr(boundary, "solve_ivp", counting_solve_ivp)
        for module in (diffusion, boundary, bessel):
            mp.setattr(module, "_integrate", counting_integrate)
        yield


@pytest.fixture
def shard_plans(monkeypatch):
    """The number of shards of each plan ``simulate._sharded`` makes."""
    from goldenstop import simulate

    plans, plan = [], simulate._shards

    def recording(*args):
        shards = plan(*args)
        plans.append(len(shards))
        return shards

    monkeypatch.setattr(simulate, "_shards", recording)
    return plans


def pytest_terminal_summary(terminalreporter):
    import goldenstop

    lines = sum(p.read_bytes().count(b"\n") for p in SRC.glob("*.py"))
    public = [getattr(goldenstop, name) for name in goldenstop.__all__]
    rss_self, rss_workers = (resource.getrusage(who).ru_maxrss / 1024
                             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    knobs = sum(p.default is not p.empty for f in public if inspect.isfunction(f)
                for p in inspect.signature(f).parameters.values())
    terminalreporter.write_line(
        f"goldenstop footprint: {footprint['passes']} engine passes "
        f"({footprint['sharded']} sharded), "
        f"{footprint['path_steps']:,} path-steps stepped, "
        f"{footprint['consumed']:,} path-steps consumed, "
        f"{footprint['quadratures']:,} solver quadratures, "
        f"{footprint['solves']:,} shot solves ({footprint['nfev']:,} rhs evaluations), "
        f"{lines:,} lines in src/goldenstop/*.py, "
        f"{len(goldenstop.__all__)} public names, "
        f"{knobs} defaulted public parameters, "
        f"peak RSS {rss_self:.0f} MB (test process), "
        f"{rss_workers:.0f} MB (largest shard worker)"
    )
