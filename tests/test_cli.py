"""CLI contract tests: output text, exit codes, env vars, atomic --out, README transcripts."""

import contextlib
import csv
import gc
import io
import json
import math
import runpy
import shlex
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import goldenstop as g
from goldenstop.cli import dispatch, main

LAM3 = g.bessel_lambda(3.0)
PACKAGE = Path(g.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_lambda_csv_exact_text():
    res = CliRunner().invoke(main, ["lambda"])
    assert res.exit_code == 0
    assert res.output == "d,lambda,residual\n3,2.6180339887498949,0\n"


def test_fib_csv_exact_text():
    res = CliRunner().invoke(main, ["fib", "--n", "12"])
    assert res.exit_code == 0
    assert res.output == (
        "name,value\n"
        "n,12\n"
        "shallow,0.23606557377049181\n"
        "moderate,0.38196286472148538\n"
        "golden,0.61802575107296143\n"
        "shallow_limit,0.23606797749978967\n"
        "moderate_limit,0.38196601125010515\n"
        "golden_limit,0.61803398874989479\n"
        "retracement,0.6180339887498949\n"
    )


def test_value_csv_exact_text():
    res = CliRunner().invoke(main, ["value", "--i", "1", "--x", "2"])
    assert res.exit_code == 0
    assert res.output == (
        "d,lam,i,x,value_closed,value_quadrature,abs_diff\n"
        "3,2.6180339887498949,1,2,-0.078689325833263268,"
        "-0.078689325833263254,1.3877787807814457e-17\n"
    )


def test_distribution_csv_exact_text():
    res = CliRunner().invoke(main, ["distribution"])
    assert res.exit_code == 0
    assert res.output == (
        "name,value\n"
        "exponent,1.6180339887498947\n"
        "mean,1.6180339887498945\n"
        "upper_support,2.6180339887498949\n"
        "q0.05,0.41104987719958602\n"
        "q0.10,0.63087205696348236\n"
        "q0.15,0.81053481701492414\n"
        "q0.20,0.96825123746256692\n"
        "q0.25,1.1114290464530296\n"
        "q0.30,1.2439944532630065\n"
        "q0.35,1.3683394098430228\n"
        "q0.40,1.486054816503086\n"
        "q0.45,1.5982651401557904\n"
        "q0.50,1.7058015768834069\n"
        "q0.55,1.809300061112769\n"
        "q0.60,1.9092606107266488\n"
        "q0.65,2.0060852099927389\n"
        "q0.70,2.1001030434384829\n"
        "q0.75,2.191587903952755\n"
        "q0.80,2.2807705605823165\n"
        "q0.85,2.3678477681923762\n"
        "q0.90,2.4529889740206139\n"
        "q0.95,2.5363414046347006\n"
    )


def test_boundary_ray_csv_exact_text():
    res = CliRunner().invoke(main, ["boundary", "--ray", "--grid", "17"])
    assert res.exit_code == 0
    assert res.output == (
        "i,f,h,f_over_i\n"
        "0.5,1.3090169943749475,1,2.6180339887498949\n"
        "0.54525386633262884,1.4274931545561143,1.0905077326652577,2.6180339887498949\n"
        "0.59460355750136051,1.5566923233701644,1.189207115002721,2.6180339887498949\n"
        "0.64841977732550482,1.6975850160158101,1.2968395546510096,2.6180339887498949\n"
        "0.70710678118654757,1.8512295868219162,1.4142135623730951,2.6180339887498949\n"
        "0.77110541270397037,2.0187801793680094,1.5422108254079407,2.6180339887498949\n"
        "0.8408964152537145,2.2014953961521702,1.6817928305074292,2.6180339887498949\n"
        "0.91700404320467122,2.4007477529309065,1.8340080864093424,2.6180339887498949\n"
        "1,2.6180339887498949,2,2.6180339887498949\n"
        "1.0905077326652577,2.8549863091122285,2.1810154653305154,2.6180339887498949\n"
        "1.189207115002721,3.1133846467403288,2.3784142300054421,2.6180339887498949\n"
        "1.2968395546510096,3.3951700320316203,2.5936791093020193,2.6180339887498949\n"
        "1.4142135623730949,3.7024591736438319,2.8284271247461898,2.6180339887498949\n"
        "1.5422108254079407,4.0375603587360187,3.0844216508158815,2.6180339887498949\n"
        "1.681792830507429,4.4029907923043403,3.3635856610148585,2.6180339887498949\n"
        "1.8340080864093424,4.801495505861813,3.6680161728186849,2.6180339887498949\n"
        "2,5.2360679774997898,4,2.6180339887498949\n"
    )


def test_boundary_shooting_csv_exact_text():
    res = CliRunner().invoke(main, ["boundary", "--dim", "3", "--grid", "17", "--shots", "4"])
    assert res.exit_code == 0
    assert res.output == (
        "i,f,h,f_over_i\n"
        "0.5,1.3090169943723329,1,2.6180339887446658\n"
        "0.54525386633262884,1.4274931545541143,1.0905077326652577,2.6180339887462267\n"
        "0.59460355750136051,1.5566923233687477,1.189207115002721,2.6180339887475124\n"
        "0.64841977732550482,1.6975850160149268,1.2968395546510096,2.6180339887485329\n"
        "0.70710678118654757,1.8512295868214954,1.4142135623730951,2.6180339887492998\n"
        "0.77110541270397037,2.018780179367957,1.5422108254079407,2.618033988749827\n"
        "0.8408964152537145,2.2014953961523673,1.6817928305074292,2.6180339887501294\n"
        "0.91700404320467122,2.4007477529312151,1.8340080864093424,2.6180339887502315\n"
        "1,2.6180339887501645,2,2.6180339887501645\n"
        "1.0905077326652577,2.8549863091123129,2.1810154653305154,2.6180339887499722\n"
        "1.189207115002721,3.1133846467401192,2.3784142300054421,2.6180339887497186\n"
        "1.2968395546510096,3.3951700320310985,2.5936791093020193,2.6180339887494926\n"
        "1.4142135623730949,3.7024591736431605,2.8284271247461898,2.6180339887494202\n"
        "1.5422108254079407,4.0375603587354849,3.0844216508158815,2.6180339887495485\n"
        "1.681792830507429,4.4029907923039717,3.3635856610148585,2.618033988749676\n"
        "1.8340080864093424,4.8014955058616202,3.6680161728186849,2.6180339887497901\n"
        "2,5.2360679774997836,4,2.6180339887498918\n"
    )


def test_lambda_json_exact_text():
    res = CliRunner().invoke(main, ["--format", "json", "lambda", "-d", "5"])
    assert res.exit_code == 0
    assert res.output == (
        "{\n"
        '  "d": 5.0,\n'
        '  "lambda": 1.444423926575542,\n'
        '  "residual": 0.0\n'
        "}\n"
    )


def test_distribution_json_exact_text():
    res = CliRunner().invoke(main, ["--format", "json", "distribution"])
    assert res.exit_code == 0
    assert res.output == (
        '{\n  "d": 3.0,\n  "exponent": 1.6180339887498947,\n  "lam": 2.618033988749895,\n'
        '  "mean": 1.6180339887498945,\n  "quantiles": {\n'
        '    "0.05": 0.411049877199586,\n    "0.10": 0.6308720569634824,\n'
        '    "0.15": 0.8105348170149241,\n    "0.20": 0.9682512374625669,\n'
        '    "0.25": 1.1114290464530296,\n    "0.30": 1.2439944532630065,\n'
        '    "0.35": 1.3683394098430228,\n    "0.40": 1.486054816503086,\n'
        '    "0.45": 1.5982651401557904,\n    "0.50": 1.705801576883407,\n'
        '    "0.55": 1.809300061112769,\n    "0.60": 1.9092606107266488,\n'
        '    "0.65": 2.006085209992739,\n    "0.70": 2.100103043438483,\n'
        '    "0.75": 2.191587903952755,\n    "0.80": 2.2807705605823165,\n'
        '    "0.85": 2.367847768192376,\n    "0.90": 2.452988974020614,\n'
        '    "0.95": 2.5363414046347006\n  },\n'
        '  "upper_support": 2.618033988749895,\n  "x0": 1.0\n}\n'
    )


def test_fib_json_exact_text():
    res = CliRunner().invoke(main, ["--format", "json", "fib", "--n", "12"])
    assert res.exit_code == 0
    assert res.output == (
        '{\n  "golden": 0.6180257510729614,\n  "limits": {\n'
        '    "golden": 0.6180339887498948,\n    "moderate": 0.38196601125010515,\n'
        '    "shallow": 0.23606797749978967\n  },\n  "moderate": 0.3819628647214854,\n'
        '  "n": 12,\n  "retracement": 0.6180339887498949,\n  "shallow": 0.2360655737704918\n}\n'
    )


def test_lambda_json():
    res = CliRunner().invoke(main, ["--format", "json", "lambda", "-d", "5"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["d"] == 5.0
    assert doc["lambda"] == g.bessel_lambda(5.0)
    assert doc["residual"] <= 1e-9
    assert res.output.endswith("\n")


def test_env_var_overrides_option():
    res = CliRunner().invoke(main, ["lambda"], env={"GOLDENSTOP_LAMBDA_DIM": "5"})
    assert res.exit_code == 0
    row = _rows(res.output)[1]
    assert row[0] == "5"
    assert float(row[1]) == g.bessel_lambda(5.0)


def test_out_writes_byte_identical_files(tmp_path):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    r1 = CliRunner().invoke(main, ["--out", str(f1), "lambda"])
    r2 = CliRunner().invoke(main, ["--out", str(f2), "lambda"])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert r1.output == ""  # everything went to the file
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_text() == "d,lambda,residual\n3,2.6180339887498949,0\n"
    assert not list(tmp_path.glob(".goldenstop-*"))  # no temp litter


def test_out_into_missing_directory_fails_cleanly(tmp_path):
    target = tmp_path / "absent" / "x.csv"
    res = CliRunner().invoke(main, ["--out", str(target), "lambda"])
    assert res.exit_code == 2
    assert not target.exists()


def test_domain_error_exit_2():
    for args in (["lambda", "-d", "2.0"],
                 ["distribution", "--lam", "inf"],
                 ["distribution", "--x0", "inf"]):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 2, args
        assert "error:" in res.stderr


def test_bad_rule_text_exit_2():
    res = CliRunner().invoke(
        main, ["simulate", "--rule", "bogus:1", "--n-paths", "10", "--step", "0.01"]
    )
    assert res.exit_code == 2
    assert "cannot parse rule" in res.stderr


def test_bad_boundary_file_exit_2(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("i,f,h\n0.5,1.3,0.8\n0.7\n")
    for path, msg in ((short, "malformed row ['0.7']"),
                      (tmp_path / "absent.csv", "cannot read boundary file")):
        res = CliRunner().invoke(
            main, ["simulate", "--rule", f"boundary:{path}", "--n-paths", "10", "--step", "0.01"]
        )
        assert res.exit_code == 2, res.output
        assert f"error: {path}: {msg}" in res.stderr


def test_rule_spells_fixed_time_one_way():
    for text in ("fixed_time:1", "time:1"):
        res = CliRunner().invoke(
            main, ["simulate", "--rule", text, "--n-paths", "10", "--step", "0.01"]
        )
        assert res.exit_code == 2
        assert "cannot parse rule" in res.stderr
    res = CliRunner().invoke(
        main, ["simulate", "--rule", "fixed:0.05", "--n-paths", "10", "--step", "0.01"]
    )
    assert res.exit_code == 0
    assert _rows(res.output)[1][0].startswith("fixed_time(")


def test_ray_rejects_shots():
    for args, env in ((["--shots", "3"], {}), ([], {"GOLDENSTOP_BOUNDARY_SHOTS": "3"})):
        res = CliRunner().invoke(main, ["boundary", "--ray", "--grid", "17", *args], env=env)
        assert res.exit_code == 2
        assert "--shots conflicts with --ray" in res.stderr
        assert res.stdout == ""


def test_horizon_without_a_finite_step_count_exit_2():
    for cmd, horizon in (("simulate", "inf"), ("cev", "inf"), ("simulate", "1e-12")):
        res = CliRunner().invoke(
            main, [cmd, "--horizon", horizon, "--n-paths", "10", "--step", "0.01"]
        )
        assert res.exit_code == 2, res.output
        assert f"error: horizon={float(horizon)} at step=0.01" in res.stderr
        assert "Traceback" not in res.output


def test_click_usage_error_exit_2():
    res = CliRunner().invoke(main, ["boundary", "--grid", "3"])
    assert res.exit_code == 2
    assert "--grid" in res.stderr


def test_threads_option_is_gone():
    res = CliRunner().invoke(main, ["--threads", "2", "lambda"])
    assert res.exit_code == 2
    assert "No such option" in res.stderr


def test_numerical_failure_exit_3(monkeypatch):
    def boom(d):
        raise g.NumericalError("root search stalled")

    monkeypatch.setattr("goldenstop.cli.bessel_lambda", boom)
    res = CliRunner().invoke(main, ["lambda"])
    assert res.exit_code == 3
    assert "numerical failure" in res.stderr


def test_failing_checks_exit_4():
    # a 200-path step-0.01 run is far too coarse for the distribution
    # tolerances, so the check table must report failures
    res = CliRunner().invoke(
        main,
        ["simulate", "--check", "--checks", "golden-rule",
         "--n-paths", "200", "--step", "0.01"],
    )
    assert res.exit_code == 4
    rows = _rows(res.output)
    assert rows[0] == ["name", "value", "tolerance", "passed"]
    names = [r[0] for r in rows[1:]]
    assert "objective-vs-prediction" in names
    assert any(r[3] == "false" for r in rows[1:])


def test_check_table_json(monkeypatch):
    rows = [g.CheckResult("a", 0.5, 1.0, True, "ok"), g.CheckResult("b", 3.0, 2.0, False, "bad")]
    monkeypatch.setattr("goldenstop.cli.run_checks", lambda **kw: rows)
    res = CliRunner().invoke(main, ["--format", "json", "simulate", "--checks", "cev"])
    assert res.exit_code == 4
    assert json.loads(res.output) == {"checks": [r.row() for r in rows], "passed": False}
    monkeypatch.setattr("goldenstop.cli.run_checks", lambda **kw: rows[:1])
    res = CliRunner().invoke(main, ["--format", "json", "simulate", "--check"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"checks": [rows[0].row()], "passed": True}


def _parsed_rules(monkeypatch, *specs):
    seen = []

    def fake_compare(model, x0, rules, **kwargs):
        seen.extend(rules)
        return g.RuleComparison(estimates=[], objectives=None)

    monkeypatch.setattr("goldenstop.cli.compare_rules", fake_compare)
    res = CliRunner().invoke(main, ["simulate", *[a for s in specs for a in ("--rule", s)]])
    return res, seen


def test_drawdown_rule_parses_with_and_without_kappa(monkeypatch):
    res, rules = _parsed_rules(monkeypatch, "drawdown", "drawdown:3.5")
    assert res.exit_code == 0
    assert rules == [g.StoppingRule.drawdown_rule(g.cev_rule_threshold(g.CevModel(3.0))),
                     g.StoppingRule.drawdown_rule(3.5)]


def test_boundary_rule_needs_a_path(monkeypatch):
    res, rules = _parsed_rules(monkeypatch, "boundary:")
    assert res.exit_code == 2 and rules == []
    assert "boundary rule needs a CSV path" in res.stderr


def test_boundary_file_from_the_boundary_command_roundtrips(monkeypatch, tmp_path):
    path = tmp_path / "b.csv"
    assert CliRunner().invoke(main, ["--out", str(path), "boundary"]).exit_code == 0
    res = CliRunner().invoke(
        main, ["simulate", "--rule", f"boundary:{path}", "--n-paths", "10", "--step", "0.01"]
    )
    assert res.exit_code == 0, res.stderr
    res, rules = _parsed_rules(monkeypatch, f"boundary:{path}")
    assert res.exit_code == 0
    # 17 significant digits round-trip doubles exactly, and h is the model's
    b = g.minimal_boundary(g.make_bessel_model(3.0), 0.5, 2.0)
    back = rules[0].boundary
    assert back.provenance == "imported"
    for name in ("i_grid", "f_grid", "h_grid"):
        assert np.array_equal(getattr(back, name), getattr(b, name)), name


def test_boundary_file_needs_only_i_and_f(monkeypatch, tmp_path):
    b = g.line_boundary(g.make_bessel_model(3.0), LAM3, 0.5, 2.0, 9)
    path = tmp_path / "fi.csv"
    path.write_text("i,f\n" + "".join(f"{i:.17g},{f:.17g}\n" for i, f in zip(b.i_grid, b.f_grid)))
    res, rules = _parsed_rules(monkeypatch, f"boundary:{path}")
    assert res.exit_code == 0, res.stderr
    assert np.array_equal(rules[0].boundary.f_grid, b.f_grid)
    assert np.allclose(rules[0].boundary.h_grid, 2.0 * b.i_grid, rtol=1e-12, atol=0)


def test_boundary_file_is_checked_against_the_running_model(tmp_path):
    # f = 2.618 i clears d = 3's h = 2 i but not d = 2.5's h = 4 i, whatever h the file carries
    path = tmp_path / "b.csv"
    assert CliRunner().invoke(main, ["--out", str(path), "boundary", "--ray"]).exit_code == 0
    res = CliRunner().invoke(main, ["simulate", "-d", "2.5", "--rule", f"boundary:{path}",
                                    "--n-paths", "10", "--step", "0.01"])
    assert res.exit_code == 2
    assert "boundary dips below the sign-change curve" in res.stderr


def test_redirected_stdout_is_not_kept_alive():
    refs = []
    for _ in range(50):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["lambda"], standalone_mode=False) == 0
        assert buf.getvalue() == "d,lambda,residual\n3,2.6180339887498949,0\n"
        refs.append(weakref.ref(buf))
        del buf
    gc.collect()
    assert [r for r in refs if r() is not None] == []


@pytest.mark.parametrize("args, match", [
    (["simulate", "--rule", "ratio:4.0", "--n-paths", "64", "--step", "1e-3", "--horizon", "0.05"],
     "horizon-biased"),
    (["boundary", "--shots", "1", "--grid", "16"], "not converged"),
])
def test_cli_warnings_name_a_caller_outside_the_package(args, match):
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        res = CliRunner().invoke(main, args)
    assert res.exit_code == 0
    assert len(w) == 1 and match in str(w[0].message)
    assert PACKAGE not in Path(w[0].filename).resolve().parents


def test_module_run_warning_names_no_package_line(monkeypatch):
    # run as `python -m goldenstop.cli` the CLI module is __main__, yet a
    # file of the package; the warning still names a line outside it
    monkeypatch.setattr(sys, "argv", ["goldenstop", "boundary", "--shots", "1", "--grid", "16"])
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as done:
            runpy.run_module("goldenstop.cli", run_name="__main__")
    assert done.value.code == 0
    (warned,) = [x for x in w if issubclass(x.category, UserWarning)]
    assert "not converged" in str(warned.message)
    assert PACKAGE not in Path(warned.filename).resolve().parents


def test_unknown_check_group_exit_2():
    res = CliRunner().invoke(main, ["simulate", "--check", "--checks", "martians"])
    assert res.exit_code == 2


def test_simulate_csv_contract_and_library_agreement():
    res = CliRunner().invoke(
        main,
        ["simulate", "--n-paths", "50", "--step", "0.01",
         "--rule", "ratio", "--rule", "fixed:0.1"],
    )
    assert res.exit_code == 0
    rows = _rows(res.output)
    assert rows[0] == ["rule_id", "mean", "std_error", "n_paths", "seed", "step"]
    assert len(rows) == 3
    assert rows[1][0] == "ratio(lam=2.6180339887498949)"
    assert rows[1][3] == "50" and rows[1][4] == "42" and rows[1][5] == "0.01"
    # %.17g round-trips doubles, so the printed mean must equal the
    # library estimate bit for bit
    est = g.compare_rules(
        g.make_bessel_model(3.0), 1.0, [g.StoppingRule.ratio_rule(LAM3)],
        n_paths=50, seed=42, step=0.01, horizon=50.0,
    ).estimates[0]
    assert float(rows[1][1]) == est.mean
    assert float(rows[1][2]) == est.std_error


def test_simulate_json():
    res = CliRunner().invoke(
        main, ["--format", "json", "simulate", "--n-paths", "20", "--step", "0.01"]
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    (e,) = doc["estimates"]
    assert e["n_paths"] == 20 and e["seed"] == 42
    assert set(e) >= {"mean", "std_error", "rule_id", "horizon", "truncated_fraction"}


def test_cev_csv_contract():
    res = CliRunner().invoke(
        main,
        ["cev", "--n-paths", "30", "--step", "0.01",
         "--kappa", "2.0", "--kappa", "3.0"],
    )
    assert res.exit_code == 0
    rows = _rows(res.output)
    assert rows[0] == ["kappa", "mean", "std_error"]
    assert [r[0] for r in rows[1:]] == ["2", "3"]


def test_cev_json_carries_threshold():
    res = CliRunner().invoke(
        main, ["--format", "json", "cev", "--n-paths", "20", "--step", "0.01"]
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["threshold"] == LAM3
    assert abs(doc["retracement"] - 0.618033988749895) < 1e-12
    assert len(doc["estimates"]) == 3  # default sweep


def test_boundary_ray_table():
    res = CliRunner().invoke(
        main, ["boundary", "--ray", "--grid", "17", "--i-min", "0.5", "--i-max", "2.0"]
    )
    assert res.exit_code == 0
    rows = _rows(res.output)
    assert rows[0] == ["i", "f", "h", "f_over_i"]
    assert len(rows) == 18
    for r in rows[1:]:
        assert abs(float(r[3]) - LAM3) < 1e-12


def test_boundary_shooting_table():
    res = CliRunner().invoke(
        main,
        ["--format", "json", "boundary", "--grid", "33", "--shots", "4",
         "--i-min", "0.5", "--i-max", "2.0"],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert "converged=True" in doc["provenance"]
    for row in doc["rows"]:
        assert abs(row["f_over_i"] - LAM3) < 1e-8
        assert row["f"] > row["h"]


def test_value_command_agrees_with_closed_form():
    res = CliRunner().invoke(main, ["value", "--lam", "3.0", "--i", "1.0", "--x", "1.5"])
    assert res.exit_code == 0
    rows = _rows(res.output)
    assert rows[0][-1] == "abs_diff"
    row = rows[1]
    assert float(row[4]) == g.bessel_value(3.0, 3.0, 1.0, 1.5)
    assert float(row[6]) < 1e-8


def test_distribution_command():
    res = CliRunner().invoke(main, ["distribution"])
    assert res.exit_code == 0
    table = {r[0]: float(r[1]) for r in _rows(res.output)[1:]}
    dist = g.make_stopped_distribution(3.0, LAM3, 1.0)
    assert abs(table["exponent"] - g.GOLDEN_RATIO) < 1e-12
    assert table["mean"] == g.stopped_mean(dist)
    assert table["upper_support"] == LAM3
    assert table["q0.50"] == g.stopped_quantile(dist, 0.5)
    assert sum(1 for k in table if k.startswith("q")) == 19


def test_fib_command():
    res = CliRunner().invoke(main, ["fib", "--n", "12"])
    assert res.exit_code == 0
    table = {r[0]: r[1] for r in _rows(res.output)[1:]}
    assert float(table["golden"]) == 144 / 233
    assert abs(float(table["retracement"]) - 0.618033988749895) < 1e-12
    assert abs(float(table["golden_limit"]) - 0.618033988749895) < 1e-12


def test_help_lists_subcommands():
    res = CliRunner().invoke(main, ["--help"])
    assert res.exit_code == 0
    for name in ("lambda", "boundary", "value", "distribution", "simulate", "cev", "fib"):
        assert name in res.output


def test_simulate_sampling_defaults(monkeypatch):
    # a plain estimate runs 50,000 paths at step 1e-4; --check leaves both
    # to the certification suite
    seen = {}

    def fake_compare(model, x0, rules, **kwargs):
        seen["compare"] = kwargs
        return g.RuleComparison(estimates=[], objectives=None)

    def fake_checks(**kwargs):
        seen["checks"] = kwargs
        return []

    monkeypatch.setattr("goldenstop.cli.compare_rules", fake_compare)
    monkeypatch.setattr("goldenstop.cli.run_checks", fake_checks)
    assert CliRunner().invoke(main, ["simulate"]).exit_code == 0
    assert seen["compare"]["n_paths"] == 50_000 and seen["compare"]["step"] == 1e-4
    assert seen["compare"]["seed"] == 42 and seen["compare"]["horizon"] == 50.0
    assert CliRunner().invoke(main, ["simulate", "--check"]).exit_code == 0
    assert seen["checks"] == dict(groups=None, n_paths=None, seed=42, step=None)


def test_checks_implies_check(monkeypatch):
    # naming groups runs the suite on them; it never falls through to a
    # 50,000-path plain estimate
    seen = {}

    def fake_compare(model, x0, rules, **kwargs):
        seen["compare"] = kwargs
        return g.RuleComparison(estimates=[], objectives=None)

    def fake_checks(**kwargs):
        seen["checks"] = kwargs
        return []

    monkeypatch.setattr("goldenstop.cli.compare_rules", fake_compare)
    monkeypatch.setattr("goldenstop.cli.run_checks", fake_checks)
    assert CliRunner().invoke(main, ["simulate", "--checks", "cev"]).exit_code == 0
    assert seen == {"checks": dict(groups=("cev",), n_paths=None, seed=42, step=None)}


def test_check_mode_rejects_plain_estimate_options(monkeypatch):
    # the suite fixes its own models, rules and horizons: an option it would
    # ignore exits 2 naming it, whether given as a flag or an env variable
    ran = []
    monkeypatch.setattr("goldenstop.cli.run_checks", lambda **kw: ran.append(kw) or [])
    res = CliRunner().invoke(
        main,
        ["simulate", "--checks", "cev", "--n-paths", "64", "--step", "0.01", "--x0", "5",
         "--rule", "ratio:9", "--horizon", "1", "--no-bridge"],
    )
    assert res.exit_code == 2
    assert "--x0, --rule, --horizon, --bridge/--no-bridge cannot be combined" in res.stderr
    for args, env in ((["--dim", "4"], {}), ([], {"GOLDENSTOP_SIMULATE_SCHEME": "exact"})):
        res = CliRunner().invoke(main, ["simulate", "--check", *args], env=env)
        assert res.exit_code == 2
        assert ("--dim" if args else "--scheme") in res.stderr
    assert ran == []
    # the options the suite reads keep working
    res = CliRunner().invoke(
        main, ["--seed", "5", "simulate", "--checks", "cev", "--n-paths", "64", "--step", "0.01"]
    )
    assert res.exit_code == 0
    assert ran == [dict(groups=("cev",), n_paths=64, seed=5, step=0.01)]


def test_unknown_subcommand_exit_2():
    res = CliRunner().invoke(main, ["frobnicate"])
    assert res.exit_code == 2
    assert "No such command" in res.stderr


def test_seed_prints_exactly_past_2_to_53():
    # integers print as digits: %.17g would print 2^53 + 1 as ...992
    seed = 2**53 + 1
    args = ["--seed", str(seed), "simulate", "--n-paths", "8", "--step", "0.01"]
    res_csv = CliRunner().invoke(main, args)
    res_json = CliRunner().invoke(main, ["--format", "json", *args])
    assert res_csv.exit_code == res_json.exit_code == 0
    assert _rows(res_csv.output)[1][4] == "9007199254740993"
    assert json.loads(res_json.output)["estimates"][0]["seed"] == seed
    assert '"seed": 9007199254740993' in res_json.output


def _table_value(doc, name):
    """The document value that row ``name`` of a name,value table prints."""
    if name in doc:
        return doc[name]
    if name.endswith("_limit"):
        return doc["limits"][name[: -len("_limit")]]
    return doc["quantiles"][name[1:]]


def _not_json(token):
    # json.loads accepts NaN, Infinity and -Infinity; RFC 8259 parsers do not
    raise AssertionError(f"{token} is not JSON")


_AGREEMENT_CASES = [
    (["lambda", "--dim", "5.5"], lambda doc: [doc]),
    (["value", "--dim", "4", "--lam", "3", "--i", "0.7", "--x", "1.1"], lambda doc: [doc]),
    (["boundary", "--ray", "--grid", "17"], lambda doc: doc["rows"]),
    (["simulate", "--n-paths", "16", "--step", "0.01", "--rule", "ratio", "--rule", "fixed:0.1"],
     lambda doc: doc["estimates"]),
    (["cev", "--n-paths", "16", "--step", "0.01"], lambda doc: doc["estimates"]),
    (["simulate", "--checks", "cev"], lambda doc: doc["checks"]),
    (["distribution", "--dim", "7", "--x0", "1.3"], None),
    (["fib", "--n", "40"], None),
]


@pytest.mark.parametrize("args, records", _AGREEMENT_CASES,
                         ids=[" ".join(args) for args, _ in _AGREEMENT_CASES])
def test_csv_cells_print_the_json_values(monkeypatch, args, records):
    checks = [g.CheckResult("a", 0.5, 1.0, True, "ok"), g.CheckResult("b", 3.0, 2.0, False, "bad")]
    monkeypatch.setattr("goldenstop.cli.run_checks", lambda **kw: checks)
    res_csv, res_json = (CliRunner().invoke(main, ["--format", fmt, *args]) for fmt in ("csv", "json"))
    assert res_csv.exit_code == res_json.exit_code
    header, *rows = _rows(res_csv.output)
    doc = json.loads(res_json.output, parse_constant=_not_json)
    if records is None:
        assert header == ["name", "value"]
        expected = [{"name": name, "value": _table_value(doc, name)} for name, _ in rows]
    else:
        expected = records(doc)
    assert len(rows) == len(expected) > 0
    for row, record in zip(rows, expected):
        assert len(row) == len(header)
        for column, cell in zip(header, row):
            v = record[column]
            if isinstance(v, bool):
                assert cell == ("true" if v else "false"), column
            elif isinstance(v, (int, str)):
                assert cell == str(v), column
            else:
                assert float(cell) == v, column


def _readme_transcripts():
    """(arguments, printed lines) of every `$ goldenstop ...` transcript in
    README's Command line section that shows its output; a trailing
    ``...`` line cuts the printed lines short."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    out = []
    for block in section.split("```")[1::2]:
        for chunk in block.split("$ goldenstop ")[1:]:
            command, *lines = chunk.rstrip("\n").split("\n")
            while lines and not lines[-1]:
                lines.pop()
            if lines:
                out.append((shlex.split(command), lines))
    return out


_TRANSCRIPTS = _readme_transcripts()


@pytest.mark.parametrize("args, lines", _TRANSCRIPTS, ids=[" ".join(a) for a, _ in _TRANSCRIPTS])
def test_readme_transcripts_print_what_they_show(args, lines):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.stderr
    printed = res.output.splitlines()
    if lines[-1] == "...":
        lines = lines[:-1]
        printed = printed[: len(lines)]
    assert printed == lines


@pytest.mark.parametrize("command", ["simulate", "cev"])
def test_one_path_is_a_usage_error(command):
    # a standard error needs two paths; one would print "std_error": Infinity
    res = CliRunner().invoke(main, ["--format", "json", command, "--n-paths", "1", "--step", "0.01"])
    assert res.exit_code == 2
    assert "--n-paths" in res.stderr and res.stdout == ""


def test_non_finite_json_exits_2(capsys):
    assert dispatch(lambda: ({"std_error": math.inf}, [], [], 0), fmt="json") == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
