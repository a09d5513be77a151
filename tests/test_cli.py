import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "ltbounds", *args],
                          capture_output=True, text=True)


def test_bound_momentum_optimal_json():
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", "momentum-optimal")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["method"] == "momentum_optimal"
    np.testing.assert_allclose(blob["k_ratio"], 0.381777046629389, rtol=1e-12)
    np.testing.assert_allclose(blob["l_ratio"], 1.618434370801864, rtol=1e-12)


def test_bound_from_c_fractional():
    proc = run_cli("bound", "--d", "3", "--sigma", "0.5", "--method", "from-c",
                   "--c-value", "0.046737")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["method"] == "fractional_second"
    np.testing.assert_allclose(blob["k_ratio"], 0.826297, atol=1e-4)


def test_bound_best_of_carries_lifted_ratio():
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", "best-of")
    blob = json.loads(proc.stdout)
    assert blob["method"] == "best_of"
    np.testing.assert_allclose(blob["l_ratio"], 1.455786, rtol=1e-12)


def test_bound_csv_json_numeric_identity():
    args = ("bound", "--d", "3", "--sigma", "1", "--method", "momentum-optimal")
    blob = json.loads(run_cli(*args, "--format", "json").stdout)
    row = next(csv.DictReader(io.StringIO(run_cli(*args, "--format", "csv").stdout)))
    for key in ("k_ratio", "l_ratio"):
        assert float(row[key]) == blob[key]


def test_bound_text_format():
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", "rumin-original",
                   "--format", "text")
    assert proc.returncode == 0
    assert "k_ratio" in proc.stdout
    assert f"{math.sqrt(5.0):.6f}" in proc.stdout


def test_bound_optimized_c(tmp_path):
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", "from-c",
                   "--optimize", "--max-iters", "40")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["c_value"] <= 0.3737
    assert blob["trial"]["profile"]["kind"] == "rational_power"
    assert blob["trial"]["weight"]["kind"] == "bump_rich"


@pytest.mark.parametrize("seed, message", [
    ("2.0,0.05", "3 of 3 initial simplex points are infeasible"),
    ("2.0,0.5,1.0", "expects seed_params = (a, p)"),
], ids=["infeasible", "wrong-length"])
def test_bound_optimize_bad_seed_is_usage_error(seed, message):
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", "from-c", "--optimize",
                   "--phi-kind", "bump_simple", "--seed", seed)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bound_optimize_at_tau_below_float_spacing_is_usage_error():
    # tau = 5e-17: 1 + tau == 1.0, so every simplex point is divergent
    proc = run_cli("bound", "--d", "1", "--sigma", "1e16", "--method", "from-c", "--optimize",
                   "--max-iters", "5")
    assert proc.returncode == 2
    assert "--optimize: 5 of 5 initial simplex points are infeasible" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("d, sigma", [("100", "1e-3"), ("1000", "0.01"), ("100000", "1"), ("1", "1e-9")])
def test_bound_best_of_at_large_tau(d, sigma):
    proc = run_cli("bound", "--d", d, "--sigma", sigma, "--method", "best-of")
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(proc.stdout)
    assert 0.0 < blob["k_ratio"] < 1.0 < blob["l_ratio"]


@pytest.mark.parametrize("sigma, c_value", [("1", "1e-320"), ("1e-9", "1e300")])
def test_bound_c_value_outside_float_range_is_usage_error(sigma, c_value):
    proc = run_cli("bound", "--d", "1", "--sigma", sigma, "--method", "from-c", "--c-value", c_value)
    assert proc.returncode == 2
    assert "float range" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bound_usage_errors():
    assert run_cli("bound", "--d", "1", "--sigma", "1").returncode == 2
    assert run_cli("bound", "--d", "0", "--sigma", "1", "--method", "best-of").returncode == 2
    assert run_cli("bound", "--d", "3", "--sigma", "0.5", "--method", "rumin-original").returncode == 2
    assert run_cli("bound", "--d", "1", "--sigma", "1", "--method", "from-c").returncode == 2
    assert run_cli("bound", "--d", str(10**400), "--sigma", "1", "--method", "best-of").returncode == 2
    assert run_cli("bound", "--d", "3", "--sigma", "5e-324", "--method", "from-c",
                   "--c-value", "2").returncode == 2


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", "momentum-optimal",
                   "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert json.loads(target.read_text())["method"] == "momentum_optimal"


@pytest.mark.parametrize("argv", [
    ["bound", "--d", "1", "--sigma", "1", "--method", "momentum-optimal"],
    ["optimize", "CONFIG"],
    ["table", "--paper", "--quad-abs-tol", "1e-7", "--quad-rel-tol", "1e-6"],
    ["verify", "CONFIG"],
], ids=["bound", "optimize", "table", "verify"])
def test_unopenable_out_is_usage_error(tmp_path, argv):
    config = tmp_path / "config.json"
    if argv[0] == "optimize":
        config.write_text(json.dumps([{"d": 1, "sigma": 1.0, "seed_params": [2.0, 0.5],
                                       "phi_kind": "bump_simple", "max_iters": 1}]))
    else:
        config.write_text(json.dumps([{"potential": {"kind": "square_well", "depth": 3.0, "width": 2.0},
                                       "grid": {"half_width": 10.0, "n_points": 201}}]))
    proc = run_cli(*(str(config) if arg == "CONFIG" else arg for arg in argv),
                   "--out", str(tmp_path / "missing" / "x"))
    assert proc.returncode == 2
    assert "cannot write --out" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_optimize_streams_json_lines(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps([
        {"d": 1, "sigma": 1.0, "seed_params": [4.5, 0.25, 0.36, 2.1], "max_iters": 10},
        {"d": 1, "sigma": 1.0, "seed_params": [2.0, 0.5], "phi_kind": "bump_simple",
         "max_iters": 10},
    ]))
    proc = run_cli("optimize", str(config))
    assert proc.returncode == 0
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 3
    assert records[0]["run"] == 0 and records[1]["run"] == 1
    assert records[2] == {"summary": True, "d": 1, "sigma": 1.0,
                          "best_value": min(records[0]["best_value"], records[1]["best_value"])}


def test_optimize_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"d": 1, "sigma": 1.0, "seed_params": [2.0, 0.5],
                                "stepsize": 0.2}]))
    assert run_cli("optimize", str(bad)).returncode == 2
    assert run_cli("optimize", str(tmp_path / "missing.json")).returncode == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert run_cli("optimize", str(notjson)).returncode == 2
    for run in ({"d": 1, "sigma": 1.0, "seed_params": 5}, {"d": [1], "sigma": 1.0, "seed_params": [2.0, 0.5]}):
        bad.write_text(json.dumps([run]))
        proc = run_cli("optimize", str(bad))
        assert proc.returncode == 2
        assert "run 0: d and sigma must be numbers" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_optimize_bad_config_keeps_out_file(tmp_path):
    # the sweep is validated before --out opens (and truncates) the file
    target = tmp_path / "results.jsonl"
    target.write_text('{"run": 0}\n')
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"d": [1], "sigma": 1.0, "seed_params": [2.0, 0.5]}]))
    proc = run_cli("optimize", str(bad), "--out", str(target))
    assert proc.returncode == 2
    assert "run 0: d and sigma must be numbers" in proc.stderr
    assert target.read_text() == '{"run": 0}\n'


def test_table_paper_passes():
    proc = run_cli("table", "--paper")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert all(row["status"] in ("pass", "info") for row in rows)
    gated = [row for row in rows if row["status"] != "info"]
    assert len(gated) >= 12
    assert run_cli("table").returncode == 2


def test_table_formats_agree():
    jrows = json.loads(run_cli("table", "--paper", "--format", "json").stdout)
    crows = list(csv.DictReader(io.StringIO(run_cli("table", "--paper", "--format", "csv").stdout)))
    assert len(jrows) == len(crows)
    for j, c in zip(jrows, crows):
        assert j["quantity"] == c["quantity"]
        assert float(c["computed"]) == j["computed"]
    text = run_cli("table", "--paper", "--format", "text").stdout
    assert "pass" in text and "fail" not in text


def test_verify_default_suite_holds():
    proc = run_cli("verify")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["all_hold"] is True
    assert len(blob["cases"]) == 4
    assert all(case["margin"] > 0.0 for case in blob["cases"])


def test_verify_fails_at_semiclassical_ratio():
    proc = run_cli("verify", "--l-ratio", "1.0")
    assert proc.returncode == 1
    blob = json.loads(proc.stdout)
    assert blob["all_hold"] is False
    failing = {case["potential"]: case["holds"] for case in blob["cases"]}
    assert not failing["poschl_teller(nu=2,width=1)"]


def test_verify_custom_config(tmp_path):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps({"cases": [
        {"potential": {"kind": "square_well", "depth": 3.0, "width": 2.0},
         "grid": {"half_width": 10.0, "n_points": 1001}},
    ]}))
    proc = run_cli("verify", str(config))
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert len(blob["cases"]) == 1
    assert blob["cases"][0]["potential"] == "square_well(depth=3,width=2)"

    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert run_cli("verify", str(empty)).returncode == 0

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps([{"potential": {"kind": "morse"},
                                   "grid": {"half_width": 5.0, "n_points": 101}}]))
    assert run_cli("verify", str(broken)).returncode == 2


def test_verify_csv_format():
    proc = run_cli("verify", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 4
    assert {"potential", "lhs", "rhs", "margin", "holds"} <= set(rows[0])


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_verify_rejects_bad_l_ratio(value):
    proc = run_cli("verify", f"--l-ratio={value}")
    assert proc.returncode == 2
    assert "--l-ratio must be positive and finite" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, field", [
    (["bound", "--d", "1", "--sigma", "1", "--method", "best-of", "--quad-abs-tol=-1"], "abs_tol"),
    (["optimize", "CONFIG", "--quad-rel-tol", "nan"], "rel_tol"),
    (["table", "--paper", "--quad-abs-tol=-1"], "abs_tol"),
    (["table", "--paper", "--quad-abs-tol", "inf"], "abs_tol"),
    (["verify", "--quad-rel-tol", "nan"], "rel_tol"),
], ids=["bound", "optimize", "table", "table-inf", "verify"])
def test_bad_quad_tol_is_usage_error(tmp_path, argv, field):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps([{"d": 1, "sigma": 1.0, "seed_params": [2.0, 0.5],
                                   "phi_kind": "bump_simple", "max_iters": 1}]))
    proc = run_cli(*(str(config) if arg == "CONFIG" else arg for arg in argv))
    assert proc.returncode == 2
    assert f"{field} must be" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", [
    {"potential": {"kind": "square_well", "depth": 3.0, "width": 2.0},
     "grid": {"half_width": math.inf, "n_points": 1001}},
    {"potential": {"kind": "gaussian_well", "depth": math.inf, "width": 2.0},
     "grid": {"half_width": 10.0, "n_points": 1001}},
    {"potential": {"kind": "poschl_teller", "nu": math.nan},
     "grid": {"half_width": 10.0, "n_points": 1001}},
    {"potential": {"kind": "square_well", "depth": 3.0, "width": math.inf},
     "grid": {"half_width": 10.0, "n_points": 1001}},
    {"potential": {"kind": "square_well", "depth": 3.0, "width": 2.0},
     "grid": {"half_width": 10.0, "n_points": 101.5}},
    {"potential": {"kind": "square_well", "depth": 3.0, "width": 2.0},
     "grid": {"half_width": 10.0, "n_points": 10**400}},
    {"potential": {"kind": "square_well", "depth": 3.0, "width": 2.0},
     "grid": {"half_width": 10.0, "n_points": 1e300}},
    {"potential": {"kind": "gaussian_well", "depth": "5", "width": 2.0},
     "grid": {"half_width": 10.0, "n_points": 1001}},
    {"potential": {"kind": "gaussian_well", "depth": 5.0, "width": True},
     "grid": {"half_width": 10.0, "n_points": 1001}},
], ids=["half_width-inf", "depth-inf", "nu-nan", "width-inf", "n_points-fraction", "n_points-overflow",
        "n_points-1e300", "depth-string", "width-bool"])
def test_verify_non_finite_config_is_usage_error(tmp_path, case):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps([case]))
    proc = run_cli("verify", str(config))
    assert proc.returncode == 2
    assert "bad verify config" in proc.stderr
    assert "Traceback" not in proc.stderr
