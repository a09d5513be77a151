import argparse
import csv
import io
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from ltbounds import cli, constants, functionals, optimize

README = Path(__file__).resolve().parents[1] / "README.md"


class CliResult(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def run_cli(capsys):
    """Run cli.main in this process: its exit code and what it printed.
    Any exception other than SystemExit fails the test."""
    def run(*args):
        capsys.readouterr()
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return CliResult(code, out, err)
    return run


def run_entry_point(*args, timeout=None):
    """Run python -m ltbounds in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "ltbounds", *args],
                          capture_output=True, text=True, timeout=timeout)


_RUNTIME_IMPORTS = """
import sys
before = set(sys.modules)  # what interpreter start-up imported, site hooks included
import contextlib, io, json
from ltbounds import cli, functionals, trial, verify
weight = trial.normalize_weight("bump_rich", q=0.36, r=2.1)
functionals.averaging_objective(trial.normalize_profile("rational_power", a=4.5, p=0.25), weight,
                                functionals.ProblemSpec(1, 1.0))
functionals.averaging_objective(trial.normalize_profile("indicator"), weight, functionals.ProblemSpec(1, 1.0))
verify.discretize_and_solve(*verify.default_suite()[0])
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["table", "--paper"])
print(json.dumps([code, sorted({name.partition(".")[0] for name in set(sys.modules) - before}),
                  "numpy.polynomial" in sys.modules]))
"""


def test_numpy_is_the_only_runtime_dependency():
    # a smooth and an indicator objective (graded_rule and graded_tails), a
    # verify case and table --paper in a fresh interpreter import nothing outside
    # the standard library but numpy and ltbounds itself; both rules come from
    # quad's own Kronrod 15 panel, so numpy.polynomial is never imported
    proc = subprocess.run([sys.executable, "-c", _RUNTIME_IMPORTS], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, imported, polynomial = json.loads(proc.stdout)
    assert code == 0
    assert {"numpy", "ltbounds"} <= set(imported)
    assert [name for name in imported if name not in sys.stdlib_module_names | {"numpy", "ltbounds"}] == []
    assert not polynomial


def test_bound_momentum_optimal_json():
    proc = run_entry_point("bound", "--d", "1", "--sigma", "1", "--method", "momentum-optimal")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["method"] == "momentum_optimal"
    np.testing.assert_allclose(blob["k_ratio"], 0.381777046629389, rtol=1e-12)
    np.testing.assert_allclose(blob["l_ratio"], 1.618434370801864, rtol=1e-12)


def test_bound_from_c_fractional(run_cli):
    proc = run_cli("bound", "--d", "3", "--sigma", "0.5", "--method", "from-c",
                   "--c-value", "0.046737")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["method"] == "fractional_second"
    np.testing.assert_allclose(blob["k_ratio"], 0.826297, atol=1e-4)


def test_bound_best_of_carries_lifted_ratio(run_cli):
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", "best-of")
    blob = json.loads(proc.stdout)
    assert blob["method"] == "best_of"
    np.testing.assert_allclose(blob["l_ratio"], 1.455786, rtol=1e-12)


def test_bound_csv_json_numeric_identity(run_cli):
    args = ("bound", "--d", "3", "--sigma", "1", "--method", "momentum-optimal")
    blob = json.loads(run_cli(*args, "--format", "json").stdout)
    row = next(csv.DictReader(io.StringIO(run_cli(*args, "--format", "csv").stdout)))
    for key in ("k_ratio", "l_ratio"):
        assert float(row[key]) == blob[key]


def test_bound_text_format(run_cli):
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", "rumin-original",
                   "--format", "text")
    assert proc.returncode == 0
    assert "k_ratio" in proc.stdout
    assert f"{math.sqrt(5.0):.6f}" in proc.stdout


def test_bound_optimized_c(run_cli, tmp_path):
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", "from-c",
                   "--optimize", "--max-iters", "40")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["c_value"] <= 0.3737
    assert blob["trial"]["profile"]["kind"] == "rational_power"
    assert blob["trial"]["weight"]["kind"] == "bump_rich"


@pytest.mark.parametrize("method", ["from-c", "best-of"])
def test_bound_optimize_out_of_iterations_warns(run_cli, method):
    # the seed's own C is still an upper bound: exit 0, the usual stdout, one stderr line
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", method, "--optimize", "--max-iters", "1")
    assert proc.returncode == 0
    assert proc.stderr == ("ltbounds bound: warning: --optimize did not converge within --max-iters 1; "
                           "C is the best value found\n")
    assert json.loads(proc.stdout)["c_value"] == pytest.approx(0.373554649068922, rel=1e-14)


def test_bound_optimize_converged_is_silent(run_cli):
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", "from-c", "--optimize")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["c_value"] <= 0.373522


@pytest.mark.parametrize("phi_kind, seed, message", [
    ("bump_simple", "2.0,0.05", "3 of 3 initial simplex points are infeasible"),
    ("bump_simple", "2.0,0.5,1.0", "expects seed_params = (a, p)"),
    ("bump_poly", "2.0,0.5", "expects seed_params = (a, p, q, r)"),
], ids=["infeasible", "wrong-length", "wrong-length-parametric"])
def test_bound_optimize_bad_seed_is_usage_error(run_cli, phi_kind, seed, message):
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", "from-c", "--optimize",
                   "--phi-kind", phi_kind, "--seed", seed)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bound_optimize_non_finite_seed_is_usage_error(run_cli):
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", "from-c", "--optimize",
                   "--seed", "inf,0.25,0.36,2.1")
    assert proc.returncode == 2
    assert "--optimize: seed_params must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stdout == ""


def test_bound_optimize_at_tau_below_float_spacing_is_usage_error(run_cli):
    # tau = 5e-17: 1 + tau == 1.0, so every simplex point is divergent
    proc = run_cli("bound", "--d", "1", "--sigma", "1e16", "--method", "from-c", "--optimize",
                   "--max-iters", "5")
    assert proc.returncode == 2
    assert "--optimize: 5 of 5 initial simplex points are infeasible" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bound_optimize_infeasible_start_names_the_reason(run_cli):
    # tau = 50 needs a > 25, beyond the box's a <= 20: every start point diverges
    proc = run_cli("bound", "--d", "100", "--sigma", "1", "--method", "from-c", "--optimize")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: ltbounds bound ")
    assert ("--optimize: 5 of 5 initial simplex points are infeasible; the first: deficit diverges at "
            "t -> 0: profile vanishes like t^20.0, weight needs exponent > 25.0") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_bound_optimize_non_finite_objective_is_usage_error(run_cli, monkeypatch):
    # a non-finite integrand value is a DivergentError: each simplex point is
    # penalized, and the search that finds no feasible start exits 2
    monkeypatch.setattr(functionals, "one_minus_rational", lambda p, x, out=None: np.full_like(x, np.nan))
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", "from-c", "--optimize", "--max-iters", "5")
    assert proc.returncode == 2
    assert "--optimize: 5 of 5 initial simplex points are infeasible" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("d, sigma", [("100", "1e-3"), ("1000", "0.01"), ("100000", "1"), ("1", "1e-9")])
def test_bound_best_of_at_large_tau(run_cli, d, sigma):
    proc = run_cli("bound", "--d", d, "--sigma", sigma, "--method", "best-of")
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(proc.stdout)
    assert 0.0 < blob["k_ratio"] < 1.0 < blob["l_ratio"]


@pytest.mark.parametrize("sigma, c_value", [("1", "1e-320"), ("1e-9", "1e300")])
def test_bound_c_value_outside_float_range_is_usage_error(run_cli, sigma, c_value):
    proc = run_cli("bound", "--d", "1", "--sigma", sigma, "--method", "from-c", "--c-value", c_value)
    assert proc.returncode == 2
    assert "float range" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bound_usage_errors(run_cli):
    assert run_cli("bound", "--d", "1", "--sigma", "1").returncode == 2
    assert run_cli("bound", "--d", "0", "--sigma", "1", "--method", "best-of").returncode == 2
    assert run_cli("bound", "--d", "3", "--sigma", "0.5", "--method", "rumin-original").returncode == 2
    assert run_cli("bound", "--d", "1", "--sigma", "1", "--method", "from-c").returncode == 2
    assert run_cli("bound", "--d", str(10**400), "--sigma", "1", "--method", "best-of").returncode == 2
    assert run_cli("bound", "--d", "3", "--sigma", "5e-324", "--method", "from-c",
                   "--c-value", "2").returncode == 2


@pytest.mark.parametrize("method, flags, message", [
    ("momentum-optimal", ["--optimize"], "--method momentum-optimal takes no C"),
    ("momentum-optimal", ["--c-value", "0.37"], "--method momentum-optimal takes no C"),
    ("rumin-original", ["--c-value", "0.37"], "--method rumin-original takes no C"),
    ("from-c", ["--c-value", "0.37", "--optimize"], "--c-value and --optimize both set C"),
    ("best-of", ["--c-value", "0.37", "--optimize"], "--c-value and --optimize both set C"),
    # --phi-kind and --seed only shape the search; --max-iters has a default, so its absence is not seen
    ("from-c", ["--c-value", "0.3736", "--seed", "9,9,9"], "--phi-kind and --seed set up the --optimize search"),
    ("best-of", ["--phi-kind", "bump_poly"], "--phi-kind and --seed set up the --optimize search"),
    ("momentum-optimal", ["--seed", "2,0.5"], "--phi-kind and --seed set up the --optimize search"),
], ids=["momentum-optimize", "momentum-c-value", "rumin-c-value", "from-c-both", "best-of-both",
        "from-c-seed", "best-of-phi-kind", "momentum-seed"])
def test_bound_rejects_c_flags_its_method_ignores(run_cli, monkeypatch, method, flags, message):
    searches = []
    monkeypatch.setattr(optimize, "minimize_averaging", lambda *args, **kwargs: searches.append(args))
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", method, *flags)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: ltbounds bound ")
    assert message in proc.stderr
    assert proc.stdout == ""
    assert searches == []  # rejected before any search


def test_bound_fractional_first_alias_is_gone(run_cli):
    # momentum-optimal already labels sigma != 1 as fractional_first
    proc = run_cli("bound", "--d", "3", "--sigma", "0.5", "--method", "fractional-first")
    assert proc.returncode == 2
    assert "invalid choice: 'fractional-first'" in proc.stderr
    assert "Traceback" not in proc.stderr
    proc = run_cli("bound", "--d", "3", "--sigma", "0.5", "--method", "momentum-optimal")
    assert json.loads(proc.stdout)["method"] == "fractional_first"


@pytest.mark.parametrize("command", ["optimize", "verify"])
def test_unreadable_config_is_usage_error(run_cli, tmp_path, command):
    proc = run_cli(command, str(tmp_path / "missing.json"))
    assert proc.returncode == 2
    assert "error: cannot read config: [Errno 2] No such file or directory" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["optimize", "verify"])
def test_invalid_json_config_is_usage_error(run_cli, tmp_path, command):
    config = tmp_path / "config.json"
    config.write_text("[{")
    proc = run_cli(command, str(config))
    assert proc.returncode == 2
    assert "error: config is not valid JSON: Expecting property name enclosed in double quotes" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_out_writes_file(run_cli, tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli("bound", "--d", "1", "--sigma", "1", "--method", "momentum-optimal",
                   "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert json.loads(target.read_text())["method"] == "momentum_optimal"


@pytest.mark.parametrize("argv", [
    ["bound", "--d", "1", "--sigma", "1", "--method", "momentum-optimal"],
    ["optimize", "CONFIG"],
    ["table", "--paper"],
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
    proc = run_entry_point(*(str(config) if arg == "CONFIG" else arg for arg in argv),
                           "--out", str(tmp_path / "missing" / "x"))
    assert proc.returncode == 2
    assert "cannot write --out" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_optimize_streams_json_lines(run_cli, tmp_path):
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


def test_optimize_config_errors(run_cli, tmp_path):
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


def test_optimize_bad_config_keeps_out_file(run_cli, tmp_path):
    # the sweep is validated before --out opens (and truncates) the file
    target = tmp_path / "results.jsonl"
    target.write_text('{"run": 0}\n')
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"d": [1], "sigma": 1.0, "seed_params": [2.0, 0.5]}]))
    proc = run_cli("optimize", str(bad), "--out", str(target))
    assert proc.returncode == 2
    assert "run 0: d and sigma must be numbers" in proc.stderr
    assert target.read_text() == '{"run": 0}\n'


def test_table_paper_passes(run_cli):
    proc = run_cli("table", "--paper")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert all(row["status"] in ("pass", "info") for row in rows)
    gated = [row for row in rows if row["status"] != "info"]
    assert len(gated) >= 12
    assert run_cli("table").returncode == 2


def test_table_formats_agree(run_cli):
    jrows = json.loads(run_cli("table", "--paper", "--format", "json").stdout)
    crows = list(csv.DictReader(io.StringIO(run_cli("table", "--paper", "--format", "csv").stdout)))
    assert len(jrows) == len(crows)
    for j, c in zip(jrows, crows):
        assert j["quantity"] == c["quantity"]
        assert float(c["computed"]) == j["computed"]
    text = run_cli("table", "--paper", "--format", "text").stdout
    assert "pass" in text and "fail" not in text


def test_verify_default_suite_holds(run_cli):
    proc = run_cli("verify")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["all_hold"] is True
    assert len(blob["cases"]) == 4
    assert all(case["margin"] > 0.0 for case in blob["cases"])


def test_verify_fails_at_semiclassical_ratio(run_cli):
    proc = run_cli("verify", "--l-ratio", "1.0")
    assert proc.returncode == 1
    blob = json.loads(proc.stdout)
    assert blob["all_hold"] is False
    failing = {case["potential"]: case["holds"] for case in blob["cases"]}
    assert not failing["poschl_teller(nu=2,width=1)"]


def test_verify_custom_config(run_cli, tmp_path):
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
    empty.write_text(json.dumps({"cases": []}))
    assert run_cli("verify", str(empty)).returncode == 0

    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps([{"potential": {"kind": "morse"},
                                   "grid": {"half_width": 5.0, "n_points": 101}}]))
    assert run_cli("verify", str(broken)).returncode == 2


FAILING_CASE = {"potential": {"kind": "poschl_teller", "nu": 2.0}, "grid": {"half_width": 20.0, "n_points": 201}}


@pytest.mark.parametrize("config", [
    {}, {"case": [FAILING_CASE]}, {"cases": [], "extra": 1}, {"cases": FAILING_CASE},
], ids=["empty-object", "misspelt-key", "extra-key", "cases-not-a-list"])
def test_verify_config_object_needs_exactly_a_cases_list(run_cli, tmp_path, config):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(config))
    proc = run_cli("verify", str(path), "--l-ratio", "1.0")
    assert proc.returncode == 2
    assert "verify config" in proc.stderr
    assert proc.stdout == ""
    path.write_text(json.dumps({"cases": [FAILING_CASE]}))  # the case does fail when read
    assert run_cli("verify", str(path), "--l-ratio", "1.0").returncode == 1


# a usage error found inside a subcommand's handler prints that subcommand's usage line
@pytest.mark.parametrize("argv", [
    ["bound", "--d", "1", "--sigma", "1", "--method", "momentum-optimal", "--optimize"],
    ["optimize", "MISSING"],
    ["table"],
    ["verify", "--l-ratio", "0"],
], ids=["bound", "optimize", "table", "verify"])
def test_handler_usage_error_prints_subcommand_usage(run_cli, tmp_path, argv):
    proc = run_cli(*(str(tmp_path / "missing.json") if arg == "MISSING" else arg for arg in argv))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"usage: ltbounds {argv[0]} ")
    assert f"ltbounds {argv[0]}: error: " in proc.stderr


def test_verify_csv_format(run_cli):
    proc = run_cli("verify", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 4
    assert {"potential", "lhs", "rhs", "margin", "holds"} <= set(rows[0])


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_verify_rejects_bad_l_ratio(run_cli, value):
    proc = run_cli("verify", f"--l-ratio={value}")
    assert proc.returncode == 2
    assert "--l-ratio must be positive and finite" in proc.stderr
    assert "Traceback" not in proc.stderr


# the quadrature tolerances are fixed inside ltbounds.quad: no subcommand takes them
@pytest.mark.parametrize("argv, message", [
    (["bound", "--d", "1", "--sigma", "1", "--method", "best-of", "--quad-abs-tol=1e-7"],
     "unrecognized arguments: --quad-abs-tol=1e-7"),
    (["optimize", "CONFIG", "--quad-rel-tol", "1e-6"], "unrecognized arguments: --quad-rel-tol 1e-6"),
    (["table", "--paper", "--quad-abs-tol=1e-7"], "unrecognized arguments: --quad-abs-tol=1e-7"),
    (["table", "--paper", "--quad-rel-tol", "inf"], "unrecognized arguments: --quad-rel-tol inf"),
    (["verify", "--quad-rel-tol=1e-6"], "unrecognized arguments: --quad-rel-tol=1e-6"),
], ids=["bound", "optimize", "table", "table-inf", "verify"])
def test_bad_quad_tol_is_usage_error(run_cli, tmp_path, argv, message):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps([{"d": 1, "sigma": 1.0, "seed_params": [2.0, 0.5],
                                   "phi_kind": "bump_simple", "max_iters": 1}]))
    proc = run_cli(*(str(config) if arg == "CONFIG" else arg for arg in argv))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("key, value", [("x_tol", 1e-6), ("f_tol", 1e-9), ("initial_simplex_scale", 0.15)])
def test_sweep_simplex_knobs_are_unknown_config_fields(run_cli, tmp_path, key, value):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps([{"d": 1, "sigma": 1.0, "seed_params": [2.0, 0.5],
                                   "phi_kind": "bump_simple", "max_iters": 1, key: value}]))
    proc = run_cli("optimize", str(config))
    assert proc.returncode == 2
    assert f"run 0: unknown fields ['{key}']" in proc.stderr
    assert "Traceback" not in proc.stderr


GOOD_RUN = {"d": 1, "sigma": 1.0, "seed_params": [2.0, 0.5], "phi_kind": "bump_simple", "max_iters": 1}
GOOD_GRID = {"half_width": 10.0, "n_points": 201}
GOOD_CASE = {"potential": {"kind": "square_well", "depth": 3.0, "width": 2.0}, "grid": GOOD_GRID}
JSON_INPUTS = {  # input -> (command, its name in errors, a good value, a required key, the config around a value)
    "run": ("optimize", "run 0", GOOD_RUN, "seed_params", lambda v: [v]),
    "verify-top-level": ("verify", "top level", {"cases": [GOOD_CASE]}, "cases", lambda v: v),
    "verify-case": ("verify", "case 0", GOOD_CASE, "grid", lambda v: [v]),
    "potential": ("verify", "case 0 potential", GOOD_CASE["potential"], "depth",
                  lambda v: [{**GOOD_CASE, "potential": v}]),
    "grid": ("verify", "case 0 grid", GOOD_GRID, "n_points", lambda v: [{**GOOD_CASE, "grid": v}]),
}


@pytest.mark.parametrize("defect", ["non-object", "unknown-key", "missing-key"])
@pytest.mark.parametrize("name", list(JSON_INPUTS))
def test_json_inputs_share_one_reader(run_cli, tmp_path, name, defect):
    command, label, good, required, wrap = JSON_INPUTS[name]
    bad, message = {
        "non-object": (7, f"{label}: must be a JSON"),
        "unknown-key": ({**good, "extra": 1}, f"{label}: unknown fields ['extra']"),
        "missing-key": ({k: v for k, v in good.items() if k != required},
                        f"{label}: missing fields ['{required}']"),
    }[defect]
    config, target = tmp_path / "config.json", tmp_path / "out.txt"
    config.write_text(json.dumps(wrap(good)))
    assert run_cli(command, str(config), "--out", str(target)).returncode == 0  # the good value passes
    target.write_text("kept\n")
    config.write_text(json.dumps(wrap(bad)))
    proc = run_cli(command, str(config), "--out", str(target))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert target.read_text() == "kept\n"


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
    {"potential": {"kind": "square_well", "depth": 1e250, "width": 2.0},
     "grid": {"half_width": 10.0, "n_points": 101}},
    *({"potential": {"kind": "square_well", "depth": 1, "width": 1},
       "grid": {"half_width": half_width, "n_points": 5}} for half_width in (1e-300, 1e-150, 1e300)),
    {"potential": {"kind": "square_well", "depth": 3.0, "width": 2.0},
     "grid": {"half_width": 1e156, "n_points": 401}},
    {**FAILING_CASE, "oops": 1},
    {"potential": FAILING_CASE["potential"]},
], ids=["half_width-inf", "depth-inf", "nu-nan", "width-inf", "n_points-fraction", "n_points-overflow",
        "n_points-1e300", "depth-string", "width-bool", "integral-overflow",
        "spacing-squared-underflow", "spacing-inverse-fourth-overflow", "spacing-squared-overflow",
        "spacing-inverse-fourth-underflow", "extra-case-key", "missing-case-key"])
def test_verify_non_finite_config_is_usage_error(run_cli, tmp_path, case):
    config = tmp_path / "suite.json"
    config.write_text(json.dumps([case]))
    proc = run_cli("verify", str(config))
    assert proc.returncode == 2
    assert "bad verify config" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_deep_well_terminates(tmp_path):
    # |E| > 2^19: float spacing near the lowest eigenvalue is wider than 1e-10
    config = tmp_path / "deep.json"
    config.write_text(json.dumps([{"potential": {"kind": "square_well", "depth": depth, "width": 2.0},
                                   "grid": {"half_width": 10.0, "n_points": 101}} for depth in (5.5e5, 4e6)]))
    proc = run_entry_point("verify", str(config), timeout=60)
    assert proc.returncode == 0
    cases = json.loads(proc.stdout)["cases"]
    assert [len(case["negative_eigenvalues"]) for case in cases] == [11, 11]  # one per node in the well
    assert cases[0]["negative_eigenvalues"][-1] < -2.0**19


def test_verify_unresolved_well_warns_and_keeps_its_verdict(tmp_path):
    # h = 0.04 = width/4, h sqrt(depth) = 2.24: only the resolution advisory fires,
    # and the 601-node sum still fails the inequality with exit 1
    config = tmp_path / "narrow.json"
    config.write_text(json.dumps([{"potential": {"kind": "square_well", "depth": 3162.3, "width": 0.16},
                                   "grid": {"half_width": 12.0, "n_points": 601}}]))
    proc = run_entry_point("verify", str(config), "--format", "text")
    assert proc.returncode == 1
    assert "lhs=9782.185459 rhs=8791.132544" in proc.stdout
    assert proc.stdout.endswith("INEQUALITY VIOLATED\n")
    assert "GridTooCoarseWarning: grid spacing times sqrt(max|V|) is 2.24, above 1.0" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_main_reuses_its_parser_across_subcommands(run_cli):
    # one process, two subcommands on the one cached parser: the same output
    # and exit codes as two fresh interpreters
    runs = [("table", "--paper", "--format", "json"),
            ("bound", "--d", "3", "--sigma", "0.5", "--method", "momentum-optimal")]
    in_process = [run_cli(*argv) for argv in runs]
    assert cli._build_parser() is cli._build_parser()
    for argv, got in zip(runs, in_process):
        fresh = run_entry_point(*argv)
        assert (got.returncode, got.stdout) == (fresh.returncode, fresh.stdout), argv


def test_parser_defaults_are_the_library_constants():
    parser = cli._build_parser()
    bound = parser.parse_args(["bound", "--d", "1", "--sigma", "1", "--method", "best-of"])
    assert bound.max_iters == optimize.OptConfig.max_iters
    assert parser.parse_args(["verify"]).l_ratio == constants.UNIVERSAL_L_RATIO


def test_readme_cli_block_parses():
    # parse only: every example in the README's CLI block is accepted as written
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [argv for argv in (shlex.split(line, comments=True) for line in block.splitlines()) if argv]
    assert len(examples) >= 10 and all(argv[0] == "ltbounds" for argv in examples)
    parser = cli._build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


def test_readme_flags_are_cli_options():
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for sub in subparsers.choices.values() for opt in sub._option_string_actions}
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", prose)
    flags = {flag for span in spans for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", span)}
    assert {"--c-value", "--optimize", "--format"} <= flags
    assert flags <= options, sorted(flags - options)
