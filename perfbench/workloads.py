"""Seeded inputs, ops and correctness checks of the three benchmark workloads.

A workload's job is a sequence of passes.  Pass i of seed s is built from
``numpy.random.default_rng([s, i])`` alone, so the same seed gives the same
inputs and runs of different length share their first passes.  Each op is
timed on its own; a failed check, an exception or a warning marks the op
failed and the run goes on.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from ltbounds import cli, constants, functionals, optimize, trial, verify

L_RATIO = 1.456


@dataclass
class Op:
    seconds: float
    problem: str | None  # None when every check passed


def _timed(call, timer):
    """Run call() -> (value, seconds, problem); warnings and exceptions are problems."""
    timer.before_op()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            value, problem = call(), None
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            value, problem = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if problem is None and caught:
        problem = f"warning: {caught[0].message}"
    return value, seconds, problem


# ------------------------------------------------------------ optimize --

# The criterion-5 start, and the package's default starts for the other two
# runs; pass 0 of seed 0 uses them as they are.
OPT_RUNS = (
    {"d": 1, "sigma": 1.0, "phi_kind": "bump_rich", "seed_params": (5.2, 0.31, 0.42, 1.8)},
    {"d": 3, "sigma": 0.5, "phi_kind": "bump_poly", "seed_params": (8.0, 0.25, 2.0, 4.0)},
    {"d": 1, "sigma": 1.0, "phi_kind": "bump_simple", "seed_params": (1.5, 0.5)},
)
OPT_PERTURBATION = 0.02  # relative, uniform, per start coordinate
C_BEST_LIMIT = 0.3740  # criterion 5, at the exact criterion-5 start


def sweep_configs(seed: int, pass_index: int) -> list[dict]:
    """The three runs, their starts perturbed except in pass 0 of seed 0.

    Nelder-Mead's iteration count depends chaotically on the start, so
    fresh starts in every pass average that dependence out of the medians.
    """
    rng = np.random.default_rng([seed, pass_index])
    configs = []
    for run in OPT_RUNS:
        start = np.asarray(run["seed_params"])
        if (seed, pass_index) != (0, 0):
            start = start * (1.0 + OPT_PERTURBATION * rng.uniform(-1.0, 1.0, start.size))
        configs.append({**run, "seed_params": [float(v) for v in start]})
    return configs


def _objective_at(cfg) -> float:
    params = cfg["seed_params"]
    fam = trial.normalize_profile("rational_power", a=params[0], p=params[1])
    if len(params) == 4:
        weight = trial.normalize_weight(cfg["phi_kind"], q=params[2], r=params[3])
    else:
        weight = trial.normalize_weight(cfg["phi_kind"])
    return functionals.averaging_objective(fam, weight, functionals.ProblemSpec(cfg["d"], cfg["sigma"]))


class OptimizeWorkload:
    """One closed loop of run_sweep over three runs; one op is one run record."""

    name = "optimize"
    calibration = ("graded_rule",)  # hostspeed parts that do this workload's kind of work

    def __init__(self, seed: int):
        self.seed = seed
        self.c_best: float | None = None  # criterion-5 run of pass 0
        self._start_values: dict[int, list[float]] = {}

    def inputs(self, pass_index: int):
        return sweep_configs(self.seed, pass_index)

    def _starts(self, pass_index: int) -> list[float]:
        # objective at each start, for the checks; a traced pass 0 finds them
        # computed already, so they never enter the trace
        if pass_index not in self._start_values:
            self._start_values[pass_index] = [_objective_at(cfg) for cfg in self.inputs(pass_index)]
        return self._start_values[pass_index]

    def warm_up(self) -> None:
        self._starts(0)
        # every run cut to one Nelder-Mead iteration: all code paths, little time
        list(optimize.run_sweep([{**cfg, "max_iters": 1} for cfg in self.inputs(0)]))

    def run_pass(self, pass_index: int, timer) -> list[Op]:
        configs = self.inputs(pass_index)
        start_values = self._starts(pass_index)
        records = optimize.run_sweep(configs)
        ops = []
        for _ in configs:
            record, seconds, problem = _timed(lambda: next(records), timer)
            ops.append(Op(seconds, problem or self._check(record, start_values, pass_index)))
            if record is None:
                return ops  # the generator raised; it cannot continue
        list(records)  # the per-problem summaries, built from the records
        return ops

    def _check(self, record, start_values, pass_index: int) -> str | None:
        run = record["run"]
        if "error" in record:
            return f"run {run}: {record['error']}"
        if not record["converged"]:
            return f"run {run}: not converged"
        if not record["best_value"] <= start_values[run]:
            return f"run {run}: best {record['best_value']!r} above start {start_values[run]!r}"
        if run == 0 and pass_index == 0:
            self.c_best = record["best_value"]
            # criterion 5 holds for the exact start, which only seed 0 uses
            if self.seed == 0 and not self.c_best <= C_BEST_LIMIT:
                return f"c_best {self.c_best!r} above {C_BEST_LIMIT}"
        return None


# ------------------------------------------------------------- certify --

CERTIFY_PROBLEMS = ((1, 1.0), (2, 1.0), (3, 0.5), (3, 1.0))
PROFILE_KINDS = ("rational_power", "deficit_optimal", "indicator")
WEIGHT_KINDS = ("bump_simple", "bump_rich", "bump_poly", "uniform")
LOWER_BOUND_11 = 1.0 / 3.0  # criterion 6, at (d, sigma) = (1, 1)


def certify_pairs(seed: int, pass_index: int) -> list[dict]:
    """One pair per (problem, profile kind, weight kind), drawn with the
    admissibility margins of acceptance criterion 6."""
    rng = np.random.default_rng([seed, pass_index])
    pairs = []
    for d, sigma in CERTIFY_PROBLEMS:
        tau = d / (2.0 * sigma)
        for profile in PROFILE_KINDS:
            for weight in WEIGHT_KINDS:
                pair = {"d": d, "sigma": sigma, "profile": profile, "weight": weight}
                if profile == "rational_power":
                    a = rng.uniform(tau / 2.0 + 0.1, 8.0)
                    pair.update(a=a, p=rng.uniform(max(0.55 / a, 0.05), 3.0))
                elif profile == "deficit_optimal":
                    pair["a"] = rng.uniform(max(1.05, tau / 2.0 + 0.1), 6.0)
                if weight in ("bump_rich", "bump_poly"):
                    pair.update(q=rng.uniform(0.1, 2.5), r=rng.uniform(0.6, 6.0))
                pairs.append(pair)
    return pairs


def _score(pair):
    problem = functionals.ProblemSpec(pair["d"], pair["sigma"])
    fam = trial.normalize_profile(pair["profile"], a=pair.get("a"), p=pair.get("p"))
    weight = trial.normalize_weight(pair["weight"], q=pair.get("q"), r=pair.get("r"))
    c = functionals.averaging_objective(fam, weight, problem)
    return c, constants.bound_from_c(problem, c, (fam, weight))


def _table():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["table", "--paper"])
    return code, out.getvalue()


class CertifyWorkload:
    """A table --paper pass, then 48 independent pairs scored and converted;
    one op is the table pass or one scored pair."""

    name = "certify"
    calibration = ("interpreter", "small_calls", "graded_rule")

    def __init__(self, seed: int):
        self.seed = seed
        self.table_text: str | None = None

    def inputs(self, pass_index: int):
        return certify_pairs(self.seed, pass_index)

    def warm_up(self) -> None:
        self.table_text = _table()[1]

    def run_pass(self, pass_index: int, timer) -> list[Op]:
        result, seconds, problem = _timed(_table, timer)
        ops = [Op(seconds, problem or self._check_table(*result))]
        for pair in self.inputs(pass_index):
            result, seconds, problem = _timed(lambda: _score(pair), timer)
            ops.append(Op(seconds, problem or self._check_pair(pair, *result)))
        return ops

    def _check_table(self, code: int, text: str) -> str | None:
        if code != 0:
            return f"table --paper exited {code}"
        failing = [row["quantity"] for row in json.loads(text) if row["status"] not in ("pass", "info")]
        if failing:
            return f"table rows failing: {failing}"
        if text != self.table_text:
            return "table --paper output changed between passes"
        return None

    @staticmethod
    def _check_pair(pair, c, report) -> str | None:
        if not (math.isfinite(c) and c > 0.0):
            return f"C = {c!r} for {pair}"
        if (pair["d"], pair["sigma"]) == (1, 1.0) and c < LOWER_BOUND_11 - 1e-6:
            return f"C = {c!r} below 1/3 for {pair}"
        if not (isinstance(report, constants.BoundReport) and report.c_value == c):
            return f"bound_from_c gave {report!r}"
        return None


# -------------------------------------------------------------- verify --

# (family, bound states, grid nodes): each family meets each grid size once,
# so a pass costs about the same for every seed.
VERIFY_STRATA = (
    ("poschl_teller", 1, 4000), ("poschl_teller", 4, 8000), ("poschl_teller", 8, 16000),
    ("gaussian_well", 2, 16000), ("gaussian_well", 5, 4000), ("gaussian_well", 8, 8000),
    ("square_well", 1, 8000), ("square_well", 4, 16000), ("square_well", 7, 4000),
)
EDGE_LIMIT = 1e-12  # verify warns above this |V| at the box edge
EIGEN_TOL = 1e-3  # the test suite's tolerance on Poschl-Teller eigenvalues


def verify_cases(seed: int, pass_index: int) -> list[dict]:
    """The default suite, then one seeded well per stratum."""
    cases = [{"potential": pot.to_json(), "grid": grid.to_json()} for pot, grid in verify.default_suite()]
    rng = np.random.default_rng([seed, pass_index])
    for kind, states, nodes in VERIFY_STRATA:
        n_points = int(round(nodes * rng.uniform(0.95, 1.05)))
        if kind == "poschl_teller":
            width = rng.uniform(1.0, 1.6)
            potential = {"kind": kind, "nu": float(states), "width": width}
            depth = states * (states + 1.0) / width**2
            # |V(L)| ~ 4 depth exp(-2L/width)
            half_width = 1.1 * 0.5 * width * math.log(4.0 * depth / EDGE_LIMIT)
        elif kind == "gaussian_well":
            width = rng.uniform(1.0, 2.0)
            # WKB: states ~ sqrt(depth) width sqrt(2/pi) + 1/2
            depth = ((states - 0.5 + rng.uniform(-0.2, 0.2)) / (width * math.sqrt(2.0 / math.pi)))**2
            potential = {"kind": kind, "depth": depth, "width": width}
            half_width = 1.1 * width * math.sqrt(math.log(depth / EDGE_LIMIT)) + 10.0
        else:
            width = rng.uniform(1.0, 3.0)
            # exactly ceil(width sqrt(depth) / pi) bound states
            depth = (math.pi * (states - 0.5 + rng.uniform(-0.25, 0.25)) / width)**2
            potential = {"kind": kind, "depth": depth, "width": width}
            half_width = 0.5 * width + 10.0
        cases.append({"potential": potential, "grid": {"half_width": half_width, "n_points": n_points}})
    return cases


def _potential_integral_exact(pot: verify.PotentialSpec) -> float:
    """int |V|^(3/2) dx in closed form, as in the test suite."""
    if pot.kind == "poschl_teller":
        return (pot.nu * (pot.nu + 1.0))**1.5 * math.pi / (2.0 * pot.width**2)
    if pot.kind == "gaussian_well":
        return pot.depth**1.5 * pot.width * math.sqrt(math.pi / 1.5)
    return pot.depth**1.5 * pot.width


def _solve(pot, grid):
    result = verify.discretize_and_solve(pot, grid)
    return result, verify.check_inequality(result, L_RATIO)


class VerifyWorkload:
    """Spectral check of the default suite and nine seeded wells; one op is one case."""

    name = "verify"
    calibration = ("interpreter",)

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, pass_index: int):
        return verify_cases(self.seed, pass_index)

    def warm_up(self) -> None:
        pot, grid = verify.default_suite()[0]
        _solve(pot, grid)

    def run_pass(self, pass_index: int, timer) -> list[Op]:
        ops = []
        for case in self.inputs(pass_index):
            pot = verify.potential_from_json(case["potential"])
            grid = verify.grid_from_json(case["grid"])
            result, seconds, problem = _timed(lambda: _solve(pot, grid), timer)
            ops.append(Op(seconds, problem or self._check(pot, *result)))
        return ops

    @staticmethod
    def _check(pot, result, check) -> str | None:
        label = json.dumps(pot.to_json())
        if not check.holds:
            return f"inequality fails at l_ratio {L_RATIO} for {label}"
        exact = _potential_integral_exact(pot)
        if abs(result.potential_integral - exact) > 1e-10 * exact:
            return f"potential integral {result.potential_integral!r} != {exact!r} for {label}"
        if pot.kind == "poschl_teller":  # every one here has integer nu
            nu = int(pot.nu)
            want = [-((nu - k) / pot.width)**2 for k in range(nu)]
            got = sorted(result.negative_eigenvalues)
            if len(got) != nu or max(abs(g - w) for g, w in zip(got, want)) > EIGEN_TOL:
                return f"eigenvalues {got} != {want} for {label}"
            if nu == 2 and verify.check_inequality(result, 1.0).holds:
                return "the nu = 2 well must fail at l_ratio 1.0"
        return None


WORKLOADS = {cls.name: cls for cls in (OptimizeWorkload, CertifyWorkload, VerifyWorkload)}


def inputs_digest(workload, passes: int = 2) -> str:
    """sha256 of the inputs of the first passes."""
    inputs = [workload.inputs(i) for i in range(passes)]
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()
