"""End-to-end acceptance checks.

One test per published criterion, each printing a single PASS/FAIL line
and enforcing its runtime budget.  Tolerances are stated inline next to
the frozen expected values.
"""

import math
import subprocess
import sys
import time

import numpy as np

from ltbounds import constants, functionals, optimize, trial, verify
from ltbounds.functionals import ProblemSpec

_T0 = time.perf_counter()

P11 = ProblemSpec(d=1, sigma=1.0)
P3HALF = ProblemSpec(d=3, sigma=0.5)


class _report:
    def __init__(self, criterion: int, desc: str):
        self.criterion, self.desc = criterion, desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.criterion:>2}] {status}: {self.desc}")
        return False


def test_criterion_01_closed_form_constants():
    with _report(1, "semiclassical and deficit constants, closed form, < 1 ms"):
        constants.deficit_min(1.5)  # warm up
        start = time.perf_counter()
        l1 = constants.l_cl(P11)
        k3 = constants.k_cl(P3HALF)
        dm = constants.deficit_min(1.5)
        dm2 = constants.deficit_min(2.0)
        elapsed = time.perf_counter() - start
        np.testing.assert_allclose(l1, 2.0 / (3.0 * math.pi), rtol=1e-13)
        np.testing.assert_allclose(k3, 0.75 * (6.0 * math.pi**2) ** (1.0 / 3.0), rtol=1e-13)
        np.testing.assert_allclose(dm.value, 1.4475717080940278, rtol=1e-13)
        np.testing.assert_allclose(dm.mu_star, 0.7237858540470139, rtol=1e-13)
        np.testing.assert_allclose(dm2.value, math.pi**2 / 16.0, rtol=1e-13)
        assert elapsed < 1e-3, f"took {elapsed:.6f} s, budget 1 ms"


def test_criterion_02_deficit_functional_matches_minimum():
    with _report(2, "quadrature of the deficit functional hits tau * min J_beta to 1e-8, < 1 s"):
        start = time.perf_counter()
        for beta in (1.5, 2.0, 4.0):
            fam = trial.normalize_profile("deficit_optimal", a=beta)
            problem = ProblemSpec(d=1, sigma=1.0 / (2.0 * (beta - 1.0)))
            value = functionals.deficit_functional(fam, problem)
            want = problem.tau * constants.deficit_min(beta).value
            assert abs(value - want) <= 1e-8, f"beta={beta}: {value} vs {want}"
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f} s, budget 1 s"


def test_criterion_03_one_dimensional_averaging_trials():
    with _report(3, "d=1 averaging trials reproduce 0.381378 / 0.373556 and convert, < 10 s"):
        start = time.perf_counter()
        simple = functionals.averaging_objective(
            trial.normalize_profile("deficit_optimal", a=1.5),
            trial.normalize_weight("bump_simple"), P11)
        assert abs(simple - 0.381378) <= 1e-5, simple
        rich = functionals.averaging_objective(
            trial.normalize_profile("rational_power", a=4.5, p=0.25),
            trial.normalize_weight("bump_rich", q=0.36, r=2.1), P11)
        assert abs(rich - 0.373556) <= 1e-5, rich
        report = constants.bound_from_c(P11, rich)
        assert abs(report.k_ratio - 0.471851) <= 1e-5, report.k_ratio
        assert abs(report.l_ratio - 1.455786) <= 1e-5, report.l_ratio
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.3f} s, budget 10 s"


def test_criterion_04_fractional_problem_bound():
    with _report(4, "(d, sigma) = (3, 1/2) trial beats 0.046737 and converts to k = 0.826297, < 10 s"):
        start = time.perf_counter()
        value = functionals.averaging_objective(
            trial.normalize_profile("rational_power", a=10.0, p=0.25),
            trial.normalize_weight("bump_poly", q=2.0, r=4.0), P3HALF)
        assert value <= 0.046737 + 2e-6, value
        report = constants.bound_from_c(P3HALF, value)
        assert abs(report.k_ratio - 0.826297) <= 1e-4, report.k_ratio
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.3f} s, budget 10 s"


def test_criterion_05_optimizer_recovery_and_improvement():
    with _report(5, "optimizer recovers the closed-form minimizer and improves a perturbed seed, < 2 min"):
        start = time.perf_counter()
        res = optimize.minimize_deficit(1.5, optimize.OptConfig(seed_params=(2.0, 0.7)))
        assert res.converged
        assert abs(res.best_params[0] - 1.5) / 1.5 <= 1e-6, res.best_params
        assert abs(res.best_params[1] - 1.0) <= 1e-6, res.best_params
        assert abs(res.best_value - constants.deficit_min(1.5).value) <= 1e-9

        perturbed = optimize.OptConfig(seed_params=(5.2, 0.31, 0.42, 1.8))
        avg = optimize.minimize_averaging(P11, perturbed, phi_kind="bump_rich")
        assert avg.best_value <= 0.3740, avg.best_value
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f} s, budget 2 min"


def test_criterion_06_random_admissible_pairs_respect_lower_bound():
    with _report(6, "100 random admissible trial pairs stay above the 1/3 lower bound, < 2 min"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260814)
        tau = P11.tau
        worst = math.inf
        for _ in range(100):
            kind = rng.choice(["rational_power", "rational_power", "deficit_optimal", "indicator"])
            if kind == "rational_power":
                a = rng.uniform(tau / 2.0 + 0.1, 8.0)
                p = rng.uniform(max(0.55 / a, 0.05), 3.0)
                fam = trial.normalize_profile("rational_power", a=a, p=p)
            elif kind == "deficit_optimal":
                fam = trial.normalize_profile("deficit_optimal", a=rng.uniform(1.05, 6.0))
            else:
                fam = trial.normalize_profile("indicator")
            wkind = rng.choice(["bump_simple", "bump_rich", "bump_poly", "uniform"])
            if wkind in ("bump_rich", "bump_poly"):
                weight = trial.normalize_weight(wkind, q=rng.uniform(0.1, 2.5),
                                                r=rng.uniform(0.6, 6.0))
            else:
                weight = trial.normalize_weight(wkind)
            value = functionals.averaging_objective(fam, weight, P11)
            worst = min(worst, value)
            assert value >= 1.0 / 3.0 - 1e-6, (value, fam, weight)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f} s, budget 2 min (worst value {worst:.6f})"


def test_criterion_07_duality_and_product_identity():
    with _report(7, "k/l duality round-trips to 1e-13 and the product identity holds to 1e-12, < 1 ms"):
        constants.product_identity_check(1, 2)  # warm up
        start = time.perf_counter()
        for d, sigma in ((1, 2.0), (1, 3.0), (2, 5.0), (1, 6.0)):
            problem = ProblemSpec(d=d, sigma=sigma)
            for k in (0.25, 0.71, 0.93):
                l = constants.BoundReport(problem, "x", math.log(k)).l_ratio
                assert abs(l ** (-1.0 / problem.tau) - k) <= 1e-13 * k
        for d1, d in ((1, 2), (1, 3), (2, 5), (1, 6)):
            assert constants.product_identity_check(d1, d) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 1e-3, f"took {elapsed:.6f} s, budget 1 ms"


def test_criterion_08_large_dimension_envelope():
    with _report(8, "d = 1000 eigenvalue-sum ratio lands in [e - 0.01, e] below the baseline, < 1 ms"):
        prob = ProblemSpec(d=1000, sigma=1.0)
        constants.bound_momentum_optimal(prob)  # warm up
        start = time.perf_counter()
        report = constants.bound_momentum_optimal(prob)
        baseline = constants.bound_rumin_original(prob)
        elapsed = time.perf_counter() - start
        assert math.e - 0.01 <= report.l_ratio <= math.e, report.l_ratio
        assert report.l_ratio <= baseline.l_ratio
        assert elapsed < 1e-3, f"took {elapsed:.6f} s, budget 1 ms"


def test_criterion_09_spectral_harness():
    with _report(9, "discrete spectra match Poschl-Teller sums and the 1.456 inequality holds, < 30 s"):
        start = time.perf_counter()
        grid = verify.GridSpec(half_width=20.0, n_points=8001)
        for nu, want in ((1.0, 1.0), (2.0, 5.0)):
            pot = verify.PotentialSpec(kind="poschl_teller", nu=nu)
            res = verify.discretize_and_solve(pot, grid)
            assert abs(res.sum_negative - want) <= 1e-3, (nu, res.sum_negative)

        failed_at_semiclassical = False
        for pot, g in verify.default_suite():
            res = verify.discretize_and_solve(pot, g)
            chk = verify.check_inequality(res, 1.456)
            assert chk.holds and chk.margin > 0.0, (pot, chk)
            low = verify.check_inequality(res, 1.0)
            if pot.kind == "poschl_teller" and pot.nu == 2.0:
                failed_at_semiclassical = not low.holds
        assert failed_at_semiclassical, "nu = 2 must violate the bound at l_ratio = 1"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f} s, budget 30 s"


def test_criterion_10_cli_table_and_suite_budget():
    with _report(10, "ltbounds table --paper exits 0 and the acceptance module fits in 5 min"):
        proc = subprocess.run([sys.executable, "-m", "ltbounds", "table", "--paper"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        elapsed = time.perf_counter() - _T0
        assert elapsed < 300.0, f"acceptance module took {elapsed:.1f} s, budget 5 min"
