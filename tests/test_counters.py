"""The deterministic counters of the two benchmark stacks, pinned exactly.

A change that moves one of them shows it here as a test diff: objective
evaluations, iterations, integrand calls and nodes and kernel elements of the
criterion-5 search, evaluations, iterations and Mellin nodes of the sweep's
two closed-form runs, and the Sturm passes and row steps of the default
verify suite and of one benchmark-sized well.  Wrappers patched in for each
test do the counting.
"""

from collections import Counter

import pytest

from ltbounds import functionals, optimize, quad, verify
from ltbounds.functionals import ProblemSpec


def test_criterion_5_search_counters(monkeypatch):
    counts = Counter()
    objective, integrate, kernel = optimize.averaging_objective, quad.integrate, functionals.one_minus_rational

    def counting_objective(*args):
        counts["evaluations"] += 1
        return objective(*args)

    def counting_integrate(func):
        def counted(v):
            counts["integrand calls"] += 1
            counts["integrand nodes"] += v.size
            return func(v)
        return integrate(counted)

    def counting_kernel(p, x, out=None):
        counts["kernel elements"] += x.size
        return kernel(p, x, out=out)

    monkeypatch.setattr(optimize, "averaging_objective", counting_objective)
    monkeypatch.setattr(quad, "integrate", counting_integrate)
    monkeypatch.setattr(functionals, "one_minus_rational", counting_kernel)
    res = optimize.minimize_averaging(ProblemSpec(1, 1.0), optimize.OptConfig(seed_params=(5.2, 0.31, 0.42, 1.8)),
                                      phi_kind="bump_rich")
    counts["iterations"] = res.iterations
    assert dict(counts) == {"evaluations": 167, "iterations": 38, "integrand calls": 174,
                            "integrand nodes": 10_230, "kernel elements": 3_814_624}


@pytest.mark.parametrize("d, sigma, phi_kind, seed_params, want", [
    (3, 0.5, "bump_poly", (8.0, 0.25, 2.0, 4.0), {"evaluations": 159, "iterations": 62, "Mellin nodes": 18_193}),
    (1, 1.0, "bump_simple", (1.5, 0.5), {"evaluations": 69, "iterations": 27, "Mellin nodes": 5_037}),
], ids=["bump_poly", "bump_simple"])
def test_closed_form_sweep_counters(monkeypatch, d, sigma, phi_kind, seed_params, want):
    # the benchmark sweep's exact (3, 1/2) and (1, 1) starts score on the
    # Mellin line alone: two log-Gammas a node, no adaptive integral
    counts = Counter()
    objective, log_abs_gamma, integrate = optimize.averaging_objective, functionals.log_abs_gamma, quad.integrate

    def counting_objective(*args):
        counts["evaluations"] += 1
        return objective(*args)

    def counting_log_abs_gamma(z):
        counts["Mellin nodes"] += z.size // 2
        return log_abs_gamma(z)

    def counting_integrate(func):
        counts["integrate calls"] += 1
        return integrate(func)

    monkeypatch.setattr(optimize, "averaging_objective", counting_objective)
    monkeypatch.setattr(functionals, "log_abs_gamma", counting_log_abs_gamma)
    monkeypatch.setattr(quad, "integrate", counting_integrate)
    res = optimize.minimize_averaging(ProblemSpec(d, sigma), optimize.OptConfig(seed_params=seed_params),
                                      phi_kind=phi_kind)
    counts["iterations"] = res.iterations
    assert dict(counts) == want  # and no "integrate calls"


def test_default_suite_counters():
    results = [verify.discretize_and_solve(pot, grid) for pot, grid in verify.default_suite()]
    assert [res.sturm_passes for res in results] == [5, 8, 14, 12]
    assert [res.row_steps for res in results] == [18_587, 31_518, 31_177, 3_190]


def test_benchmark_sized_well_counters():
    # a Poschl-Teller well of eight bound states on 16,061 nodes, as the benchmark's
    # verify wells come: three coarse levels supply its starts
    res = verify.discretize_and_solve(verify.PotentialSpec("poschl_teller", nu=8.0, width=1.31),
                                      verify.GridSpec(23.6, 16061))
    assert (res.sturm_passes, res.row_steps) == (31, 297_089)
