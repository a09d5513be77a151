"""The deterministic counters of the two benchmark stacks, pinned exactly.

A change that moves one of them shows it here as a test diff: objective
evaluations, iterations, integrand calls and nodes and kernel elements of the
criterion-5 search, and the Sturm passes and row steps of the default verify
suite.  Wrappers patched in for each test do the counting.
"""

from collections import Counter

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
    assert dict(counts) == {"evaluations": 418, "iterations": 241, "integrand calls": 425,
                            "integrand nodes": 25_290, "kernel elements": 9_383_456}


def test_default_suite_counters():
    results = [verify.discretize_and_solve(pot, grid) for pot, grid in verify.default_suite()]
    assert [res.sturm_passes for res in results] == [6, 10, 18, 12]
    assert [res.row_steps for res in results] == [23_417, 43_060, 40_619, 3_442]
