import dataclasses
import math

import numpy as np
import pytest

from ltbounds import constants, functionals, optimize, trial
from ltbounds.functionals import ProblemSpec

P11 = ProblemSpec(d=1, sigma=1.0)
P3HALF = ProblemSpec(d=3, sigma=0.5)


def test_opt_config_validation():
    with pytest.raises(ValueError):
        optimize.OptConfig(seed_params=())
    with pytest.raises(ValueError):
        optimize.OptConfig(seed_params=(1.0,), max_iters=0)
    for seed in ((math.inf, 0.25), (2.0, math.nan), (-math.inf,)):
        with pytest.raises(ValueError, match="seed_params must be finite"):
            optimize.OptConfig(seed_params=seed)
    for max_iters in (2.5, 5.0, "5", True, None):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            optimize.OptConfig(seed_params=(1.0,), max_iters=max_iters)
    assert optimize.OptConfig(seed_params=(1.0,), max_iters=np.int64(5)).max_iters == 5
    assert [f.name for f in dataclasses.fields(optimize.OptConfig)] == ["seed_params", "max_iters"]


def test_minimize_deficit_recovers_closed_form():
    res = optimize.minimize_deficit(1.5, optimize.OptConfig(seed_params=(2.0, 0.7)))
    assert res.converged
    want = constants.deficit_min(1.5).value
    np.testing.assert_allclose(res.best_value, want, rtol=1e-9)
    np.testing.assert_allclose(res.best_params[0], 1.5, rtol=1e-5)
    np.testing.assert_allclose(res.best_params[1], 1.0, rtol=1e-5)


def test_minimize_deficit_never_beats_closed_form():
    res = optimize.minimize_deficit(2.5, optimize.OptConfig(seed_params=(1.8, 1.2)))
    assert res.best_value >= constants.deficit_min(2.5).value - 1e-10


def test_determinism_bit_identical():
    cfg = optimize.OptConfig(seed_params=(4.5, 0.25, 0.36, 2.1), max_iters=40)
    r1 = optimize.minimize_averaging(P11, cfg, phi_kind="bump_rich")
    r2 = optimize.minimize_averaging(P11, cfg, phi_kind="bump_rich")
    assert r1.best_params == r2.best_params
    assert r1.best_value == r2.best_value
    assert r1.trace == r2.trace


def _double_well(a, p):
    # minima at a = 4 and 6, p = 1; d2/da2 < 0 for |a - 5| < 1/sqrt(3)
    return ((a - 5.0) ** 2 - 1.0) ** 2 + (p - 1.0) ** 2


def _double_well_search(monkeypatch):
    """Search _double_well from (5.2, 1.3) with an initial simplex of diameter
    5.2e-3, which the descent hands to the refinement at once; returns the
    result, the scored points and each round's (g, H, Newton step)."""
    points, rounds = [], []
    shifted = optimize._shifted_newton_step

    def scoring(a, p):
        points.append((a, p))
        return _double_well(a, p)

    def recording(grad, hess):
        rounds.append((grad, hess, shifted(grad, hess)))
        return rounds[-1][2]

    monkeypatch.setattr(optimize, "_SIMPLEX_SCALE", 1e-3)
    monkeypatch.setattr(optimize, "_shifted_newton_step", recording)
    res = optimize._nelder_mead(scoring, np.array([5.2, 1.3]), optimize.OptConfig(seed_params=(5.2, 1.3)))
    return res, points, rounds


def test_no_point_is_scored_twice(monkeypatch):
    # the refinement starts from the best vertex, whose value is already
    # known, and neither its stencils nor its halved Newton trials repeat a
    # point: checked on a 2-parameter deficit search, a 4-parameter
    # bump_poly search and the double well, whose first round halves its
    # step eight times
    points = []

    def counting(fam, beta):
        points.append((fam.a, fam.p))
        return weighted_deficit(fam, beta)

    weighted_deficit = optimize.weighted_deficit
    monkeypatch.setattr(optimize, "weighted_deficit", counting)
    res = optimize.minimize_deficit(1.5, optimize.OptConfig(seed_params=(2.0, 0.7)))
    assert res.converged
    assert len(points) == len(set(points))
    assert res.best_params in points

    pairs = []

    def counting_pair(fam, weight, problem):
        pairs.append((fam.a, fam.p, weight.q, weight.r))
        return averaging_objective(fam, weight, problem)

    averaging_objective = optimize.averaging_objective
    monkeypatch.setattr(optimize, "averaging_objective", counting_pair)
    res = optimize.minimize_averaging(P3HALF, optimize.OptConfig(seed_params=(8.0, 0.25, 2.0, 4.0)),
                                      phi_kind="bump_poly")
    assert res.converged
    assert len(pairs) == len(set(pairs))
    assert res.best_params in pairs

    res, points, rounds = _double_well_search(monkeypatch)
    start = np.array(min(points[:3], key=lambda x: _double_well(*x)))  # the best initial vertex
    trials = [optimize._clipped(start + 0.5 ** k * rounds[0][2]) for k in range(9)]
    assert points[8:17] == trials  # after 3 vertices and a 5-point stencil
    assert [a for a, _ in trials[:4]] == [20.0] * 4  # clipped at the box face, but not repeated
    assert _double_well(*trials[-1]) < _double_well(*start) <= min(_double_well(*x) for x in trials[:-1])
    assert res.converged
    assert len(points) == len(set(points))
    assert res.best_params in points


def test_trace_is_monotone_and_indexed():
    res = optimize.minimize_deficit(1.5, optimize.OptConfig(seed_params=(3.0, 0.4)))
    values = [v for _, v in res.trace]
    assert all(x >= y for x, y in zip(values, values[1:]))
    iters = [i for i, _ in res.trace]
    assert iters == sorted(iters)
    assert res.trace[-1][1] == res.best_value


def test_budget_exhaustion_flags_not_converged():
    cfg = optimize.OptConfig(seed_params=(2.0, 0.7), max_iters=3)
    res = optimize.minimize_deficit(1.5, cfg)
    assert not res.converged
    assert res.iterations == 3


def test_refinement_rescues_mckinnon_collapse(monkeypatch):
    # McKinnon (SIAM J. Optim. 9, 1998), tau = 2, theta = 6, phi = 60: from
    # this simplex Nelder-Mead contracts onto (0, 0), which is not stationary
    # (df/dy = 1 there); only the Newton refinement reaches the minimum (0, -1/2)
    def mckinnon(x, y):
        return (6.0 * 60.0 if x <= 0.0 else 6.0) * abs(x) ** 2 + y + y * y

    root = math.sqrt(33.0)
    collapsing = np.array([[1.0, 1.0], [(1.0 + root) / 8.0, (1.0 - root) / 8.0], [0.0, 0.0]])
    starts = []
    refine = optimize._refine

    def recording(objective, x, *args):
        starts.append(x.copy())
        return refine(objective, x, *args)

    monkeypatch.setattr(optimize, "_initial_simplex", lambda x0: collapsing.copy())
    monkeypatch.setattr(optimize, "_refine", recording)
    monkeypatch.setattr(optimize, "_BOX", ((-10.0, 10.0), (-10.0, 10.0)))
    res = optimize._nelder_mead(mckinnon, np.zeros(2), optimize.OptConfig(seed_params=(0.0, 0.0)))
    assert [x.tolist() for x in starts] == [[0.0, 0.0]]  # where the first descent stopped
    assert res.converged
    assert abs(res.best_value + 0.25) <= 1e-9
    np.testing.assert_allclose(res.best_params, (0.0, -0.5), atol=1e-4)


def test_refinement_shifts_an_indefinite_hessian(monkeypatch):
    # the double well hands (5.2052, 1.3) to the refinement, where
    # d2f/da2 = -3.5: H + lambda I still gives a descent step, and the
    # search converges to the minimum at a = 6
    res, _, rounds = _double_well_search(monkeypatch)
    grad, hess, step = rounds[0]
    assert np.linalg.eigvalsh(hess)[0] < 0.0
    assert grad @ step < 0.0
    assert res.converged
    assert res.best_value <= 1e-12
    np.testing.assert_allclose(res.best_params, (6.0, 1.0), atol=1e-6)


def test_indefinite_stencil_hessians_do_not_stall_the_search(monkeypatch):
    # from default_seed, 44 of the 52 refinement rounds of the (1, 2)
    # bump_poly search meet a stencil Hessian that is not positive definite.
    # Without the shift each such round moved one stencil step: 27,513
    # evaluations, not converged, 8.3e-4 above the optimum.  It takes 858;
    # the cap is 10 % above
    calls = []

    def counting(*args):
        calls.append(args)
        return averaging_objective(*args)

    averaging_objective = optimize.averaging_objective
    monkeypatch.setattr(optimize, "averaging_objective", counting)
    problem = ProblemSpec(d=1, sigma=2.0)
    res = optimize.minimize_averaging(problem, optimize.OptConfig(optimize.default_seed(problem, "bump_poly")),
                                      phi_kind="bump_poly")
    assert res.converged
    assert len(calls) <= 944, len(calls)
    np.testing.assert_allclose(res.best_value, 0.5710249852803247, rtol=1e-13)
    assert averaging_objective(*optimize.trial_pair("bump_poly", res.best_params), problem) == res.best_value


def test_evaluation_budget(monkeypatch):
    # the searches are deterministic.  Criterion 5 takes 167 evaluations and
    # 38 iterations, pinned exactly by
    # test_counters.py::test_criterion_5_search_counters; its cap of 184 and
    # the deficit search's cap of 18 iterations (it takes 16) are 10 % above
    # what the line-searched refinement, handed over at diameter 3e-2, takes.
    calls = []

    def counting(*args):
        calls.append(args)
        return averaging_objective(*args)

    averaging_objective = optimize.averaging_objective
    monkeypatch.setattr(optimize, "averaging_objective", counting)
    res = optimize.minimize_averaging(P11, optimize.OptConfig(seed_params=(5.2, 0.31, 0.42, 1.8)),
                                      phi_kind="bump_rich")
    assert res.converged
    assert len(calls) <= 184, len(calls)
    assert res.best_value <= 0.3740  # criterion 5
    assert averaging_objective(*optimize.trial_pair("bump_rich", res.best_params), P11) == res.best_value

    res = optimize.minimize_deficit(1.5, optimize.OptConfig(seed_params=(2.0, 0.8)))
    assert res.converged
    assert res.iterations <= 18, res.iterations


def test_minimize_averaging_rich_improves_on_seed_trial():
    cfg = optimize.OptConfig(seed_params=(4.5, 0.25, 0.36, 2.1), max_iters=80)
    res = optimize.minimize_averaging(P11, cfg, phi_kind="bump_rich")
    assert res.best_value <= 0.3737  # seed trial evaluates to 0.373555
    assert len(res.best_params) == 4


def test_minimize_averaging_fixed_weight_takes_two_params():
    cfg = optimize.OptConfig(seed_params=(2.0, 0.5), max_iters=60)
    res = optimize.minimize_averaging(P11, cfg, phi_kind="bump_simple")
    assert len(res.best_params) == 2
    assert res.best_value <= 0.379
    with pytest.raises(ValueError):
        optimize.minimize_averaging(P11, optimize.OptConfig(seed_params=(2.0, 0.5, 1.0, 1.0)),
                                    phi_kind="bump_simple")


def test_reported_params_are_the_scored_pair():
    # both searches push a past the box edge 20; the result must name the
    # clipped point that earned best_value, not the raw simplex vertex
    res = optimize.minimize_averaging(P11, optimize.OptConfig(seed_params=(19.5, 0.5), max_iters=60),
                                      phi_kind="bump_simple")
    assert res.best_params[0] == 20.0
    fam = trial.normalize_profile("rational_power", a=res.best_params[0], p=res.best_params[1])
    assert functionals.averaging_objective(fam, trial.normalize_weight("bump_simple"), P11) == res.best_value
    assert optimize.trial_pair("bump_simple", res.best_params) == (fam, trial.normalize_weight("bump_simple"))

    res = optimize.minimize_deficit(25.0, optimize.OptConfig(seed_params=(19.0, 1.0), max_iters=60))
    assert res.best_params[0] == 20.0
    fam = trial.normalize_profile("rational_power", a=res.best_params[0], p=res.best_params[1])
    assert functionals.weighted_deficit(fam, 25.0) == res.best_value


def test_refinement_holds_a_coordinate_at_a_box_face():
    # beta = 25 puts the exact minimizer a = 25 past the face a = 20; the
    # refinement's stencil would leave the box there, so a stays fixed at
    # the face and the full search still converges
    res = optimize.minimize_deficit(25.0, optimize.OptConfig(seed_params=(19.0, 1.0)))
    assert res.converged
    assert res.best_params[0] == 20.0
    fam = trial.normalize_profile("rational_power", a=res.best_params[0], p=res.best_params[1])
    assert functionals.weighted_deficit(fam, 25.0) == res.best_value


def test_objective_failure_on_infeasible_seed():
    # tau = 3 needs a > 1.5; the whole initial simplex is inadmissible
    cfg = optimize.OptConfig(seed_params=(1.2, 0.1, 2.0, 4.0))
    with pytest.raises(optimize.ObjectiveFailureError):
        optimize.minimize_averaging(P3HALF, cfg, phi_kind="bump_poly")


def test_admissible_start_above_a_finite_penalty():
    # at d = 78 every point of this start's simplex is admissible, with C from
    # 5.4e8 to 1.2e12: a finite penalty such as 1e6 would score them all as
    # rejected.  The search then runs into the box corner
    problem = ProblemSpec(d=78, sigma=1.0)
    cfg = optimize.OptConfig(seed_params=(19.9, 0.05, 3.0, 10.0))
    assert optimize.PENALTY == math.inf
    start = functionals.averaging_objective(*optimize.trial_pair("bump_poly", (19.9, 0.05, 3.0, 10.0)), problem)
    assert 1e12 < start < math.inf
    res = optimize.minimize_averaging(problem, cfg, phi_kind="bump_poly")
    assert res.converged
    assert res.best_params == (20.0, 3.0, 3.0, 0.5)
    np.testing.assert_allclose(res.best_value, 0.0134984861148883, rtol=1e-12)
    assert functionals.averaging_objective(*optimize.trial_pair("bump_poly", res.best_params), problem) \
        == res.best_value


def test_default_seeds():
    assert optimize.default_seed(P11, "bump_rich") == (4.5, 0.25, 0.36, 2.1)
    assert len(optimize.default_seed(P11, "bump_simple")) == 2
    seed = optimize.default_seed(P3HALF, "bump_poly")
    assert len(seed) == 4
    assert seed[0] > P3HALF.tau / 2.0  # admissible out of the box


def test_run_sweep_records_and_summaries():
    configs = [
        {"d": 1, "sigma": 1.0, "seed_params": [4.5, 0.25, 0.36, 2.1], "max_iters": 25},
        {"d": 1, "sigma": 1.0, "seed_params": [2.0, 0.5], "phi_kind": "bump_simple", "max_iters": 25},
        {"d": 3, "sigma": 0.5, "seed_params": [1.2, 0.1, 2.0, 4.0], "phi_kind": "bump_poly"},
    ]
    records = list(optimize.run_sweep(configs))
    runs = [r for r in records if not r.get("summary")]
    summaries = [r for r in records if r.get("summary")]
    assert [r["run"] for r in runs] == [0, 1, 2]
    assert "best_value" in runs[0] and runs[0]["phi_kind"] == "bump_rich"
    assert "error" in runs[2] and "ObjectiveFailureError" in runs[2]["error"]
    assert [(s["d"], s["sigma"]) for s in summaries] == [(1, 1.0), (3, 0.5)]
    assert summaries[0]["best_value"] == min(runs[0]["best_value"], runs[1]["best_value"])
    assert summaries[1]["best_value"] is None  # every run for that problem failed


def test_run_sweep_validates_upfront():
    with pytest.raises(ValueError):
        list(optimize.run_sweep([{"d": 1, "sigma": 1.0}]))  # missing seed_params
    with pytest.raises(ValueError):
        list(optimize.run_sweep([{"d": 1, "sigma": 1.0, "seed_params": [2.0, 0.5],
                                  "stepsize": 0.1}]))  # unknown field
    with pytest.raises(ValueError):
        optimize.run_sweep({"d": 1})  # not a list; raised by the call, before any record is asked for
    for bad in ({"seed_params": 5}, {"seed_params": [2.0, "0.5"]}, {"d": [1]}, {"d": True}, {"sigma": "1"}):
        run = {"d": 1, "sigma": 1.0, "seed_params": [2.0, 0.5], "phi_kind": "bump_simple", **bad}
        with pytest.raises(ValueError, match="run 1: d and sigma must be numbers"):
            list(optimize.run_sweep([{"d": 1, "sigma": 1.0, "seed_params": [2.0, 0.5]}, run]))


def test_run_sweep_bad_numbers_are_per_run_errors():
    configs = [{"d": 0, "sigma": 1.0, "seed_params": [2.0, 0.5], "phi_kind": "bump_simple"},
               {"d": 1, "sigma": 1.0, "seed_params": [], "phi_kind": "bump_simple"},
               *({"d": 1, "sigma": 1.0, "seed_params": [2.0, 0.5], "phi_kind": kind}
                 for kind in ("nope", ["bump_simple"], {"bump_simple": 1}))]
    runs = [r for r in optimize.run_sweep(configs) if not r.get("summary")]
    assert all(r["error"].startswith("ValueError: ") for r in runs), runs
    assert all(r["error"].startswith("ValueError: unknown phi_kind") for r in runs[2:]), runs


def test_run_sweep_bad_max_iters_or_seed_is_value_error_record():
    # each bad run is its own ValueError record; none of them is minimized
    base = {"d": 1, "sigma": 1.0, "seed_params": [2.0, 0.5], "phi_kind": "bump_simple"}
    configs = [{**base, "max_iters": 2.5}, {**base, "max_iters": "5"}, {**base, "max_iters": True},
               {**base, "seed_params": [math.inf, 0.5]}, {**base, "seed_params": [2.0, math.nan]}]
    runs = [r for r in optimize.run_sweep(configs) if not r.get("summary")]
    errors = [r.get("error", "") for r in runs]
    assert all(e.startswith("ValueError: max_iters must be an integer") for e in errors[:3]), errors
    assert all(e.startswith("ValueError: seed_params must be finite") for e in errors[3:]), errors
    assert not any("best_value" in r for r in runs)


def test_run_sweep_from_an_edge_start_penalizes_instead_of_failing():
    # tau = 2.15 and a = 1.12: t^(-beta) overflowed in the near half, and the
    # NonFiniteIntegrandError ended the run with an "error" record
    cfg = {"d": 4, "sigma": 0.93, "phi_kind": "bump_simple", "seed_params": [1.12, 2.0], "max_iters": 60}
    record, summary = optimize.run_sweep([cfg])
    assert "error" not in record, record
    assert record["converged"] and record["iterations"] < 60, record
    np.testing.assert_allclose(record["best_value"], 0.081731, rtol=1e-5)
    assert summary["best_value"] == record["best_value"]
