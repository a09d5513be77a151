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
        optimize.OptConfig(seed_params=(1.0,), x_tol=0.0)
    with pytest.raises(ValueError):
        optimize.OptConfig(seed_params=(1.0,), max_iters=0)


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


def test_objective_failure_on_infeasible_seed():
    # tau = 3 needs a > 1.5; the whole initial simplex is inadmissible
    cfg = optimize.OptConfig(seed_params=(1.2, 0.1, 2.0, 4.0))
    with pytest.raises(optimize.ObjectiveFailureError):
        optimize.minimize_averaging(P3HALF, cfg, phi_kind="bump_poly")


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
               {"d": 1, "sigma": 1.0, "seed_params": [], "phi_kind": "bump_simple"}]
    runs = [r for r in optimize.run_sweep(configs) if not r.get("summary")]
    assert all("ValueError" in r["error"] for r in runs)
