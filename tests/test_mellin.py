"""The Mellin line that scores closed-form weights, against an independent
oracle: scipy's complex loggamma on a fixed fine grid, with no pole taken
out, and the nested path at a tight tolerance."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp

from ltbounds import functionals, optimize, quad, trial

P11 = functionals.ProblemSpec(d=1, sigma=1.0)
P3HALF = functionals.ProblemSpec(d=3, sigma=0.5)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def _oracle_log_phi(weight, w):
    """log Phi(w) for a complex ndarray w; bump_poly's log Gamma(u) - log
    Gamma(u + b) is -int_0^b psi(u + t) dt by Gauss-Legendre where |u| >= 20
    and |u| >= 4b, since there the two loggammas would cancel."""
    if weight.kind == "uniform":
        return -np.log(w)
    if weight.kind == "bump_simple":
        return math.log(1.25) - np.log(w) - np.log(w + 0.25)
    q, b = weight.q, weight.r + 1.0
    u = w / q
    direct = sp.loggamma(u) - sp.loggamma(u + b)
    by_psi = -(sp.psi(u[:, None] + 0.5 * b * (_GL_X + 1.0)) @ (0.5 * b * _GL_W))
    return math.log(weight.c / q) + sp.gammaln(b) + np.where(np.abs(u) < max(20.0, 4.0 * b), direct, by_psi)


def _oracle(fam, weight, tau):
    """(log C, log J, tau log int phi^2).

    J = (1/pi) int_0^inf |F(z) Phi(1 - z)|^2 dy on z = -tau/2 + iy, by
    20-point Gauss-Legendre panels whose width is half the distance to the
    nearest pole, min(tau/2, a - tau/2, 1), or half of y, out to y = 12a + 2
    tau + 10.  Gamma(z/a) is Gamma(2 + z/a) / ((z/a) (1 + z/a)) with 1 + z/a
    = (a - tau/2 + iy)/a, so no argument is rounded next to a pole.  int
    phi^2 is taken with the weight's own c at 40 digits."""
    a, p, mu = fam.a, fam.p, fam.mu
    alpha, beta = 0.5 * tau, a - 0.5 * tau
    edges = [0.0]
    while edges[-1] < 12.0 * a + 4.0 * alpha + 10.0:
        edges.append(edges[-1] + 0.5 * max(min(alpha, beta, 1.0), edges[-1]))
    lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    y = (0.5 * (lo + hi) + 0.5 * (hi - lo) * _GL_X).ravel()
    dy = (0.5 * (hi - lo) * _GL_W).ravel()
    z = -alpha + 1j * y
    log_f = (-(z / a) * math.log(mu) + sp.loggamma((a + beta + 1j * y) / a) - np.log(z / a)
             - np.log((beta + 1j * y) / a) + sp.loggamma(p - z / a) - math.log(a) - sp.gammaln(p))
    log_g = 2.0 * (log_f + _oracle_log_phi(weight, 1.0 - z)).real
    top = log_g.max()
    log_j = top + math.log(np.exp(log_g - top) @ dy / math.pi)
    with mpmath.workdps(40):
        if weight.kind == "uniform":
            l2 = mpmath.mpf(1)
        elif weight.kind == "bump_simple":
            l2 = mpmath.mpf(5) / 3
        else:
            qm, rm = mpmath.mpf(weight.q), mpmath.mpf(weight.r)
            l2 = mpmath.mpf(weight.c) ** 2 * mpmath.beta(1 / qm, 2 * rm + 1) / qm
        lead = float(tau * mpmath.log(l2))
    return lead + math.log(tau) + log_j, log_j, lead


def _scored(fam, weight, problem):
    """(C, Mellin nodes) from averaging_objective; the nodes are counted
    where the line's log-Gammas are taken, two per node."""
    nodes = []
    log_abs_gamma = functionals.log_abs_gamma

    def counting(z):
        nodes.append(z.size // 2)
        return log_abs_gamma(z)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(functionals, "log_abs_gamma", counting)
        c = functionals.averaging_objective(fam, weight, problem)
    return c, sum(nodes)


def _check_against_oracle(fam, weight, tau, rtol=1e-13):
    """C within rtol of the oracle, plus what double precision can hold of
    log C = tau log int phi^2 + log tau + log J: int phi^2 is a closed form
    rounded to a few ulp, which C takes to the power tau, and the sum for J
    runs in logs of J's own size.  So the bound adds 2^-50 (four ulp of 1)
    times tau + |log J|; at tau = 200 a flat 1e-13 would ask int phi^2 for
    half an ulp."""
    problem = functionals.ProblemSpec(1, 0.5 / tau)
    want, log_j, _ = _oracle(fam, weight, problem.tau)
    tol = rtol + 2.0**-50 * (problem.tau + abs(log_j))
    if want > 709.0:
        with pytest.raises(functionals.DivergentError, match="overflows"):
            _scored(fam, weight, problem)
        return
    c, nodes = _scored(fam, weight, problem)
    assert 0 < nodes <= 4000, nodes
    assert abs(math.log(c) - want) <= tol, (math.log(c) - want, tol)


def _pair(profile, tau, margin, p_frac, kind, q, r):
    a = 0.5 * tau + margin
    p = max(0.05, 0.55 / a) + p_frac * (3.0 - max(0.05, 0.55 / a))
    fam = (trial.normalize_profile("deficit_optimal", a=a) if profile == "deficit_optimal" and a > 1.0
           else trial.normalize_profile("rational_power", a=a, p=p))
    weight = trial.normalize_weight(kind, q=q, r=r) if kind == "bump_poly" else trial.normalize_weight(kind)
    return fam, weight


@settings(max_examples=400, derandomize=True, deadline=None)
@given(tau=st.floats(0.25, 200.0), margin=st.floats(0.05, 20.0), p_frac=st.floats(0.0, 1.0),
       profile=st.sampled_from(["rational_power", "deficit_optimal"]),
       kind=st.sampled_from(["bump_poly", "bump_simple", "uniform"]),
       q=st.floats(0.05, 3.0), r=st.floats(0.5, 10.0))
@example(tau=40.0, margin=0.05, p_frac=(2.9 - 0.05) / 2.95, profile="rational_power", kind="uniform", q=1.0, r=1.0)
def test_mellin_line_against_oracle(tau, margin, p_frac, profile, kind, q, r):
    # the example is the edge pair tau = 40, margin 0.05, p = 2.9, where the
    # nested path is 2.6e-6 off
    _check_against_oracle(*_pair(profile, tau, margin, p_frac, kind, q, r), tau)


@pytest.mark.parametrize("tau", [0.5, 3.0, 40.0])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_mellin_line_through_the_merge_of_its_pole_pairs(tau, sign):
    # at a = tau the pairs +-i tau/2 and +-i (a - tau/2) merge; each pole's
    # correction grows like 1/(a - tau), their sum does not
    weights = [trial.normalize_weight("uniform"), trial.normalize_weight("bump_simple"),
               trial.normalize_weight("bump_poly", q=0.7, r=2.5)]
    for k in range(2, 13):
        a = tau * (1.0 + sign * 10.0**-k)
        fam = trial.normalize_profile("rational_power", a=a, p=1.3)
        _check_against_oracle(fam, weights[k % 3], tau)
        if a > 1.0:
            _check_against_oracle(trial.normalize_profile("deficit_optimal", a=a), weights[(k + 1) % 3], tau)
    _check_against_oracle(trial.normalize_profile("rational_power", a=tau, p=1.3), weights[2], tau)


# closed-form pairs the tests of the nested path used before the Mellin line
# took them over.  At r = 1000 and 1e6 log Phi is a difference of log-Gammas
# near 6e3 and 1.4e7 on both sides, whose ulps set the tolerance: against
# 40-digit mpmath the line's log J is 2.2e-12 and 6.1e-11 off there, the
# oracle's 7.9e-13 and 5.9e-10.
RETARGETED_PAIRS = [
    (("rational_power", 1.7168570511160532, 2.8261171683006974), ("bump_poly", 0.9351581250207206, 2.444853372167623),
     P3HALF, 1e-13),
    (("rational_power", 4.5, 0.25), ("uniform", None, None), P11, 1e-13),
    (("rational_power", 4.5, 0.25), ("bump_poly", 0.05, 1000.0), P11, 1e-11),
    (("rational_power", 4.5, 0.25), ("bump_poly", 0.05, 1e6), P11, 1e-9),
]


@pytest.mark.parametrize("profile, weight, problem, rtol", RETARGETED_PAIRS)
def test_closed_form_pairs_against_oracle(profile, weight, problem, rtol):
    fam = trial.normalize_profile(profile[0], a=profile[1], p=profile[2])
    w = trial.normalize_weight(*weight)
    _check_against_oracle(fam, w, problem.tau, rtol)
    if problem == P11:  # criterion 6's floor
        assert functionals.averaging_objective(fam, w, problem) >= 1.0 / 3.0


def _tight_nested(monkeypatch, fam, weight, tau):
    with monkeypatch.context() as m:
        m.setattr(quad, "_ABS_TOL", 1e-300)
        m.setattr(quad, "_REL_TOL", 1e-15)
        m.setattr(quad, "_MAX_SUBDIVISIONS", 100_000)
        return functionals._nested_objective(fam, weight, tau)


def _sweep_optimum(run):
    problem = functionals.ProblemSpec(run["d"], run["sigma"])
    res = optimize.minimize_averaging(problem, optimize.OptConfig(seed_params=run["seed_params"]),
                                      phi_kind=run["phi_kind"])
    return optimize.trial_pair(run["phi_kind"], res.best_params), problem


# the exact (3, 1/2) bump_poly and (1, 1) bump_simple starts of the benchmark's sweep
SWEEP_RUNS = [{"d": 3, "sigma": 0.5, "phi_kind": "bump_poly", "seed_params": (8.0, 0.25, 2.0, 4.0)},
              {"d": 1, "sigma": 1.0, "phi_kind": "bump_simple", "seed_params": (1.5, 0.5)}]


def test_mellin_line_matches_tight_nested_path(monkeypatch):
    pairs = [((trial.normalize_profile("deficit_optimal", a=1.5), trial.normalize_weight("bump_simple")), P11),
             ((trial.normalize_profile("rational_power", a=10.0, p=0.25),
               trial.normalize_weight("bump_poly", q=2.0, r=4.0)), P3HALF)]
    pairs += [_sweep_optimum(run) for run in SWEEP_RUNS]
    for (fam, weight), problem in pairs:
        c = functionals.averaging_objective(fam, weight, problem)
        np.testing.assert_allclose(c, _tight_nested(monkeypatch, fam, weight, problem.tau), rtol=1e-13,
                                   err_msg=repr((fam, weight)))


@pytest.fixture
def integrate_calls(monkeypatch):
    """The integrands quad.integrate is called on, in order."""
    calls = []
    integrate = quad.integrate

    def counting(func):
        calls.append(func)
        return integrate(func)

    monkeypatch.setattr(quad, "integrate", counting)
    return calls


def test_mellin_line_calls_no_adaptive_integral(integrate_calls):
    for kind, q, r in (("uniform", None, None), ("bump_simple", None, None), ("bump_poly", 2.0, 4.0)):
        for fam in (trial.normalize_profile("rational_power", a=4.5, p=0.25),
                    trial.normalize_profile("deficit_optimal", a=1.5)):
            functionals.averaging_objective(fam, trial.normalize_weight(kind, q=q, r=r), P11)
    assert integrate_calls == []


def test_mellin_line_keeps_the_admissibility_messages():
    fam = trial.normalize_profile("rational_power", a=20.0, p=0.25)
    for kind in ("uniform", "bump_simple", "bump_poly"):
        weight = trial.normalize_weight(kind, q=2.0, r=4.0) if kind == "bump_poly" else trial.normalize_weight(kind)
        with pytest.raises(functionals.DivergentError, match=r"weight needs exponent > 25\.0"):
            functionals.averaging_objective(fam, weight, functionals.ProblemSpec(1, 0.01))


def test_tiny_tau_and_large_p_take_the_nested_path(integrate_calls):
    # tau = 5e-6 would need more than 8,192 nodes on the line, and at p = 64
    # log Gamma(p) would cost its logs their digits
    fam = trial.normalize_profile("rational_power", a=1.2, p=1.0)
    functionals.averaging_objective(fam, trial.normalize_weight("uniform"), functionals.ProblemSpec(1, 1e5))
    assert len(integrate_calls) == 1
    fam = trial.normalize_profile("rational_power", a=4.5, p=64.0)
    functionals.averaging_objective(fam, trial.normalize_weight("uniform"), P11)
    assert len(integrate_calls) == 2
