import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltbounds import constants
from ltbounds.functionals import ProblemSpec

P11 = ProblemSpec(d=1, sigma=1.0)
P31 = ProblemSpec(d=3, sigma=1.0)
P3HALF = ProblemSpec(d=3, sigma=0.5)


def test_semiclassical_constants_closed_forms():
    # L_cl(1,1) = 2/(3 pi); K_cl(3, 1/2) = (3/4)(6 pi^2)^(1/3)
    np.testing.assert_allclose(constants.l_cl(P11), 2.0 / (3.0 * math.pi), rtol=1e-14)
    np.testing.assert_allclose(constants.k_cl(P3HALF), 0.75 * (6.0 * math.pi**2) ** (1.0 / 3.0),
                               rtol=1e-14)
    # cross-check the sigma form against the Gamma-function form at sigma = 1
    for d in range(1, 7):
        prob = ProblemSpec(d=d, sigma=1.0)
        gamma_form = math.gamma(2.0) / ((4.0 * math.pi) ** (d / 2.0) * math.gamma(2.0 + d / 2.0))
        np.testing.assert_allclose(constants.l_cl(prob), gamma_form, rtol=1e-13)
        np.testing.assert_allclose(constants.l_cl_general(1.0, d), gamma_form, rtol=1e-13)


def test_l_cl_general_validation():
    with pytest.raises(ValueError):
        constants.l_cl_general(-0.5, 3)
    with pytest.raises(ValueError):
        constants.l_cl_general(1.0, 0)


def test_deficit_min_closed_forms():
    got = constants.deficit_min(1.5)
    np.testing.assert_allclose(got.value, 1.4475717080940278, rtol=1e-13)
    np.testing.assert_allclose(got.mu_star, 0.7237858540470139, rtol=1e-13)
    np.testing.assert_allclose(got.mu_star, 0.5 * got.value, rtol=1e-15)
    np.testing.assert_allclose(constants.deficit_min(2.0).value, math.pi**2 / 16.0, rtol=1e-14)
    got4 = constants.deficit_min(4.0)
    np.testing.assert_allclose(got4.value, 0.16052523546863195, rtol=1e-13)
    np.testing.assert_allclose(got4.mu_star, 3.0 * got4.value, rtol=1e-14)
    with pytest.raises(ValueError):
        constants.deficit_min(1.0)


def test_deficit_min_blows_up_toward_beta_one():
    # min value ~ (beta - 1)^-1 near 1; mu_star -> 1
    near = constants.deficit_min(1.0 + 1e-6)
    assert near.value > 9e5
    np.testing.assert_allclose(near.mu_star, 1.0, atol=2e-6)


@pytest.mark.parametrize("d,sigma", [(1, 2.0), (1, 3.0), (2, 5.0), (1, 6.0), (3, 1.0), (4, 0.5)])
def test_duality_round_trip(d, sigma):
    prob = ProblemSpec(d=d, sigma=sigma)
    for k in (0.3, 0.7, 0.95):
        l = constants.BoundReport(prob, "x", math.log(k)).l_ratio
        np.testing.assert_allclose(l, k ** (-prob.tau), rtol=1e-15)
        back = l ** (-1.0 / prob.tau)
        np.testing.assert_allclose(back, k, rtol=1e-13)


def test_l_ratio_outside_float_range_raises_value_error():
    # the |log| <= 709 rule of BoundReport: log l = -500 log k
    prob = ProblemSpec(d=1000, sigma=1.0)
    for k in (0.01, 1e10):
        with pytest.raises(ValueError, match="float range"):
            constants.BoundReport(prob, "x", math.log(k))
    l = constants.BoundReport(prob, "x", math.log(math.exp(-1.4))).l_ratio
    np.testing.assert_allclose(l, math.exp(700.0), rtol=1e-12)


@pytest.mark.parametrize("d1,d", [(1, 2), (1, 3), (2, 5), (1, 6)])
def test_product_identity(d1, d):
    assert constants.product_identity_check(d1, d) <= 1e-12


def test_product_identity_validation():
    with pytest.raises(ValueError):
        constants.product_identity_check(3, 3)
    with pytest.raises(ValueError):
        constants.product_identity_check(0, 2)


def test_momentum_optimal_frozen_values():
    rep = constants.bound_momentum_optimal(P11)
    assert rep.method == "momentum_optimal"
    np.testing.assert_allclose(rep.k_ratio, 0.381777046629389, rtol=1e-12)
    np.testing.assert_allclose(rep.l_ratio, 1.618434370801864, rtol=1e-12)
    np.testing.assert_allclose(constants.bound_momentum_optimal(P31).l_ratio,
                               1.994583169481345, rtol=1e-12)
    assert constants.bound_momentum_optimal(P3HALF).method == "fractional_first"


def test_momentum_optimal_direct_formula():
    # independent route: k = d/(d+4s) * ((d+2s)^2 sin(2 pi s/(d+2s)) / (2 pi s d))^((d+2s)/d)
    for d in range(1, 7):
        for sigma in (0.5, 1.0, 2.0):
            s = sigma
            base = (d + 2 * s) ** 2 * math.sin(2.0 * math.pi * s / (d + 2 * s)) / (2.0 * math.pi * s * d)
            want = d / (d + 4.0 * s) * base ** ((d + 2.0 * s) / d)
            got = constants.bound_momentum_optimal(ProblemSpec(d=d, sigma=s))
            np.testing.assert_allclose(got.k_ratio, want, rtol=1e-12)


def test_rumin_original():
    rep = constants.bound_rumin_original(P11)
    assert rep.method == "rumin_original"
    np.testing.assert_allclose(rep.k_ratio, 0.2, rtol=1e-15)
    np.testing.assert_allclose(rep.l_ratio, math.sqrt(5.0), rtol=1e-14)
    with pytest.raises(ValueError):
        constants.bound_rumin_original(P3HALF)


def test_bound_from_c_frozen_conversion():
    rich = 0.3735546490692244
    rep = constants.bound_from_c(P11, rich)
    assert rep.method == "low_momentum_avg"
    np.testing.assert_allclose(rep.k_ratio, 0.4718515841953501, rtol=1e-12)
    np.testing.assert_allclose(rep.l_ratio, 1.4557851710807823, rtol=1e-12)
    assert rep.c_value == rich

    frac = 0.04673623537366185
    rep2 = constants.bound_from_c(P3HALF, frac)
    assert rep2.method == "fractional_second"
    np.testing.assert_allclose(rep2.k_ratio, 0.8262979847505126, rtol=1e-12)

    with pytest.raises(ValueError):
        constants.bound_from_c(P11, -0.1)
    with pytest.raises(ValueError):
        constants.bound_from_c(P11, math.inf)


def test_best_of_takes_largest_k():
    # without a c value the 1d lifted ratio beats the closed forms at (1,1)
    rep = constants.bound_best_of(P11)
    assert rep.method == "best_of"
    np.testing.assert_allclose(rep.l_ratio, constants.LIFTED_1D_L_RATIO, rtol=1e-15)
    # a strong c value wins over everything
    strong = constants.bound_best_of(P11, c_value=0.3735546490692244)
    assert strong.k_ratio > rep.k_ratio
    np.testing.assert_allclose(strong.c_value, 0.3735546490692244)
    # at sigma != 1 only the fractional closed form and c route apply
    frac = constants.bound_best_of(P3HALF, c_value=0.04673623537366185)
    np.testing.assert_allclose(frac.k_ratio, 0.8262979847505126, rtol=1e-12)
    weak = constants.bound_best_of(P3HALF, c_value=10.0)
    np.testing.assert_allclose(weak.k_ratio,
                               constants.bound_momentum_optimal(P3HALF).k_ratio, rtol=1e-15)


def test_bound_report_duality_enforced():
    # the report stores one log k, so k and l cannot disagree; what is left
    # to reject is a log k whose k or l = k^(-tau) leaves the float range
    rep = constants.BoundReport(problem=P11, method="x", log_k=math.log(0.25))
    np.testing.assert_allclose(rep.k_ratio, 0.25, rtol=1e-15)
    np.testing.assert_allclose(rep.l_ratio, 2.0, rtol=1e-15)
    assert rep.to_json()["d"] == 1
    for bad in (math.nan, math.inf, -math.inf, 710.0, -710.0):
        with pytest.raises(ValueError, match="float range"):
            constants.BoundReport(problem=P11, method="x", log_k=bad)
    with pytest.raises(ValueError, match="float range"):  # tau = 500: log l = 1000
        constants.BoundReport(problem=ProblemSpec(d=1000, sigma=1.0), method="x", log_k=-2.0)


def test_large_d_limit():
    probe = constants.large_d_limit_probe(1000)
    assert math.e - 0.01 <= probe <= math.e
    # monotone approach from below over a decade of dimensions
    seq = [constants.large_d_limit_probe(d) for d in (10, 100, 1000, 10000)]
    assert all(x < y for x, y in zip(seq, seq[1:]))
    assert seq[-1] < math.e


def test_rumin_large_d_stays_above():
    for d in (10, 100, 1000):
        prob = ProblemSpec(d=d, sigma=1.0)
        assert constants.bound_momentum_optimal(prob).l_ratio < constants.bound_rumin_original(prob).l_ratio


def test_named_ratios():
    assert constants.UNIVERSAL_L_RATIO == 1.456
    assert constants.LIFTED_1D_L_RATIO == 1.455786
    np.testing.assert_allclose(constants.CONJECTURED_1D_L_RATIO, 2.0 / math.sqrt(3.0), rtol=1e-15)
    assert constants.LIFTED_1D_L_RATIO < constants.UNIVERSAL_L_RATIO
    assert constants.CONJECTURED_1D_L_RATIO < constants.LIFTED_1D_L_RATIO


@settings(max_examples=300, deadline=None)
@given(d=st.floats(0.0, 6.0).map(lambda e: round(10.0**e)),
       sigma=st.floats(-6.0, 3.0).map(lambda e: 10.0**e),
       c=st.floats(1.0 / 3.0, 3.0))
# problems that a 1e-12 re-check of separately computed k and l rejected
@example(d=100, sigma=1e-3, c=1.0)
@example(d=1000, sigma=0.01, c=1.0)
@example(d=10**5, sigma=1.0, c=1.0)
@example(d=1, sigma=1e-9, c=1.0)
def test_every_problem_gets_a_report(d, sigma, c):
    problem = ProblemSpec(d=d, sigma=sigma)
    momentum = constants.bound_momentum_optimal(problem)
    assert 0.0 < momentum.k_ratio < 1.0 < momentum.l_ratio
    assert constants.bound_best_of(problem).l_ratio <= momentum.l_ratio
    try:
        constants.bound_from_c(problem, c)
    except ValueError as exc:
        assert "float range" in str(exc)


def _mp_log_k(d, sigma, c=None):
    # the textbook forms in d and sigma, at 50 digits
    d, s = mpmath.mpf(d), mpmath.mpf(sigma)
    if c is None:
        x = 2 * mpmath.pi * s / (d + 2 * s)
        return (mpmath.log(d / (d + 4 * s))
                + (1 + 2 * s / d) * mpmath.log((d + 2 * s) ** 2 * mpmath.sin(x) / (2 * mpmath.pi * s * d)))
    return (mpmath.log(d / (d + 2 * s)) + 4 * s / d * mpmath.log(2 * s / (d + 2 * s))
            - 2 * s / d * mpmath.log(mpmath.mpf(c)))


def test_log_l_against_mpmath():
    rng = np.random.default_rng(1808)
    checked = 0
    with mpmath.workdps(50):
        for _ in range(1000):
            d = round(10.0 ** rng.uniform(0.0, 6.0))
            sigma = float(10.0 ** rng.uniform(-6.0, 3.0))
            c = float(np.exp(rng.uniform(-math.log(3.0), math.log(3.0))))
            problem = ProblemSpec(d=d, sigma=sigma)
            for build, log_k in ((lambda: constants.bound_momentum_optimal(problem), _mp_log_k(d, sigma)),
                                 (lambda: constants.bound_from_c(problem, c), _mp_log_k(d, sigma, c))):
                log_l = float(-mpmath.mpf(d) / (2 * mpmath.mpf(sigma)) * log_k)
                if max(abs(float(log_k)), abs(log_l)) > 709.0:
                    with pytest.raises(ValueError, match="float range"):
                        build()
                    continue
                got = -problem.tau * build().log_k
                assert abs(got - log_l) <= 1e-13 * max(1.0, abs(log_l)), (d, sigma, c, got, log_l)
                checked += 1
    assert checked > 1900
