import math

import mpmath
import numpy as np
import pytest

from ltbounds import specfun, trial


def test_log_gamma_known_values():
    np.testing.assert_allclose(specfun.log_gamma(0.5), 0.5 * math.log(math.pi), rtol=1e-15)
    np.testing.assert_allclose(specfun.log_gamma(1.0), 0.0, atol=1e-300)
    np.testing.assert_allclose(specfun.log_gamma(5.0), math.log(24.0), rtol=1e-15)


def test_gamma_matches_factorials():
    for n in range(1, 15):
        np.testing.assert_allclose(specfun.log_gamma(n + 1), math.log(math.factorial(n)), rtol=1e-14)


def test_gamma_reflection_half_integers():
    # Gamma(1/2) = sqrt(pi), Gamma(3/2) = sqrt(pi)/2
    np.testing.assert_allclose(specfun.log_gamma(1.5), math.log(math.sqrt(math.pi) / 2.0), rtol=1e-14)


def test_gamma_domain_errors():
    for bad in (0.0, -1.0, -7.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            specfun.log_gamma(bad)
    # the log form stays finite where Gamma itself overflows
    assert specfun.log_gamma(200.0) > 700.0


def test_beta_symmetry_and_values():
    np.testing.assert_allclose(specfun.log_beta(1.0, 1.0), 0.0, atol=1e-15)
    np.testing.assert_allclose(specfun.log_beta(2.0, 3.0), -math.log(12.0), rtol=1e-14)
    assert specfun.log_beta(0.3, 1.7) == specfun.log_beta(1.7, 0.3)
    # B(2/3, 4/3) shows up in the mu closed form at (a, p) = (3/2, 1)
    np.testing.assert_allclose(specfun.log_beta(2.0 / 3.0, 4.0 / 3.0), math.log(1.2091995761561452), rtol=1e-13)


def test_log_beta_consistent_with_beta():
    for x, y in ((0.5, 0.5), (2.0, 5.0), (0.25, 3.75), (1e-3, 1e3), (400.0, 300.0)):
        np.testing.assert_allclose(specfun.log_beta(x, y), float(mpmath.log(mpmath.beta(x, y))), rtol=1e-13)


def test_log_beta_large_argument_against_mpmath():
    # b >= 30 takes Stirling's series; at 60 digits mpmath is exact to double rounding
    with mpmath.workdps(60):
        for a in (1e-3, 0.1, 0.5, 2.0, 29.0):
            for b in (30.0, 1e3, 1e8, 1e16):
                want = float(mpmath.log(mpmath.beta(a, b)))
                got = specfun.log_beta(a, b)
                assert abs(got - want) <= 4e-15 * max(1.0, abs(want)), (a, b, got, want)
                assert specfun.log_beta(b, a) == got
        # rational_power mu = (B(1/a, 2p - 1/a)/a)^a at a = 2, and bump_poly c = q / B(1/q, r + 1)
        for p in (1e3, 1e6, 1e12, 1e16):
            want = (mpmath.beta(mpmath.mpf(1) / 2, 2 * mpmath.mpf(p) - mpmath.mpf(1) / 2) / 2) ** 2
            mu = trial.normalize_profile("rational_power", a=2.0, p=p).mu
            np.testing.assert_allclose(mu, float(want), rtol=2e-14, err_msg=f"p = {p:g}")
        want = 2 / mpmath.beta(mpmath.mpf(1) / 2, mpmath.mpf(10) ** 6 + 1)
        np.testing.assert_allclose(trial.normalize_weight("bump_poly", q=2.0, r=1e6).c, float(want), rtol=1e-14)


def test_unit_ball_volume():
    want = {0: 1.0, 1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0,
            4: math.pi**2 / 2.0, 5: 8.0 * math.pi**2 / 15.0}
    for d, v in want.items():
        np.testing.assert_allclose(specfun.unit_ball_volume(d), v, rtol=1e-14)
    with pytest.raises(ValueError):
        specfun.unit_ball_volume(-1)
