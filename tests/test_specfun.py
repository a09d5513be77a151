import math

import mpmath
import numpy as np
import pytest
from scipy import special as sp

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


def test_mu_closed_form_against_mpmath():
    # mu = (B(1/a, 2p - 1/a)/a)^a through log_beta: over these 300 draws the
    # largest relative error is 2.8e-14; the difference of three lgammas
    # it replaced reached 6.7e-14 on the same draws
    rng = np.random.default_rng(0)
    with mpmath.workdps(40):
        for _ in range(300):
            a = rng.uniform(0.6, 20.0)
            p = rng.uniform(1.0001 * max(0.5 / a, 0.05), 3.0)
            want = (mpmath.beta(1 / mpmath.mpf(a), 2 * mpmath.mpf(p) - 1 / mpmath.mpf(a)) / a) ** a
            mu = trial.normalize_profile("rational_power", a=a, p=p).mu
            np.testing.assert_allclose(mu, float(want), rtol=4e-14, err_msg=f"a = {a!r}, p = {p!r}")


def test_log_gamma_step_against_mpmath():
    # steps far below x keep their digits, down to d = 1e-13 and across the
    # shift to 12; a negative step is the step down
    with mpmath.workdps(40):
        for x in (0.05, 0.5, 3.0, 11.5, 12.0, 40.0, 2e4):
            for d in (1e-13, 1e-6, 0.3, 2.5, 11.0, -0.5 * x):
                want = mpmath.loggamma(mpmath.mpf(x) + mpmath.mpf(d)) - mpmath.loggamma(x)
                got = specfun.log_gamma_step(x, d)
                bound = 1e-15 * abs(float(want)) + 4e-16 * abs(d) * (1.0 / x + math.log(x + abs(d) + 2.0))
                assert abs(got - float(want)) <= bound, (x, d, got, float(want))


def test_beta_to_a_few_ulp():
    with mpmath.workdps(40):
        for a, b in ((20.0, 11.0), (20.0, 21.0), (1 / 3, 11.0), (2.5, 0.6), (0.5, 1e6), (170.5, 3.0), (300.0, 2.0)):
            want = float(mpmath.beta(a, b))
            np.testing.assert_allclose(specfun.beta(a, b), want, rtol=1e-15, err_msg=f"B({a}, {b})")
            assert specfun.beta(b, a) == specfun.beta(a, b)


def test_log_abs_gamma_against_scipy():
    # Re z in (-1, 60], |Im z| <= 2000, and the error bound of the docstring
    rng = np.random.default_rng(5)
    z = rng.uniform(-1.0, 60.0, 4000) + 1j * rng.uniform(-2000.0, 2000.0, 4000)
    z[:1000] = rng.uniform(-1.0, 3.0, 1000) + 1j * rng.uniform(-5.0, 5.0, 1000)
    z[1000:1010] = [-0.5, -0.999, 0.001, 1.0, 2.0, 0.5 + 2000j, 60.0 - 2000j, 8.0, 7.999, 60.0]
    z = z[z.real > -1.0]
    size = np.abs(z)
    bound = 1e-14 * (1.0 + size * np.log(np.maximum(size, 1.0)))
    err = np.abs(specfun.log_abs_gamma(z) - sp.loggamma(z).real)
    assert np.all(err <= bound), (z[np.argmax(err / bound)], (err / bound).max())
    np.testing.assert_allclose(specfun.log_abs_gamma(np.array([0.5, 5.0])), [0.5 * math.log(math.pi), math.log(24.0)],
                               rtol=0.0, atol=1e-14)


def test_log_abs_gamma_step_against_mpmath():
    # Re log Gamma(z + b) - Re log Gamma(z) to a few ulp of b log|z + b|,
    # also at |z| = 2000 where log|Gamma| itself is about 1.3e4
    rng = np.random.default_rng(6)
    z = rng.uniform(0.01, 60.0, 60) + 1j * rng.uniform(-2000.0, 2000.0, 60)
    z[:20] = rng.uniform(0.01, 3.0, 20) + 1j * rng.uniform(-5.0, 5.0, 20)
    for b in (0.5, 3.7, 11.0):
        with mpmath.workdps(40):
            want = np.array([float(mpmath.re(mpmath.loggamma(mpmath.mpc(v) + b) - mpmath.loggamma(mpmath.mpc(v))))
                             for v in z])
        bound = 2e-15 * (1.0 + b * np.log(np.abs(z + b) + 1.0))
        assert np.all(np.abs(specfun.log_abs_gamma_step(z, b) - want) <= bound), b


def test_unit_ball_volume():
    want = {0: 1.0, 1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0,
            4: math.pi**2 / 2.0, 5: 8.0 * math.pi**2 / 15.0}
    for d, v in want.items():
        np.testing.assert_allclose(specfun.unit_ball_volume(d), v, rtol=1e-14)
    with pytest.raises(ValueError):
        specfun.unit_ball_volume(-1)
