import math

import numpy as np
import pytest

from ltbounds import quad

# int_0^inf dt / (1 + t^(3/2))^2 = 4 pi / (9 sqrt(3))
RATIONAL_TAIL_EXACT = 4.0 * math.pi / (9.0 * math.sqrt(3.0))


def test_polynomial_is_exact_in_one_panel():
    res = quad.integrate(lambda t: 3.0 * t**2, 0.0, 2.0)
    np.testing.assert_allclose(res.value, 8.0, rtol=1e-14)
    assert res.converged
    assert res.subdivisions_used == 0


def test_semi_infinite_rational_tail():
    res = quad.integrate(lambda t: 1.0 / (1.0 + t**1.5) ** 2, 0.0, math.inf)
    assert res.converged
    np.testing.assert_allclose(res.value, RATIONAL_TAIL_EXACT, atol=5e-12)
    assert res.error_estimate < 1e-10


def test_gaussian_full_line_split():
    # erf tail: int_0^inf exp(-t^2) = sqrt(pi)/2
    res = quad.integrate(lambda t: np.exp(-(t**2)), 0.0, math.inf)
    np.testing.assert_allclose(res.value, math.sqrt(math.pi) / 2.0, rtol=1e-12)


def test_zero_width_interval():
    res = quad.integrate(lambda t: t, 1.0, 1.0)
    assert res.value == 0.0
    assert res.converged


def test_spec_validation():
    with pytest.raises(ValueError):
        quad.QuadSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        quad.QuadSpec(rel_tol=-1e-3)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            quad.QuadSpec(abs_tol=bad)
        with pytest.raises(ValueError):
            quad.QuadSpec(rel_tol=bad)
    quad.QuadSpec(rel_tol=0.0)  # absolute-only mode is legal
    with pytest.raises(ValueError):
        quad.QuadSpec(max_subdivisions=0)


def test_endpoint_validation():
    with pytest.raises(ValueError):
        quad.integrate(lambda t: t, math.nan, 1.0)
    with pytest.raises(ValueError):
        quad.integrate(lambda t: t, -math.inf, 0.0)
    with pytest.raises(ValueError):
        quad.integrate(lambda t: t, 2.0, 1.0)


def test_non_finite_integrand_raises():
    with np.errstate(over="ignore", divide="ignore"):
        with pytest.raises(quad.NonFiniteIntegrandError):
            quad.integrate(lambda t: 1.0 / t, 0.0, 1.0)
    with pytest.raises(quad.NonFiniteIntegrandError):
        quad.integrate(lambda t: np.full_like(t, math.nan), 0.0, 1.0)


def test_budget_exhaustion_reports_not_converged():
    # endpoint singularity needs far more than 3 subdivisions; must not raise
    spec = quad.QuadSpec(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=3)
    res = quad.integrate(lambda t: t**-0.5, 0.0, 1.0, spec)
    assert not res.converged
    assert res.subdivisions_used == 3
    assert math.isfinite(res.value)


def test_error_estimate_is_conservative():
    res = quad.integrate(lambda t: np.sin(7.0 * t), 0.0, 3.0)
    exact = (1.0 - math.cos(21.0)) / 7.0
    assert abs(res.value - exact) <= max(10.0 * res.error_estimate, 1e-13)


def test_deterministic_repeat():
    f = lambda t: np.log1p(t) / (1.0 + t**3)
    r1 = quad.integrate(f, 0.0, math.inf)
    r2 = quad.integrate(f, 0.0, math.inf)
    assert r1.value == r2.value
    assert r1.subdivisions_used == r2.subdivisions_used


def _monomial_error(nodes, weights, k):
    exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
    return abs(float(weights @ nodes**k) - exact)


def test_kronrod_15_degree_of_exactness():
    for k in range(24):
        assert _monomial_error(quad._XK15, quad._WK15, k) <= 1e-14, k
    assert _monomial_error(quad._XK15, quad._WK15, 24) > 1e-10


def test_embedded_gauss_7_exactness_and_nodes():
    x7, w7 = np.polynomial.legendre.leggauss(7)
    gauss = quad._WG7 != 0.0
    np.testing.assert_allclose(quad._XK15[gauss], x7, rtol=0, atol=1e-15)
    np.testing.assert_allclose(quad._WG7[gauss], w7, rtol=0, atol=1e-15)
    for k in range(14):
        assert _monomial_error(quad._XK15, quad._WG7, k) <= 1e-14, k
    np.testing.assert_allclose(quad._WK15.sum(), 2.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(quad._WG7.sum(), 2.0, rtol=0, atol=1e-15)


def test_one_integrand_call_per_panel():
    sizes = []

    def f(t):
        sizes.append(t.size)
        return np.sqrt(t)

    res = quad.integrate(f, 0.0, 1.0)
    assert res.converged and res.subdivisions_used > 0
    assert len(sizes) == 1 + 2 * res.subdivisions_used
    assert set(sizes) == {15}


def test_graded_tails_built_on_first_use():
    # the indicator-only tails (2 x 162 KB) are not built along with the rule
    spec = quad.QuadSpec(abs_tol=3.7e-9)  # an abs_tol no other test uses
    tails_built = quad._graded_tails.cache_info().misses
    nodes, weights = quad.graded_rule(spec)
    assert quad._graded_tails.cache_info().misses == tails_built
    tail_nodes, tail_weights = quad.graded_tails(spec)
    assert quad._graded_tails.cache_info().misses == tails_built + 1
    assert quad.graded_tails(spec)[0] is tail_nodes
    assert tail_nodes.shape == tail_weights.shape == (nodes.size // 15, 15, 15)
    assert not tail_nodes.flags.writeable and not tail_weights.flags.writeable
    # row [k, j] integrates 1 over s from node j to the end of panel k; nodes
    # near s = 1 are rounded, so the lengths come from the panel variable
    x15 = np.polynomial.legendre.leggauss(15)[0]
    dyadic = 2.0 ** -np.arange(45, 0, -1)  # levels = 45 at this abs_tol
    cuts = np.unique(np.concatenate(([0.0], dyadic, 1.0 - dyadic, [1.0])))
    lengths = 0.5 * np.diff(cuts)[:, None] * (1.0 - x15)
    lengths[0] = cuts[1] * (1.0 - (0.5 * (x15 + 1.0)) ** 8)  # s = cuts[1] u^8
    np.testing.assert_allclose(tail_weights.sum(axis=2), lengths, rtol=1e-14)
