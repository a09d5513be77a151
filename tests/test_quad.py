import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltbounds import quad


def test_polynomial_is_exact_in_one_panel():
    res = quad.integrate(lambda s: 24.0 * s**2)  # 3 t^2 on (0, 2) at t = 2 s
    np.testing.assert_allclose(res.value, 8.0, rtol=1e-14)
    assert res.converged
    assert res.subdivisions_used == 0


def test_non_finite_integrand_raises():
    with np.errstate(over="ignore", divide="ignore"):
        with pytest.raises(quad.NonFiniteIntegrandError):
            quad.integrate(lambda t: 1.0 / t)
    with pytest.raises(quad.NonFiniteIntegrandError):
        quad.integrate(lambda t: np.full_like(t, math.nan))


def test_budget_exhaustion_reports_not_converged(monkeypatch):
    # endpoint singularity needs far more than 3 subdivisions; must not raise
    monkeypatch.setattr(quad, "_ABS_TOL", 1e-14)
    monkeypatch.setattr(quad, "_REL_TOL", 1e-14)
    monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", 3)
    res = quad.integrate(lambda t: t**-0.5)
    assert not res.converged
    assert res.subdivisions_used == 3
    assert math.isfinite(res.value)


def test_panels_too_narrow_to_split_are_frozen(monkeypatch):
    # 8 ulps hold at most 8 panels: the 4 start panels split once each, then
    # every panel is one ulp wide and is frozen with its error kept.  No
    # substitution onto (0, 1) keeps panels that narrow, so the start panels
    # themselves are moved onto the 8 ulps past 1.
    u = math.ulp(1.0)
    monkeypatch.setattr(quad, "_START_EDGES", 1.0 + u * np.arange(0.0, 9.0, 2.0))
    monkeypatch.setattr(quad, "_ABS_TOL", 1e-300)
    monkeypatch.setattr(quad, "_REL_TOL", 0.0)
    res = quad.integrate(lambda t: np.where(t < 1.0 + 4.0 * u, 0.0, 1e30))
    assert res.subdivisions_used == 4
    assert math.isfinite(res.value) and res.error_estimate > quad._ABS_TOL


def test_error_estimate_is_conservative():
    res = quad.integrate(lambda s: 3.0 * np.sin(21.0 * s))  # sin(7 t) on (0, 3) at t = 3 s
    exact = (1.0 - math.cos(21.0)) / 7.0
    assert abs(res.value - exact) <= max(10.0 * res.error_estimate, 1e-13)


def test_deterministic_repeat():
    f = lambda s: 50.0 * np.log1p(50.0 * s) / (1.0 + (50.0 * s) ** 3)  # t in (0, 50) at t = 50 s
    r1 = quad.integrate(f)
    r2 = quad.integrate(f)
    assert r1.subdivisions_used > 0
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


def test_one_integrand_call_per_round():
    # the 4 start panels share one call, then each round scores all its halves
    # in one: 1 split per round at the sqrt corner, up to 16 for sin(40 t)
    for func, want in ((np.sqrt, [60] + [30] * 13),
                       (lambda s: 3.0 * np.sin(120.0 * s), [60, 120, 240, 480, 150])):  # sin(40 t), t = 3 s
        sizes = []

        def f(t):
            sizes.append(t.size)
            return func(t)

        res = quad.integrate(f)
        assert res.converged
        assert sizes == want
        assert all(n % 15 == 0 for n in sizes)
        assert sum(sizes) == 15 * (quad._START_PANELS + 2 * res.subdivisions_used)


_INTEGRANDS = {  # name -> (f(k, t), antiderivative F(k, x) in mpmath)
    "power": (lambda k, t: t**k, lambda k, x: x ** (k + 1) / (k + 1)),
    "inverse_sqrt": (lambda k, t: t**-0.5, lambda k, x: 2 * mpmath.sqrt(x)),
    "sin7": (lambda k, t: np.sin(7.0 * t), lambda k, x: -mpmath.cos(7 * x) / 7),
}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_INTEGRANDS)), k=st.integers(0, 30),
       lo=st.one_of(st.just(0.0), st.floats(0.0, 4.0)), width=st.floats(1e-3, 8.0))
@example(name="inverse_sqrt", k=0, lo=1.0, width=0.001)  # hi - lo is 1.1e-16 short of width
def test_integrate_meets_tolerance_and_error_estimate(name, k, lo, width):
    # smooth and endpoint-singular integrands on (lo, hi) against their
    # closed forms, mapped onto (0, 1) by t = lo + (hi - lo) s
    hi = lo + width
    func, antiderivative = _INTEGRANDS[name]
    res = quad.integrate(lambda s: (hi - lo) * func(k, lo + (hi - lo) * s))
    with mpmath.workdps(30):
        exact = float(antiderivative(k, mpmath.mpf(hi)) - antiderivative(k, mpmath.mpf(lo)))
        mass = float(mpmath.quad(lambda x: abs(mpmath.sin(7 * x)), [lo, hi])) if name == "sin7" else exact
    err = abs(res.value - exact)
    assert res.converged
    assert err <= max(quad._ABS_TOL, quad._REL_TOL * abs(exact))
    # rounding in the sum of 15 values per panel is not part of the estimate
    assert err <= res.error_estimate + 1e-14 * mass


def test_graded_tails_built_on_first_use():
    # the indicator-only tails (2 x 162 KB) are not built along with the rule
    quad.graded_rule.cache_clear()
    quad.graded_tails.cache_clear()
    nodes, weights = quad.graded_rule()
    assert quad.graded_tails.cache_info().misses == 0
    tail_nodes, tail_weights = quad.graded_tails()
    assert quad.graded_tails.cache_info().misses == 1
    assert quad.graded_tails()[0] is tail_nodes
    assert tail_nodes.shape == tail_weights.shape == (nodes.size // 15, 15, 15)
    assert not tail_nodes.flags.writeable and not tail_weights.flags.writeable
    # row [k, j] integrates 1 over s from node j to the end of panel k; nodes
    # near s = 1 are rounded, so the lengths come from the panel variable
    x15 = quad._XK15
    dyadic = 2.0 ** -np.arange(45, 0, -1)  # graded to 2^-45 at both ends
    cuts = np.unique(np.concatenate(([0.0], dyadic, 1.0 - dyadic, [1.0])))
    lengths = 0.5 * np.diff(cuts)[:, None] * (1.0 - x15)
    # s = cuts[1] u^8 with u = 1 + (x - 1)/2: 1 - u^8 in logs keeps its digits near u = 1
    lengths[0] = cuts[1] * -np.expm1(8.0 * np.log1p(0.5 * (x15 - 1.0)))
    np.testing.assert_allclose(tail_weights.sum(axis=2), lengths, rtol=1e-14)
