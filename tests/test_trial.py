import math
import tracemalloc

import numpy as np
import pytest

from scipy import integrate

from ltbounds import quad, trial

# frozen closed-form normalizations: mu(a, p) = (B(1/a, 2p - 1/a) / a)^a
MU_RICH = 10.0570265344249        # a = 4.5, p = 0.25
MU_FRACTIONAL = 5.722491772927028  # a = 10,  p = 0.25
C_RICH = 11.21040374236306         # q = 0.36, r = 2.1
C_POLY_24 = 315.0 / 128.0          # q = 2, r = 4: 1 / B(1/2, 5) * 2


def test_mu_closed_form():
    fam = trial.normalize_profile("rational_power", a=4.5, p=0.25)
    np.testing.assert_allclose(fam.mu, MU_RICH, rtol=1e-12)
    fam = trial.normalize_profile("rational_power", a=10.0, p=0.25)
    np.testing.assert_allclose(fam.mu, MU_FRACTIONAL, rtol=1e-12)


def test_mu_enforces_unit_l2_norm():
    """mu is defined by int_0^inf f(t)^2 dt = 1."""
    for a, p in ((4.5, 0.25), (1.5, 1.0), (2.0, 0.8), (0.8, 1.4)):
        fam = trial.normalize_profile("rational_power", a=a, p=p)
        value, error = integrate.quad(lambda t: trial.eval_profile(fam, np.array([t]))[0] ** 2, 0.0, math.inf,
                                      epsabs=1e-12, epsrel=1e-12, limit=200)
        assert error < 1e-9
        np.testing.assert_allclose(value, 1.0, atol=2e-9)


def test_deficit_optimal_profile():
    fam = trial.normalize_profile("deficit_optimal", a=1.5)
    assert fam.p == 1.0
    # mu* = (beta - 1) * min J_beta; value at t = 1 is 1 / (1 + mu*)
    np.testing.assert_allclose(fam.mu, 0.7237858540470139, rtol=1e-12)
    # same constant through the L2 normalization route
    beta = math.gamma(2.0 / 3.0) * math.gamma(4.0 / 3.0) / math.gamma(2.0)
    np.testing.assert_allclose(fam.mu, (beta / 1.5) ** 1.5, rtol=1e-13)
    np.testing.assert_allclose(trial.eval_profile(fam, np.array([1.0]))[0],
                               0.5801184628892576, rtol=1e-12)


def test_profile_limits_and_complement():
    fam = trial.normalize_profile("rational_power", a=2.0, p=0.7)
    t = np.geomspace(1e-8, 1e8, 40)
    f = trial.eval_profile(fam, t)
    omf = trial.one_minus_profile(fam, t)
    assert f[0] > 1.0 - 1e-14 and f[-1] < 1e-10
    assert np.all((f >= 0.0) & (f <= 1.0))
    assert np.all(np.diff(f) <= 0.0)
    np.testing.assert_allclose(f + omf, 1.0, atol=1e-15)
    # complement form keeps precision where 1 - f underflows
    tiny = np.array([1e-12])
    assert trial.one_minus_profile(fam, tiny)[0] > 0.0


def test_indicator_profile():
    fam = trial.normalize_profile("indicator")
    t = np.array([0.0, 0.5, 1.0, 1.0000001, 7.0])
    np.testing.assert_array_equal(trial.eval_profile(fam, t), [1.0, 1.0, 1.0, 0.0, 0.0])
    np.testing.assert_array_equal(trial.one_minus_profile(fam, t), [0.0, 0.0, 0.0, 1.0, 1.0])


def test_profile_constraint_violations():
    with pytest.raises(trial.ConstraintViolationError):
        trial.normalize_profile("rational_power", a=-1.0, p=0.5)
    with pytest.raises(trial.ConstraintViolationError):
        trial.normalize_profile("rational_power", a=1.0, p=0.5)  # 2pa = 1
    with pytest.raises(trial.ConstraintViolationError):
        trial.normalize_profile("deficit_optimal", a=1.0)  # needs a > 1
    with pytest.raises(trial.ConstraintViolationError):
        trial.normalize_profile("rational_power", a=100.0, p=0.005001)  # mu overflows
    with pytest.raises(ValueError):
        trial.normalize_profile("spline")


def test_bump_poly_constant_overflow_is_a_constraint_violation():
    # q = 1e-300 puts log c near 1381, past exp's range
    with pytest.raises(trial.ConstraintViolationError, match="log c"):
        trial.normalize_weight("bump_poly", q=1e-300, r=2.0)


def test_weight_normalization_constants():
    assert trial.normalize_weight("bump_simple").c == 5.0
    assert trial.normalize_weight("uniform").c == 1.0
    np.testing.assert_allclose(trial.normalize_weight("bump_poly", q=2.0, r=4.0).c,
                               C_POLY_24, rtol=1e-13)
    np.testing.assert_allclose(trial.normalize_weight("bump_rich", q=0.36, r=2.1).c,
                               C_RICH, rtol=1e-9)


@pytest.mark.parametrize("kind,kwargs", [
    ("bump_simple", {}),
    ("uniform", {}),
    ("bump_poly", {"q": 2.0, "r": 4.0}),
    ("bump_poly", {"q": 0.7, "r": 1.3}),
    ("bump_rich", {"q": 0.36, "r": 2.1}),
    ("bump_rich", {"q": 1.8, "r": 0.9}),
])
def test_weight_unit_mass(kind, kwargs):
    w = trial.normalize_weight(kind, **kwargs)
    res = quad.integrate(lambda s: trial.eval_weight(w, s))
    assert res.converged
    np.testing.assert_allclose(res.value, 1.0, atol=1e-9)


def test_weight_supported_on_unit_interval():
    w = trial.normalize_weight("bump_simple")
    vals = trial.eval_weight(w, np.array([-0.5, 0.0, 0.3, 1.0, 1.5]))
    assert vals[0] == 0.0 and vals[4] == 0.0
    assert np.all(vals >= 0.0)


def test_bump_simple_in_one_buffer():
    # 5 (1 - u^(1/4)) is written into one output array, bitwise equal to the
    # expression with temporaries, scalars and non-finite t included
    w = trial.normalize_weight("bump_simple")
    tail_nodes = quad.graded_tails()[0]
    specials = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 1e-300, 0.3])
    for t in (tail_nodes, np.linspace(-0.5, 1.5, 2001), specials, *specials):
        t = np.asarray(t, dtype=float)
        want = np.where((t >= 0.0) & (t <= 1.0), 5.0 * (1.0 - np.clip(t, 0.0, 1.0) ** 0.25), 0.0)
        got = trial.eval_weight(w, t)
        assert isinstance(got, np.ndarray) and got.shape == t.shape
        assert got.tobytes() == want.tobytes()
    tracemalloc.start()
    try:
        trial.eval_weight(w, tail_nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * tail_nodes.nbytes, peak  # one output array and the mask



def test_bump_rich_on_the_graded_rule_forms_its_powers_once():
    # normalize_weight takes the mass from (1 - s^q)^r on the rule's nodes, and
    # eval_weight on those same nodes reuses it, bitwise equal to the full path
    nodes = quad.graded_rule()[0]
    for q, r in ((0.42, 1.8), (0.05, 10.0), (3.0, 0.5)):
        trial._bump_on_rule.cache_clear()
        w = trial.normalize_weight("bump_rich", q=q, r=r)
        got = trial.eval_weight(w, nodes)
        assert trial._bump_on_rule.cache_info()[:2] == (1, 1)  # one hit, one miss
        assert got.tobytes() == trial.eval_weight(w, nodes.copy()).tobytes()
        unnormalized = trial.eval_weight(trial.WeightFamily(kind="bump_rich", q=q, r=r, c=1.0), nodes.copy())
        assert w.c == 1.0 / float(quad.graded_rule()[1] @ unnormalized)
