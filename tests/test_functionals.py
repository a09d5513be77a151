import importlib
import math
import pkgutil
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sci

import ltbounds
from ltbounds import constants, functionals, quad, trial

P11 = functionals.ProblemSpec(d=1, sigma=1.0)
P3HALF = functionals.ProblemSpec(d=3, sigma=0.5)

# frozen values, cross-checked against independent adaptive quadrature
C_SIMPLE = 0.3813773716772532    # deficit-optimal profile, bump_simple weight, (1, 1)
C_RICH = 0.3735546490692244      # (a, p) = (4.5, 0.25), bump_rich (0.36, 2.1), (1, 1)
C_FRACTIONAL = 0.04673623537366185  # (10, 0.25), bump_poly (2, 4), (3, 1/2)


def test_problem_spec_validation():
    assert functionals.ProblemSpec(d=3, sigma=0.5).tau == 3.0
    with pytest.raises(ValueError):
        functionals.ProblemSpec(d=0, sigma=1.0)
    with pytest.raises(ValueError):
        functionals.ProblemSpec(d=2, sigma=-1.0)
    with pytest.raises(ValueError):
        functionals.ProblemSpec(d=2, sigma=math.inf)
    for d, sigma in ((10**400, 1.0), (3, 5e-324)):  # tau overflows
        with pytest.raises(ValueError, match="tau"):
            functionals.ProblemSpec(d=d, sigma=sigma)


@pytest.mark.parametrize("beta", [1.5, 2.0, 4.0])
def test_deficit_functional_attains_closed_form(beta):
    """At the closed-form minimizer the functional equals tau * min J_beta."""
    fam = trial.normalize_profile("deficit_optimal", a=beta)
    problem = functionals.ProblemSpec(d=1, sigma=1.0 / (2.0 * (beta - 1.0)))
    value = functionals.deficit_functional(fam, problem)
    want = problem.tau * constants.deficit_min(beta).value
    np.testing.assert_allclose(value, want, rtol=1e-10)


def test_weighted_deficit_against_independent_quadrature():
    fam = trial.normalize_profile("rational_power", a=2.0, p=1.0)

    def integrand(t, beta):
        return float(trial.one_minus_profile(fam, np.array([t]))[0]) ** 2 * t**-beta

    for beta in (1.2, 1.5, 2.5):
        want, err = sci.quad(integrand, 0.0, math.inf, args=(beta,), limit=400)
        got = functionals.weighted_deficit(fam, beta)
        np.testing.assert_allclose(got, want, rtol=1e-8)


def test_weighted_deficit_dominated_by_minimum():
    # optimality of the closed form: every admissible family sits above it
    for beta in (1.5, 2.0, 3.0):
        floor = constants.deficit_min(beta).value
        for a in (1.2, 2.0, 3.5):
            for p in (0.6, 1.0, 1.6):
                fam = trial.normalize_profile("rational_power", a=a, p=p)
                if 2.0 * a <= beta - 1.0:
                    continue
                assert functionals.weighted_deficit(fam, beta) >= floor - 1e-12


def test_weighted_deficit_divergence_guards():
    fam = trial.normalize_profile("rational_power", a=0.7, p=1.0)
    with pytest.raises(functionals.DivergentError):
        functionals.weighted_deficit(fam, 2.5)  # 2a = 1.4 <= beta - 1
    with pytest.raises(functionals.DivergentError):
        functionals.weighted_deficit(fam, 1.0)  # beta must exceed 1


def test_tau_below_float_spacing_of_one_is_divergent():
    # tau = 5e-17 rounds 1 + tau to 1.0: the deficit weight t^-1 is not integrable
    problem = functionals.ProblemSpec(1, 1e16)
    assert 1.0 + problem.tau == 1.0
    fam = trial.normalize_profile("rational_power", a=4.0, p=0.25)
    with pytest.raises(functionals.DivergentError, match="averaging objective"):
        functionals.averaging_objective(fam, trial.normalize_weight("bump_poly", q=2.0, r=4.0), problem)
    with pytest.raises(functionals.DivergentError, match="weighted deficit"):
        functionals.deficit_functional(fam, problem)


def test_blown_quadrature_budget_names_the_functional():
    spec = quad.QuadSpec(abs_tol=1e-300, rel_tol=0.0, max_subdivisions=1)
    fam = trial.normalize_profile("rational_power", a=4.5, p=0.25)
    with pytest.raises(functionals.DivergentError, match="weighted deficit quadrature did not converge"):
        functionals.weighted_deficit(fam, 2.0, spec)
    with pytest.raises(functionals.DivergentError, match="averaging objective quadrature did not converge"):
        functionals.averaging_objective(fam, trial.normalize_weight("uniform"), P11, spec)


def _one_minus_g_mpmath(fam, w, t):
    """1 - g(t) = int_0^1 phi(s) (1 - f(s t)) ds at 30 digits, split where f(s t) turns over."""
    with mpmath.workdps(30):
        a, p, mu, c, q, r = (mpmath.mpf(v) for v in (fam.a, fam.p, fam.mu, w.c, w.q, w.r))
        t = mpmath.mpf(t)

        def integrand(s):
            phi = c * (1 - s**q) ** r / ((1 + s) if w.kind == "bump_rich" else 1)
            return phi * -mpmath.expm1(-p * mpmath.log1p(mu * (s * t) ** a))

        return float(mpmath.quad(integrand, [0, min(mpmath.mpf(0.5), mu ** (-1 / a) / t), 1]))


def test_graded_inner_rule_matches_mpmath():
    # the objective's graded 1 - g against 30-digit mpmath, both trials, out to t = 1e6
    pairs = [
        (trial.normalize_profile("rational_power", a=4.5, p=0.25),
         trial.normalize_weight("bump_rich", q=0.36, r=2.1)),
        (trial.normalize_profile("rational_power", a=10.0, p=0.25),
         trial.normalize_weight("bump_poly", q=2.0, r=4.0)),
    ]
    ts = np.array([0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 49.0, 1e3, 1e6])
    nodes, weights = quad.graded_rule(quad.DEFAULT_SPEC)
    for fam, w in pairs:
        wphi = weights * trial.eval_weight(w, nodes)
        graded = functionals._one_minus_g_factory(fam, quad.DEFAULT_SPEC, wphi)(ts)
        want = [_one_minus_g_mpmath(fam, w, t) for t in ts]
        np.testing.assert_allclose(graded, want, rtol=0, atol=quad.DEFAULT_SPEC.abs_tol, err_msg=w.kind)
    assert nodes.size == 1350
    assert not nodes.flags.writeable and not weights.flags.writeable
    assert quad.graded_rule()[0] is nodes


@pytest.mark.parametrize("a", [1.1, 5.2, 12.0, 20.0])
def test_factored_inner_power_matches_direct(a):
    # (mu s^a) t^a against mu (s t)^a; at a = 20 the smallest s^a underflows,
    # and a t with t^a = inf takes the direct path
    fam = trial.normalize_profile("rational_power", a=a, p=0.5)
    w = trial.normalize_weight("bump_rich", q=0.36, r=2.1)
    ts = np.concatenate((np.logspace(-300, 305, 243), [np.inf]))
    for abs_tol in (1e-7, 1e-11, 1e-15):
        spec = quad.QuadSpec(abs_tol=abs_tol)
        nodes, weights = quad.graded_rule(spec)
        wphi = weights * trial.eval_weight(w, nodes)
        one_minus_g = functionals._one_minus_g_factory(fam, spec, wphi)
        factored = np.array([one_minus_g(t)[0] for t in ts])  # one t per batch
        direct = wphi @ trial.one_minus_profile(fam, nodes[:, None] * ts[None, :])
        assert np.isfinite(factored).all() and np.isfinite(direct).all()
        np.testing.assert_allclose(factored, direct, rtol=0, atol=1e-15)


def test_inner_batches_reuse_one_buffer():
    # a fresh 1350 x 15 array per batch lets malloc hand its pages back to the
    # kernel, and every later batch faults them in again
    fam = trial.normalize_profile("rational_power", a=4.5, p=0.25)
    w = trial.normalize_weight("bump_rich", q=0.36, r=2.1)
    nodes, weights = quad.graded_rule(quad.DEFAULT_SPEC)
    one_minus_g = functionals._one_minus_g_factory(fam, quad.DEFAULT_SPEC, weights * trial.eval_weight(w, nodes))
    t = np.linspace(0.1, 3.0, 15)
    first = one_minus_g(t)
    tracemalloc.start()
    try:
        again = one_minus_g(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(again, first)
    assert peak < nodes.size * t.size * 8 // 4, peak


def _full_rule_one_minus_g(fam, wphi, ts, exact_sum=True):
    """1 - g over every row of the graded rule: wphi @ (1 - f(s t)) for a batch
    in which t^a overflows, as the factory takes it, else the sum of wphi
    (1 - f) at x = (mu s^a) t^a, column by column with math.fsum unless
    exact_sum is false.  A matrix product adds the ~580 tiny s -> 1 terms of a
    column to a large partial sum, which on some columns costs 2.4e-15."""
    nodes = quad.graded_rule(quad.DEFAULT_SPEC)[0]
    with np.errstate(over="ignore"):
        t_a = ts**fam.a
        if not np.isfinite(t_a).all():
            return wphi @ trial.one_minus_profile(fam, nodes[:, None] * ts[None, :])
    terms = trial.one_minus_rational(fam.p, np.multiply.outer(fam.mu * nodes**fam.a, t_a))
    if not exact_sum:
        return wphi @ terms
    return np.array([math.fsum(column) for column in (wphi[:, None] * terms).T])


@settings(max_examples=300, deadline=None)
@given(a=st.floats(1.1, 400.0), p_frac=st.floats(0.0, 1.0), kind=st.sampled_from(trial.WEIGHT_KINDS),
       q=st.floats(0.05, 3.0), r=st.floats(0.5, 10.0),
       us=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=15))
def test_compressed_inner_rule_matches_full_rule(a, p_frac, kind, q, r, us):
    # the s -> 1 rows folded into Gauss rows against the sum over all 1,350 rows
    p_lo = max(0.05, 0.55 / a)
    p = p_lo * (100.0 / p_lo) ** p_frac
    fam = trial.normalize_profile("rational_power", a=a, p=p)
    parametric = kind in ("bump_rich", "bump_poly")
    w = trial.normalize_weight(kind, q=q if parametric else None, r=r if parametric else None)
    nodes, weights = quad.graded_rule(quad.DEFAULT_SPEC)
    wphi = weights * trial.eval_weight(w, nodes)
    ts = fam.mu ** (-1.0 / a) * 10.0 ** np.array(us)
    got = functionals._one_minus_g_factory(fam, quad.DEFAULT_SPEC, wphi)(ts)
    # atol: near the subnormal range x = mu s^a t^a keeps an absolute error of
    # 2^-1074 per row, so a relative test says nothing about 1 - g < 1e-300
    np.testing.assert_allclose(got, _full_rule_one_minus_g(fam, wphi, ts), rtol=2e-15, atol=1e-300)


def test_compressed_inner_rule_falls_back_to_full_rows():
    nodes, weights = quad.graded_rule(quad.DEFAULT_SPEC)
    ts = np.logspace(-2, 2, 15)
    # at p = 1e16 delta_0 ~ 9e-16 leaves one row in the suffix, fewer than 2M
    fam = trial.normalize_profile("rational_power", a=2.0, p=1e16)
    assert nodes.size - np.searchsorted(nodes**fam.a, 1.0 - functionals._suffix_width(fam.p)) < 8
    wphi = weights * trial.eval_weight(trial.normalize_weight("uniform"), nodes)
    one_minus_g = functionals._one_minus_g_factory(fam, quad.DEFAULT_SPEC, wphi)
    np.testing.assert_array_equal(one_minus_g(ts), _full_rule_one_minus_g(fam, wphi, ts, exact_sum=False))
    # a weight with no mass on the suffix: Lanczos breaks down at its first step
    fam = trial.normalize_profile("rational_power", a=5.2, p=0.31)
    wphi = np.where(nodes < 0.99, wphi, 0.0)
    one_minus_g = functionals._one_minus_g_factory(fam, quad.DEFAULT_SPEC, wphi)
    np.testing.assert_array_equal(one_minus_g(ts), _full_rule_one_minus_g(fam, wphi, ts, exact_sum=False))


def test_compressed_inner_rows_at_criterion_5_start(monkeypatch):
    # one batch of 15 outer nodes multiplies <= 830 rows instead of 1,350
    sizes = []

    def counting(p, x, out=None):
        sizes.append(x.shape)
        return one_minus_rational(p, x, out=out)

    one_minus_rational = functionals.one_minus_rational
    monkeypatch.setattr(functionals, "one_minus_rational", counting)
    fam = trial.normalize_profile("rational_power", a=5.2, p=0.31)
    functionals.averaging_objective(fam, trial.normalize_weight("bump_rich", q=0.42, r=1.8), P11)
    assert sizes and all(cols == 15 and rows * cols <= 830 * 15 for rows, cols in sizes)


@pytest.mark.parametrize("q, r", [(0.05, 0.5), (0.05, 10.0), (3.0, 0.5), (3.0, 10.0),
                                  (0.36, 2.1), (0.42, 1.8)])
def test_weight_integrals_against_mpmath(q, r):
    # the optimizer's (q, r) box corners and the two paper trials, 30 digits
    with mpmath.workdps(30):
        qm, rm = mpmath.mpf(q), mpmath.mpf(r)
        c_rich = 1 / mpmath.quad(lambda s: (1 - s**qm) ** rm / (1 + s), [0, 1])
        l2_rich = c_rich**2 * mpmath.quad(lambda s: (1 - s**qm) ** (2 * rm) / (1 + s) ** 2, [0, 1])
        poly_mass = mpmath.beta(1 / qm, 2 * rm + 1) / qm
    rich = trial.normalize_weight("bump_rich", q=q, r=r)
    np.testing.assert_allclose(rich.c, float(c_rich), rtol=1e-13)
    np.testing.assert_allclose(functionals.weight_l2(rich), float(l2_rich), rtol=1e-13)
    poly = trial.normalize_weight("bump_poly", q=q, r=r)
    np.testing.assert_allclose(functionals.weight_l2(poly), float(poly.c**2 * poly_mass), rtol=1e-13)


def test_weight_l2_values():
    # int (5(1 - t^(1/4)))^2 = 25 (1 - 8/5 + 2/3) = 5/3; uniform = 1
    np.testing.assert_allclose(functionals.weight_l2(trial.normalize_weight("bump_simple")),
                               5.0 / 3.0, rtol=1e-13)
    np.testing.assert_allclose(functionals.weight_l2(trial.normalize_weight("uniform")),
                               1.0, rtol=1e-12)


def test_averaging_objective_frozen_trials():
    simple = functionals.averaging_objective(
        trial.normalize_profile("deficit_optimal", a=1.5),
        trial.normalize_weight("bump_simple"), P11)
    np.testing.assert_allclose(simple, C_SIMPLE, atol=1e-9)

    rich = functionals.averaging_objective(
        trial.normalize_profile("rational_power", a=4.5, p=0.25),
        trial.normalize_weight("bump_rich", q=0.36, r=2.1), P11)
    np.testing.assert_allclose(rich, C_RICH, atol=1e-9)

    frac = functionals.averaging_objective(
        trial.normalize_profile("rational_power", a=10.0, p=0.25),
        trial.normalize_weight("bump_poly", q=2.0, r=4.0), P3HALF)
    np.testing.assert_allclose(frac, C_FRACTIONAL, atol=1e-9)


INDICATOR = trial.normalize_profile("indicator")
# tau = 0.0005, 1/2, 3 and 40
TAU_PROBLEMS = [functionals.ProblemSpec(1, 1000.0), P11, P3HALF, functionals.ProblemSpec(1, 0.0125)]


def test_averaging_objective_indicator_uniform_exact():
    # piecewise-polynomial case with a closed form: 2/((tau + 1)(tau + 2)), 8/15 at (1, 1)
    for problem in TAU_PROBLEMS[1:]:
        value = functionals.averaging_objective(INDICATOR, trial.normalize_weight("uniform"), problem)
        tau = problem.tau
        np.testing.assert_allclose(value, 2.0 / ((tau + 1.0) * (tau + 2.0)), rtol=1e-13, err_msg=repr(problem))


def _indicator_c(tail, l2, tau):
    """The indicator objective from its definition with T(x) = int_x^1 phi:
    l2^tau tau int_0^1 T(x)^2 x^(tau-1) dx, in y = x^tau for small tau."""
    if tau <= 0.05:
        return l2**tau * mpmath.quad(lambda y: tail(y ** (1 / tau)) ** 2, [0, 1])
    return l2**tau * tau * mpmath.quad(lambda x: tail(x) ** 2 * x ** (tau - 1), [0, 1])


@pytest.mark.parametrize("problem", TAU_PROBLEMS, ids=lambda p: f"tau={p.tau:g}")
def test_averaging_objective_indicator_against_mpmath(problem):
    # bump_simple: T = 1 - 5x + 4x^(5/4); bump_poly: T = (c/q) B_(1 - x^q)(r + 1, 1/q),
    # the complement of betainc(1/q, r + 1, x^q, 1), which cancels near x = 1.
    # c is the weight's own: C grows like c^(2 tau + 2), so at tau = 40 the last
    # digits of a normalization constant would move C by 1e-12
    weights = [trial.normalize_weight("bump_simple")]
    weights += [trial.normalize_weight("bump_poly", q=q, r=r) for q in (0.05, 3.0) for r in (0.5, 10.0)]
    with mpmath.workdps(30):
        tau = mpmath.mpf(problem.tau)
        for w in weights:
            if w.kind == "bump_simple":
                want = _indicator_c(lambda x: 1 - 5 * x + 4 * x ** mpmath.mpf(1.25), mpmath.mpf(5) / 3, tau)
            else:
                c, q, r = (mpmath.mpf(v) for v in (w.c, w.q, w.r))
                want = _indicator_c(lambda x: c / q * mpmath.betainc(r + 1, 1 / q, 0, -mpmath.expm1(q * mpmath.log(x))),
                                    c**2 * mpmath.beta(1 / q, 2 * r + 1) / q, tau)
            got = functionals.averaging_objective(INDICATOR, w, problem)
            np.testing.assert_allclose(got, float(want), rtol=1e-13, err_msg=repr(w))


def _tanh_sinh(h=1.0 / 32.0, t_max=4.5):
    """Double-exponential rule on (0, 1) -> (x, 1 - x, weights), both ends kept exact."""
    t = np.arange(-t_max, t_max + 0.5 * h, h)
    u = 0.5 * np.pi * np.sinh(t)
    return 1.0 / (1.0 + np.exp(-2.0 * u)), 1.0 / (1.0 + np.exp(2.0 * u)), h * 0.25 * np.pi * np.cosh(t) / np.cosh(u) ** 2


def _indicator_c_rich(w, tau):
    """l2^tau int_0^1 T(y^(1/tau))^2 dy for bump_rich by tanh-sinh in y and in s on [x, 1];
    agrees with the mpmath reference above to 1.5e-14 when run on bump_poly."""
    left, right, dw = _tanh_sinh()

    def phi(x, xc):
        with np.errstate(divide="ignore"):
            lx = np.where(x < 0.5, np.log(x), np.log1p(-xc))
        return w.c * (-np.expm1(w.q * lx)) ** w.r / (1.0 + x)

    with np.errstate(divide="ignore"):
        ly = np.where(left < 0.5, np.log(left), np.log1p(-right))[:, None]
    x, xc = np.exp(ly / tau), -np.expm1(ly / tau)  # x = y^(1/tau) and 1 - x
    tail = xc[:, 0] * (phi(x + xc * left, xc * right) @ dw)
    return (phi(left, right) ** 2 @ dw) ** tau * (tail**2 @ dw)


@pytest.mark.parametrize("q, r", [(0.05, 0.5), (0.05, 10.0), (3.0, 0.5), (3.0, 10.0), (0.36, 2.1)])
def test_averaging_objective_indicator_bump_rich(q, r):
    w = trial.normalize_weight("bump_rich", q=q, r=r)
    for problem in TAU_PROBLEMS:
        got = functionals.averaging_objective(INDICATOR, w, problem)
        np.testing.assert_allclose(got, _indicator_c_rich(w, problem.tau), rtol=1e-13, err_msg=repr(problem))


def test_indicator_objective_calls_no_adaptive_integral(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return integrate(*args, **kwargs)

    integrate = quad.integrate
    monkeypatch.setattr(quad, "integrate", counting)
    for kind, q, r in (("uniform", None, None), ("bump_simple", None, None),
                       ("bump_poly", 2.0, 4.0), ("bump_rich", 0.36, 2.1)):
        functionals.averaging_objective(INDICATOR, trial.normalize_weight(kind, q=q, r=r), P3HALF)
    assert calls == []
    functionals.averaging_objective(trial.normalize_profile("rational_power", a=4.5, p=0.25),
                                    trial.normalize_weight("uniform"), P11)
    assert len(calls) == 2  # the wrapper sees the smooth path's near and far integrals
    calls.clear()
    functionals.weighted_deficit(trial.normalize_profile("rational_power", a=4.5, p=0.25), 2.0)
    assert len(calls) == 2  # the same two


def test_every_export_resolves():
    modules = [ltbounds] + [importlib.import_module(f"ltbounds.{info.name}")
                            for info in pkgutil.iter_modules(ltbounds.__path__) if info.name != "__main__"]
    for module in modules:
        stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert stale == [], module.__name__


def test_averaging_objective_inadmissible_profile():
    fam = trial.normalize_profile("rational_power", a=0.7, p=1.0)
    with pytest.raises(functionals.DivergentError):
        functionals.averaging_objective(fam, trial.normalize_weight("uniform"), P3HALF)


def test_averaging_objective_random_pairs_respect_floor():
    # small version of the acceptance sweep: objective never drops below 1/3
    rng = np.random.default_rng(7)
    tau = P11.tau
    for _ in range(10):
        a = rng.uniform(tau / 2.0 + 0.1, 6.0)
        p = rng.uniform(max(0.55 / a, 0.05), 2.5)
        fam = trial.normalize_profile("rational_power", a=a, p=p)
        w = trial.normalize_weight("bump_poly", q=rng.uniform(0.2, 2.0), r=rng.uniform(0.6, 5.0))
        assert functionals.averaging_objective(fam, w, P11) >= 1.0 / 3.0 - 1e-6


def test_averaging_objective_quad_spec_passthrough():
    fam = trial.normalize_profile("rational_power", a=4.5, p=0.25)
    w = trial.normalize_weight("bump_rich", q=0.36, r=2.1)
    loose = functionals.averaging_objective(fam, w, P11, quad.QuadSpec(abs_tol=1e-7, rel_tol=1e-6))
    np.testing.assert_allclose(loose, C_RICH, atol=1e-5)
