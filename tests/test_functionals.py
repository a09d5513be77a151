import importlib
import math
import pkgutil
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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


def _mellin_deficit(fam, beta):
    """J_beta of a rational_power profile in closed form at 40 digits: with x = mu t^a,
    J = mu^(-s) M(s) / a for s = (1 - beta)/a, where M(s) = Gamma(s) [Gamma(2p - s)/Gamma(2p)
    - 2 Gamma(p - s)/Gamma(p)] is the Mellin transform of (1 - (1 + x)^(-p))^2 on -2 < s < 0,
    exactly the admissible strip 2a > beta - 1."""
    with mpmath.workdps(40):
        a, p, mu = (mpmath.mpf(v) for v in (fam.a, fam.p, fam.mu))
        s = (1 - mpmath.mpf(beta)) / a
        gammas = mpmath.gamma(2 * p - s) / mpmath.gamma(2 * p) - 2 * mpmath.gamma(p - s) / mpmath.gamma(p)
        return float(mu ** (-s) * mpmath.gamma(s) * gammas / a)


def _mellin_grid(taus):
    """(tau, a, p) with margin 2a + 1 - beta in {0.05 .. 2.5}, beta = 1 + tau, skipping
    2pa <= 1 (no normalized profile) and integer s (poles of Gamma)."""
    cases = []
    for tau in taus:
        for margin in (0.05, 0.1, 0.2, 0.5, 1.0, 2.5):
            a = (tau + margin) / 2.0
            s = -tau / a
            for p in (0.05, 0.7, 2.9):
                if 2.0 * p * a > 1.0 and s != round(s):
                    cases.append((tau, a, p))
    return cases


@pytest.mark.parametrize("tau, a, p", _mellin_grid((0.5, 1.5, 3.0)))
def test_weighted_deficit_against_mellin_closed_form(tau, a, p):
    # next to the admissibility edge the near half's integrand was t^(2a - beta),
    # singular at t = 0: 6 of these 31 cases raised NonFiniteIntegrandError and
    # 9 came out up to 7.2e-10 off; mapped through t = u^n all are within 2e-13
    fam = trial.normalize_profile("rational_power", a=a, p=p)
    np.testing.assert_allclose(functionals.weighted_deficit(fam, 1.0 + tau), _mellin_deficit(fam, 1.0 + tau),
                               rtol=1e-10)
    # the averaging objective runs the same integral over 1 - g: finite, no RuntimeWarning
    problem = functionals.ProblemSpec(1, 0.5 / tau)
    c = functionals.averaging_objective(fam, trial.normalize_weight("bump_rich", q=0.36, r=2.1), problem)
    assert math.isfinite(c) and c > 0.0


@pytest.mark.parametrize("tau, a, p", _mellin_grid((15.0, 40.0)))
def test_weighted_deficit_at_large_tau_against_mellin_closed_form(tau, a, p):
    # at margin 0.2 and below, t^a underflows where t^(-beta) is still huge; the
    # near half takes 1 - f as its power law there.  Read as 0, that 1 - f made
    # 13 of these 30 cases blow the subdivision budget and 2 (tau = 15, margin
    # 0.2) converge 3.2e-9 off; before the map, 20 raised NonFiniteIntegrandError
    fam = trial.normalize_profile("rational_power", a=a, p=p)
    np.testing.assert_allclose(functionals.weighted_deficit(fam, 1.0 + tau), _mellin_deficit(fam, 1.0 + tau),
                               rtol=1e-10)


@pytest.mark.parametrize("beta, rtol", [(1.5, 1e-14), (2.0, 1e-14), (4.0, 1e-14), (41.0, 1e-14), (1.0001, 1e-11)])
def test_weighted_deficit_of_indicator_is_exact(beta, rtol):
    # 1 - f is 0 on (0, 1), so the near half is log 0 -> 0 at every node, and 1 on
    # (1, inf), where the far half integrates m y^(m (beta - 1) - 1) to 1/(beta - 1)
    fam = trial.normalize_profile("indicator")
    np.testing.assert_allclose(functionals.weighted_deficit(fam, beta), 1.0 / (beta - 1.0), rtol=rtol)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tau_frac=st.floats(0.0, 1.0), margin_frac=st.floats(0.0, 1.0), p_frac=st.floats(0.0, 1.0))
@example(tau_frac=0.0, margin_frac=1.0, p_frac=0.5)  # n = 1, m = 4
@example(tau_frac=1.0, margin_frac=0.0, p_frac=1.0)  # n = 40, m = 1, deep nodes
def test_weighted_deficit_matches_mellin_closed_form(tau_frac, margin_frac, p_frac):
    # log-uniform tau in [0.5, 40], margin 2a + 1 - beta in [0.05, 4], p in [max(0.05, 0.55/a), 3]:
    # n = 1 and n > 1, m = 1 and m > 1, and the near half's power law below t_deep
    tau = 0.5 * 80.0**tau_frac
    a = (tau + 0.05 * 80.0**margin_frac) / 2.0
    p_lo = max(0.05, 0.55 / a)
    p = p_lo * (3.0 / p_lo) ** p_frac
    s = -tau / a
    assume(abs(s - round(s)) >= 1e-3)  # next to a pole of Gamma(s)
    fam = trial.normalize_profile("rational_power", a=a, p=p)
    np.testing.assert_allclose(functionals.weighted_deficit(fam, 1.0 + tau), _mellin_deficit(fam, 1.0 + tau),
                               rtol=1e-10)


def test_non_finite_integrand_is_divergent():
    # Nelder-Mead penalizes a DivergentError; a quad.NonFiniteIntegrandError would end the run
    for a in (1.5, 0.75):  # the near half with n = 1, and with n = 2 / (2a - 1) = 4
        with pytest.raises(functionals.DivergentError, match="weighted deficit: integrand non-finite"):
            functionals._deficit_integral(lambda t: np.full_like(t, np.nan), a, 2.0, "weighted deficit")


# the two certify pairs of seed 1 that were furthest off their tight-tolerance
# values (8.9e-10 and 8.8e-10) with the near half integrated in t
CERTIFY_EDGE_PAIRS = [
    (("rational_power", 1.7168570511160532, 2.8261171683006974),
     ("bump_poly", 0.9351581250207206, 2.444853372167623)),
    (("deficit_optimal", 1.6312040458539316, None),
     ("bump_rich", 1.6497301493798748, 4.487510670946943)),
]


@pytest.mark.parametrize("profile, weight", CERTIFY_EDGE_PAIRS, ids=lambda v: v[0])
def test_certify_edge_pairs_against_tight_tolerance(monkeypatch, profile, weight):
    fam = trial.normalize_profile(profile[0], a=profile[1], p=profile[2])
    w = trial.normalize_weight(*weight)
    calls = []

    def counting(func):
        count = len(calls)
        calls.append(0)

        def counted(t):
            calls[count] += 1
            return func(t)
        return integrate(counted)

    integrate = quad.integrate
    monkeypatch.setattr(quad, "integrate", counting)
    c = functionals.averaging_objective(fam, w, P3HALF)
    assert len(calls) == 1 and calls[0] <= 3, calls  # near and far halves in one integral
    monkeypatch.setattr(quad, "integrate", integrate)
    monkeypatch.setattr(quad, "_ABS_TOL", 1e-300)
    monkeypatch.setattr(quad, "_REL_TOL", 1e-14)
    monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", 100_000)
    np.testing.assert_allclose(c, functionals.averaging_objective(fam, w, P3HALF), rtol=1e-10)


def test_tau_below_float_spacing_of_one_is_divergent():
    # tau = 5e-17 rounds 1 + tau to 1.0: the deficit weight t^-1 is not integrable
    problem = functionals.ProblemSpec(1, 1e16)
    assert 1.0 + problem.tau == 1.0
    fam = trial.normalize_profile("rational_power", a=4.0, p=0.25)
    with pytest.raises(functionals.DivergentError, match="averaging objective"):
        functionals.averaging_objective(fam, trial.normalize_weight("bump_poly", q=2.0, r=4.0), problem)
    with pytest.raises(functionals.DivergentError, match="weighted deficit"):
        functionals.deficit_functional(fam, problem)


def test_blown_quadrature_budget_names_the_functional(monkeypatch):
    monkeypatch.setattr(quad, "_ABS_TOL", 1e-300)
    monkeypatch.setattr(quad, "_REL_TOL", 0.0)
    monkeypatch.setattr(quad, "_MAX_SUBDIVISIONS", 1)
    fam = trial.normalize_profile("rational_power", a=4.5, p=0.25)
    with pytest.raises(functionals.DivergentError, match="weighted deficit quadrature did not converge"):
        functionals.weighted_deficit(fam, 2.0)
    with pytest.raises(functionals.DivergentError, match="averaging objective quadrature did not converge"):
        functionals.averaging_objective(fam, trial.normalize_weight("uniform"), P11)


def test_weight_the_graded_rule_cannot_carry_is_divergent():
    # (1 - s^0.05)^1e6 puts all of phi's mass below the rule's first node, where
    # the objective would read C = 0, under criterion 6's floor of 1/3, and
    # int phi^2 0.0; at r = 1000 the rule sees 0.54 of the mass and int phi^2
    # would read 3.0e29
    fam = trial.normalize_profile("rational_power", a=4.5, p=0.25)
    for r in (1e6, 1000.0):
        weight = trial.normalize_weight("bump_poly", q=0.05, r=r)
        with pytest.raises(functionals.DivergentError, match="averaging objective: the graded rule gives"):
            functionals.averaging_objective(fam, weight, P11)
        with pytest.raises(functionals.DivergentError, match="weight L2 norm: the graded rule gives"):
            functionals.weight_l2(weight)


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
    nodes, weights = quad.graded_rule()
    for fam, w in pairs:
        wphi = weights * trial.eval_weight(w, nodes)
        graded = functionals._one_minus_g_factory(fam, wphi)(ts)
        want = [_one_minus_g_mpmath(fam, w, t) for t in ts]
        np.testing.assert_allclose(graded, want, rtol=0, atol=quad._ABS_TOL, err_msg=w.kind)
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
    nodes, weights = quad.graded_rule()
    wphi = weights * trial.eval_weight(w, nodes)
    one_minus_g = functionals._one_minus_g_factory(fam, wphi)
    factored = np.array([one_minus_g(t)[0] for t in ts])  # one t per batch
    direct = wphi @ trial.one_minus_profile(fam, nodes[:, None] * ts[None, :])
    assert np.isfinite(factored).all() and np.isfinite(direct).all()
    np.testing.assert_allclose(factored, direct, rtol=0, atol=1e-15)


def test_inner_batches_reuse_one_buffer():
    # a fresh 1350 x 15 array per batch lets malloc hand its pages back to the
    # kernel, and every later batch faults them in again
    fam = trial.normalize_profile("rational_power", a=4.5, p=0.25)
    w = trial.normalize_weight("bump_rich", q=0.36, r=2.1)
    nodes, weights = quad.graded_rule()
    one_minus_g = functionals._one_minus_g_factory(fam, weights * trial.eval_weight(w, nodes))
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
    """1 - g over every row of the graded rule: wphi @ (1 - f(s t)) in the
    columns where t^a overflows, as the factory takes them, else the sum of
    wphi (1 - f) at x = (mu s^a) t^a, column by column with math.fsum unless
    exact_sum is false.  A matrix product adds the ~580 tiny s -> 1 terms of a
    column to a large partial sum, which on some columns costs 2.4e-15."""
    nodes = quad.graded_rule()[0]
    with np.errstate(over="ignore"):  # x = inf is exact here: 1 - f = 1
        t_a = ts**fam.a
        big = ~np.isfinite(t_a)
        terms = trial.one_minus_rational(fam.p, np.multiply.outer(fam.mu * nodes**fam.a, t_a[~big]))
        direct = wphi @ trial.one_minus_profile(fam, nodes[:, None] * ts[big])
    out = np.empty(ts.size)
    out[big] = direct
    out[~big] = wphi @ terms if not exact_sum else [math.fsum(c) for c in (wphi[:, None] * terms).T]
    return out


@settings(max_examples=300, deadline=None)
@given(a=st.floats(0.3, 400.0), p_frac=st.floats(0.0, 1.0), kind=st.sampled_from(list(trial.WEIGHT_KINDS)),
       q=st.floats(0.05, 3.0), r=st.floats(0.5, 10.0),
       us=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=15))
@example(a=291.0, p_frac=0.0, kind="bump_simple", q=1.0, r=1.0, us=[1.0625])  # x overflows, t^a does not
# a mixed batch: t^a overflows at u = 3 only, and the direct path would be 5e-15 off at u = -0.5625
@example(a=291.0, p_frac=0.0, kind="bump_simple", q=1.0, r=1.0, us=[1.0625, -0.5625, 3.0])
# a matrix product over each 5-column batch put 2.4e-15 into its last column
@example(a=179.15625, p_frac=0.0, kind="bump_simple", q=1.0, r=1.0, us=[0.0, 0.0, 0.0, 0.0, 0.8322732075896928])
@example(a=105.0, p_frac=1.0, kind="bump_rich", q=0.5, r=1.455786, us=[0.0, 0.0, 0.0, 0.0, 0.5])
def test_compressed_inner_rule_matches_full_rule(a, p_frac, kind, q, r, us):
    # both ends folded into series against the sum over all 1,350 rows; a
    # down to 0.3 takes in the small exponents certify scores (tau/2 + 0.1),
    # where the s -> 0 block sums rise slowest
    p_lo = max(0.05, 0.55 / a)
    p = p_lo * (100.0 / p_lo) ** p_frac
    fam = trial.normalize_profile("rational_power", a=a, p=p)
    w = trial.normalize_weight(kind, *(q, r)[:len(trial.WEIGHT_KINDS[kind])])
    nodes, weights = quad.graded_rule()
    wphi = weights * trial.eval_weight(w, nodes)
    ts = fam.mu ** (-1.0 / a) * 10.0 ** np.array(us)
    got = functionals._one_minus_g_factory(fam, wphi)(ts)
    # atol: near the subnormal range x = mu s^a t^a keeps an absolute error of
    # 2^-1074 per row, so a relative test says nothing about 1 - g < 1e-300
    np.testing.assert_allclose(got, _full_rule_one_minus_g(fam, wphi, ts), rtol=2e-15, atol=1e-300)


@pytest.mark.parametrize("shape", [(593,), (85, 16)])  # the s -> 1 rows at criterion 5; the s -> 0 blocks
def test_moments_match_fsum_of_repeated_products(shape):
    rng = np.random.default_rng(28)
    w, y = rng.random(shape), rng.random(shape)
    coef = [0.31, -0.2015, 0.15612]
    got = functionals._moments(coef, w, y)
    term = w * y
    for c, moment in zip(coef, got):
        want = [c * math.fsum(row) for row in np.atleast_2d(term)]
        np.testing.assert_allclose(np.atleast_1d(moment), want, rtol=1e-15, atol=0)
        term = term * y


def _counting_kernel(monkeypatch):
    """Patch functionals.one_minus_rational to record the shape of every (rows, t-nodes) block."""
    shapes = []
    kernel = functionals.one_minus_rational

    def counting(p, x, out=None):
        shapes.append(x.shape)
        return kernel(p, x, out=out)

    monkeypatch.setattr(functionals, "one_minus_rational", counting)
    return shapes


def _kernel_blocks(fam, ts):
    """Per node t, the blocks of _BLOCK rows the factory sends to the kernel:
    those holding the rows below the suffix start with x = mu s^a t^a above
    eps (1 - 2^-50), counted by the products themselves, the first block
    padded in front; every block where the top folded row has mu s^a below
    2^e _LEAD_MIN, 2^e the power of two above every mu s^a."""
    mu_x = fam.mu * quad.graded_rule()[0][:_suffix_start(fam)] ** fam.a
    eps_cut = functionals._series_eps(fam.p, functionals._binomials(fam.p)) * (1.0 - 2.0**-50)
    rows = np.count_nonzero(mu_x[:, None] * ts[None, :] ** fam.a > eps_cut, axis=0)
    blocks = -(-rows // functionals._BLOCK)
    folded = mu_x.size - blocks * functionals._BLOCK  # the rows below the kernel's blocks
    lead = math.ldexp(functionals._LEAD_MIN, math.frexp(mu_x[-1])[1]) if mu_x.size else 0.0
    low = (folded > 0) & (mu_x[np.maximum(folded, 1) - 1] < lead)
    return np.where(low, -(-mu_x.size // functionals._BLOCK), blocks)


def _suffix_start(fam):
    """The first row the factory folds into the s -> 1 series: d = 1 - s^a < delta_0."""
    s_a = quad.graded_rule()[0] ** fam.a
    return int(np.searchsorted(s_a - 1.0, -functionals._suffix_width(fam.p, functionals._binomials(fam.p)),
                               side="right"))


def _node_kernel_rows(fam, t_a, captured):
    """Split the kernel's captured input, blocks of mu s^a t^a over the rows
    below the suffix start padded in front to whole blocks, into the rows each
    node's own cut sent there: the last s blocks for some s per node."""
    mu_x = fam.mu * quad.graded_rule()[0][:_suffix_start(fam)] ** fam.a
    size = functionals._BLOCK
    blocks = np.concatenate((np.zeros(-mu_x.size % size), mu_x)).reshape(-1, size)
    rows = np.concatenate([x.reshape(-1, size) for x in captured]) if captured else np.zeros((0, size))
    at, kernel_rows = 0, []
    for ta in t_a:
        with np.errstate(over="ignore"):  # x = inf is what the kernel sees too
            tail = blocks * ta
        ends = [s for s in range(1, blocks.shape[0] + 1)
                if at + s <= rows.shape[0] and np.array_equal(rows[at:at + s], tail[-s:])]
        s = ends[-1] if ends and np.array_equal(rows[at + ends[-1] - 1], tail[-1]) else 0
        kernel_rows.append(s * size)
        at += s
    assert at == rows.shape[0]
    return mu_x, kernel_rows


@settings(max_examples=150, deadline=None)
@given(a=st.floats(0.6, 400.0), p_exp=st.floats(math.log10(0.05), 16.0),
       kind=st.sampled_from(list(trial.WEIGHT_KINDS)), q=st.floats(0.05, 3.0), r=st.floats(0.5, 10.0),
       log_t=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=15))
@example(a=5.2, p_exp=math.log10(0.31), kind="bump_rich", q=0.42, r=1.8, log_t=[-300.0, -3.0, 0.0, 2.0, 300.0])
@example(a=400.0, p_exp=16.0, kind="uniform", q=1.0, r=1.0, log_t=[-300.0, -1.0, 0.0, 0.7, 300.0])
@example(a=4.5, p_exp=-1.0, kind="bump_rich", q=1.0, r=1.0, log_t=[68.0])  # x overflows in the kernel
def test_per_node_cut_folds_only_small_rows(a, p_exp, kind, q, r, log_t):
    # t from 1e-300 to 1e300 in one batch, t^a overflowing at the top for a > 1.03
    p = max(10.0**p_exp, 0.55 / a)  # 2pa > 1
    fam = trial.normalize_profile("rational_power", a=a, p=p)
    w = trial.normalize_weight(kind, *(q, r)[:len(trial.WEIGHT_KINDS[kind])])
    nodes, weights = quad.graded_rule()
    _check_per_node_cut(fam, weights * trial.eval_weight(w, nodes), 10.0 ** np.array(log_t))


def test_per_node_cut_at_a_subnormal_limit():
    # at a = 24 one block's top row has mu s^a = 2.3e-314; at this t its x is
    # just above eps while eps (1 - 2^-50) / t^a, subnormal, rounds up onto it
    fam = trial.normalize_profile("rational_power", a=24.0, p=0.5)
    ts = np.array([6755728296153.329])
    top = 2.335059172e-314
    assert top in fam.mu * quad.graded_rule()[0] ** fam.a
    eps = functionals._series_eps(fam.p, functionals._binomials(fam.p))
    assert top * ts[0] ** fam.a > eps and eps * (1.0 - 2.0**-50) / ts[0] ** fam.a >= top
    nodes, weights = quad.graded_rule()
    _check_per_node_cut(fam, weights * trial.eval_weight(trial.normalize_weight("uniform"), nodes), ts)


def test_top_folded_row_below_lead_min_folds_nothing(monkeypatch):
    # at a = 100, t = 4 the cut's top folded row has mu s^a = 1.4e-91, below
    # 2^e _LEAD_MIN = 2^-300 (e = 0): the node folds nothing, and the kernel
    # takes every block below the suffix start
    shapes = _counting_kernel(monkeypatch)
    fam = trial.normalize_profile("rational_power", a=100.0, p=0.5)
    nodes, weights = quad.graded_rule()
    mu_x = fam.mu * nodes[:_suffix_start(fam)] ** fam.a
    size = functionals._BLOCK
    tops = np.concatenate((np.zeros(-mu_x.size % size), mu_x)).reshape(-1, size)[:, -1]
    ts = np.array([4.0])
    eps = functionals._series_eps(fam.p, functionals._binomials(fam.p))
    top = tops[tops * ts[0] ** fam.a <= eps].max()
    assert 0.0 < top < math.ldexp(functionals._LEAD_MIN, math.frexp(mu_x[-1])[1])
    wphi = weights * trial.eval_weight(trial.normalize_weight("bump_rich", q=0.36, r=2.1), nodes)
    got = functionals._one_minus_g_factory(fam, wphi)(ts)
    assert shapes == [(tops.size, size)]
    assert list(_kernel_blocks(fam, ts)) == [tops.size]
    np.testing.assert_allclose(got, _full_rule_one_minus_g(fam, wphi, ts), rtol=2e-15, atol=0)


def _check_per_node_cut(fam, wphi, ts):
    """Every row a node folds into the s -> 0 series has mu s^a t^a <= eps in
    floats, and the values match the sum over every row."""
    captured = []
    kernel = functionals.one_minus_rational

    def capturing(p, x, out=None):
        captured.append(x.copy())
        return kernel(p, x, out=out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(functionals, "one_minus_rational", capturing)
        got = functionals._one_minus_g_factory(fam, wphi)(ts)
    with np.errstate(over="ignore"):
        t_a = ts**fam.a
    t_a = t_a[np.isfinite(t_a)]
    mu_x, kernel_rows = _node_kernel_rows(fam, t_a, captured)
    eps = functionals._series_eps(fam.p, functionals._binomials(fam.p))
    for ta, rows in zip(t_a, kernel_rows):
        assert np.all(mu_x[:max(mu_x.size - rows, 0)] * ta <= eps), (ta, rows)
    np.testing.assert_allclose(got, _full_rule_one_minus_g(fam, wphi, ts), rtol=2e-15, atol=1e-300)


def test_compressed_inner_rule_falls_back_to_full_rows(monkeypatch):
    shapes = _counting_kernel(monkeypatch)
    nodes, weights = quad.graded_rule()
    ts = np.logspace(-2, 2, 15)
    # at p = 1e16 delta_0 ~ 3e-17 leaves no row in the suffix, so the kernel sees
    # every row from the series cut through s = 1
    fam = trial.normalize_profile("rational_power", a=2.0, p=1e16)
    assert _suffix_start(fam) == nodes.size
    wphi = weights * trial.eval_weight(trial.normalize_weight("uniform"), nodes)
    got = functionals._one_minus_g_factory(fam, wphi)(ts)
    blocks = _kernel_blocks(fam, ts)
    assert blocks.sum() * functionals._BLOCK < nodes.size * ts.size
    assert shapes == [(blocks.sum(), functionals._BLOCK)]
    np.testing.assert_allclose(got, _full_rule_one_minus_g(fam, wphi, ts), rtol=2e-15, atol=0)
    # a weight with no mass on the suffix, whose series is then 0
    fam = trial.normalize_profile("rational_power", a=5.2, p=0.31)
    wphi = np.where(nodes < 0.99, wphi, 0.0)
    got = functionals._one_minus_g_factory(fam, wphi)(ts)
    np.testing.assert_allclose(got, _full_rule_one_minus_g(fam, wphi, ts), rtol=2e-15, atol=0)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(0.6, 400.0), p_exp=st.floats(math.log10(0.05), 16.0),
       kind=st.sampled_from(list(trial.WEIGHT_KINDS)), q=st.floats(0.05, 3.0), r=st.floats(0.5, 10.0),
       log_x=st.lists(st.floats(-330.0, 312.0), min_size=1, max_size=15))
@example(a=5.2, p_exp=14.0, kind="uniform", q=1.0, r=1.0, log_x=[0.0])  # a one-row suffix
@example(a=2.0, p_exp=16.0, kind="uniform", q=1.0, r=1.0, log_x=[0.0])  # no row in the suffix
@example(a=0.6, p_exp=0.0, kind="bump_simple", q=1.0, r=1.0, log_x=[-330.0, -8.0, 0.0, 8.0, 308.5, 312.0])
def test_suffix_series_within_its_bound(a, p_exp, kind, q, r, log_x):
    # only the suffix rows carry weight, so 1 - g is the s -> 1 series alone; X =
    # mu t^a runs from 0 (t = 0) through overflow (log_x > 308.25), and where t^a
    # itself overflows the factory sums the rows directly
    p = max(10.0**p_exp, 0.55 / a)  # 2pa > 1
    fam = trial.normalize_profile("rational_power", a=a, p=p)
    w = trial.normalize_weight(kind, *(q, r)[:len(trial.WEIGHT_KINDS[kind])])
    nodes, weights = quad.graded_rule()
    start = _suffix_start(fam)
    wphi = np.where(np.arange(nodes.size) >= start, weights * trial.eval_weight(w, nodes), 0.0)
    log_t = (np.array(log_x) * math.log(10.0) - math.log(fam.mu)) / a
    ts = np.append(np.exp(np.minimum(log_t, 709.0)), 0.0)  # t itself stays finite
    exact = _full_rule_one_minus_g(fam, wphi, ts)
    np.testing.assert_allclose(functionals._one_minus_g_factory(fam, wphi)(ts), exact, rtol=2e-15, atol=1e-300)
    # the written bound, and the series terms past K that it bounds, summed until
    # they stop adding to the tail
    k_terms, delta0 = functionals._SUFFIX_TERMS, functionals._suffix_width(p, functionals._binomials(p))
    kappa = max(1.0, (p + k_terms + 1) / (k_terms + 2))
    bound = (functionals._binomials(p)[k_terms] * delta0 ** (k_terms + 1)
             / (min(1.0, p) * (1.0 - delta0) * (1.0 - kappa * delta0)))
    assert bound <= 2.0**-54
    with np.errstate(over="ignore", under="ignore"):
        x = fam.mu * ts**a
        log_b = np.log1p(x[None, :])  # log(1 + X)
        rho_d = -np.expm1(-log_b) * (1.0 - nodes[start:, None] ** a)
        term = np.ones_like(rho_d)
        for k in range(1, k_terms + 2):
            term *= (p + (k - 1)) / k * rho_d
        tail = np.zeros_like(term)
        for k in range(k_terms + 1, 10_000):
            tail += term
            term *= (p + k) / (k + 1) * rho_d
            if not (term > 1e-40 * tail).any():
                break
        dropped = wphi[start:] @ (np.exp(-p * log_b) * tail)
    assert np.all(dropped <= bound * exact), (dropped, bound * exact)


@pytest.mark.parametrize("a", [1.1, 5.2, 20.0, 99.0, 330.0, 400.0])
@pytest.mark.parametrize("p", [0.05, 0.31, 3.0, 100.0, 1e16])
def test_series_rows_across_the_float_range(a, p):
    # batches that mix t from 1e-300 to 1e300, so one cut serves columns whose
    # t^a spans the whole range or overflows; a batch with every mu t^a <= 1e-6,
    # where the series takes every row; and the two together, where t^a up to
    # 1e306 puts the cut among rows with mu s^a near 1e-310
    p = max(p, 0.55 / a)  # 2pa > 1
    fam = trial.normalize_profile("rational_power", a=a, p=p)
    nodes, weights = quad.graded_rule()
    wphi = weights * trial.eval_weight(trial.normalize_weight("bump_rich", q=0.36, r=2.1), nodes)
    one_minus_g = functionals._one_minus_g_factory(fam, wphi)
    mixed = np.random.default_rng(17).permutation(np.logspace(-300, 300, 60)).reshape(4, 15)
    huge = 10.0 ** (np.linspace(280.0, 306.0, 15) / a)
    small = (np.logspace(-40, -6, 15) / fam.mu) ** (1.0 / a)
    for ts in (*mixed, small, np.concatenate((huge, small))):
        np.testing.assert_allclose(one_minus_g(ts), _full_rule_one_minus_g(fam, wphi, ts),
                                   rtol=2e-15, atol=1e-300, err_msg=repr(ts))


def test_compressed_inner_rows_at_criterion_5_start(monkeypatch):
    # the 4 start panels are one call on 60 v-nodes, so 1 - g sees 60 near t =
    # v^n < 1 and 60 far t = v^-m > 1 at once.  Of the 1,350 rows the s -> 1
    # series takes 593; each node's own s -> 0 cut leaves the kernel 20,432
    # elements in blocks of 16 (one cut per batch of near or far nodes left it
    # 129 x 60 + 721 x 60 = 51,000)
    shapes = _counting_kernel(monkeypatch)
    batches = []
    factory = functionals._one_minus_g_factory

    def recording(fam, wphi):
        one_minus_g = factory(fam, wphi)

        def recorded(t):
            batches.append(np.array(t))
            return one_minus_g(t)
        return recorded

    monkeypatch.setattr(functionals, "_one_minus_g_factory", recording)
    fam = trial.normalize_profile("rational_power", a=5.2, p=0.31)
    functionals.averaging_objective(fam, trial.normalize_weight("bump_rich", q=0.42, r=1.8), P11)
    assert [t.size for t in batches] == [120]
    assert quad.graded_rule()[0].size - _suffix_start(fam) == 593
    blocks = _kernel_blocks(fam, batches[0]) * functionals._BLOCK  # kernel elements per node
    near, far = blocks[:60], blocks[60:]
    assert near.sum() == 6_560 and (near.min(), near.max()) == (0, 144)
    assert far.sum() == 13_872 and (far.min(), far.max()) == (144, 736)
    assert shapes == [(20_432 // functionals._BLOCK, functionals._BLOCK)]


def test_integrand_calls_at_criterion_5_start(monkeypatch):
    # near and far converge together on their 4 start panels: 1 call on 60
    # v-nodes (two integrals made 2 calls on 120 nodes)
    calls = []

    def counting(func):
        def counted(t):
            calls.append(t.size)
            return func(t)
        return integrate(counted)

    integrate = quad.integrate
    monkeypatch.setattr(quad, "integrate", counting)
    fam = trial.normalize_profile("rational_power", a=5.2, p=0.31)
    functionals.averaging_objective(fam, trial.normalize_weight("bump_rich", q=0.42, r=1.8), P11)
    assert calls == [60], calls


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

    def counting(func):
        calls.append(func)
        return integrate(func)

    integrate = quad.integrate
    monkeypatch.setattr(quad, "integrate", counting)
    for kind, q, r in (("uniform", None, None), ("bump_simple", None, None),
                       ("bump_poly", 2.0, 4.0), ("bump_rich", 0.36, 2.1)):
        functionals.averaging_objective(INDICATOR, trial.normalize_weight(kind, q=q, r=r), P3HALF)
    assert calls == []
    functionals.averaging_objective(trial.normalize_profile("rational_power", a=4.5, p=0.25),
                                    trial.normalize_weight("uniform"), P11)
    assert len(calls) == 1  # the wrapper sees the smooth path's one integral, near and far halves
    calls.clear()
    functionals.weighted_deficit(trial.normalize_profile("rational_power", a=4.5, p=0.25), 2.0)
    assert len(calls) == 1  # the same one


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

