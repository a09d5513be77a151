"""Variational functionals behind the kinetic and eigenvalue-sum bounds.

For a problem (d, sigma) put tau = d/(2 sigma).  Two functionals matter:

  weighted deficit   J_beta(f) = int_0^inf (1 - f(t))^2 t^(-beta) dt
  deficit functional A(f)      = tau * J_{1+tau}(f)

and the averaged variant, where the profile is smeared by a weight phi
before the deficit is taken:

  g(t) = int_0^1 phi(s) f(s t) ds
  averaging objective C(f, phi)
       = (int phi^2)^tau * tau * int_0^inf (1 - g(t))^2 t^(-1-tau) dt

Any admissible pair gives an upper bound on the sharp averaging constant,
and every value of the objective converts to a kinetic-constant ratio
through constants.bound_from_c.  Admissibility at small t needs the profile
to vanish fast enough: 1 - f ~ t^a requires a > tau/2, checked up front by
one check (_check_admissible) on both paths below and re-checked on the
nested path through quadrature convergence.

The objective takes one of two paths.  A smooth profile (rational_power,
deficit_optimal) with a closed-form weight (bump_poly, bump_simple,
uniform: _MELLIN_WEIGHTS) is scored on the Mellin line (_mellin_log_j): by
Mellin-Parseval J = (1/2 pi) int |F(-tau/2 + iy) Phi(1 + tau/2 - iy)|^2 dy
with F the transform of 1 - f and Phi that of phi, both Gamma-function
closed forms, and int phi^2 is closed-form too (_log_l2).  The trapezoid
rule on y >= 0 sums the integrand in logs (specfun.log_abs_gamma and
log_abs_gamma_step, real parts only), with the aliasing of the nearest pole
pairs, +-i tau/2 and +-i (a - tau/2), subtracted in closed form
(_pole_aliasing, finite through their merge at a = tau).  The step comes
from the strip left after the subtraction, aliasing error 2^-60, and is
halved while the sums on h and 2h disagree or the pole terms outweigh the
sum; the cut-off comes from the Stirling envelope e^(-2 pi y / a) of |F|^2
and Phi's own decay, grown while the last node's tail is above 2^-54.  Over tau in [1/4, 200] C agrees with an
oracle on a fine grid to 1e-13 plus a few ulp of tau and of log J, with at
most 4,000 nodes; a point that would need more than 8,192 (tau below about
0.01) or has p above 16 takes the nested path.  bump_rich and the indicator
profile take the nested path, described next.

Both functionals are one deficit integral over t of a 1 - h, h = f or g,
split at t = 1, each half mapped onto (0, 1) by t = v^k, with the one
integrand |k| (1 - h)^2 v^(k (1 - beta) - 1) in logs: near k = n = max(1,
2 / (2a + 1 - beta)), which turns the t^(2a - beta) behavior next to the
admissibility edge into v^1; far k = -m, m = max(1, ceil(2 / (beta - 1))),
which folds in the t^(-beta) decay.  Quadrature takes the sum of the two
halves as one integral over v, so each of its rounds is one call of 1 - h
on both halves' nodes (_deficit_integral).  A non-finite integrand value or
a blown quadrature budget is a DivergentError naming the functional.  Every
integral over s runs on the fixed rule quad.graded_rule, Kronrod 15 panels
graded toward both ends: inside the objective the inner g integral and int
phi^2 share phi at its nodes, and mu (s t)^a = (mu s^a) t^a costs each
outer node one t^a.  For 1 - g both ends
of the rule are folded, each to 2^-54 of the rows it replaces, into
binomial series of 1 - f = 1 - (1 + x)^(-p) with C_k = (p)_k / k!
(_one_minus_g_factory).  Toward s = 1, the rows with d = 1 - s^a <
delta_0(p) (0.053-0.065 for p <= 1, about 0.3/p for large p: the panels
graded toward s = 1) are a 12-term series in rho d, rho = X / (1 + X), X =
mu t^a, from 13 moments M_k = sum w d^k taken once per evaluation: 593 of
the 1,350 rows at a = 5.2, p = 0.31.  Toward s = 0, each outer node has
its own cut below which x = mu s^a t^a <= eps(p) <= 2^-19, and there 1 - f
is the three-term series p x - C_2 x^2 + C_3 x^3, summed from three
moments: running sums (np.cumsum) of 16-row blocks' own moments, taken once
per evaluation by the routine that takes the M_k.  Only the rows between
the two go through the log1p/expm1 kernel, in blocks of 16 rows:
9.4 M of the 68.3 M kernel elements that every row would cost over the
optimizer run from the criterion-5 start (one cut per batch of near or far
nodes left it 21.8 M).  The test suite checks this 1 - g against 30-digit
mpmath and against the exact sum over all 1,350 rows to 2e-15 relative.
The indicator profile needs no
integral over t:
1 - g(t) = T(1/t) with T(x) = int_x^1 phi, and by parts tau int_1^inf
T(1/t)^2 t^(-1-tau) dt = 2 int_0^1 phi x^tau T dx, one sum on the graded
rule with T at its nodes from the later panels' mass and quad.graded_tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quad
from .specfun import beta as beta_fn
from .specfun import log_abs_gamma, log_abs_gamma_step, log_beta, log_gamma_step
from .trial import ProfileFamily, WeightFamily, eval_weight, one_minus_profile, one_minus_rational

__all__ = [
    "DivergentError",
    "ProblemSpec",
    "weighted_deficit",
    "deficit_functional",
    "weight_l2",
    "averaging_objective",
]


class DivergentError(ValueError):
    """Functional is infinite (or quadrature could not converge) for this family."""


@dataclass(frozen=True)
class ProblemSpec:
    """Dimension d >= 1 and Riesz exponent sigma > 0."""

    d: int
    sigma: float

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "sigma", float(self.sigma))
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if not (self.d < 1e300 and self.tau < math.inf):  # the d bound keeps tau from OverflowError
            raise ValueError(f"tau = d/(2 sigma) must be finite, got d={self.d!r}, sigma={self.sigma!r}")

    @property
    def tau(self) -> float:
        """d/(2 sigma), the exponent in the t^(-1-tau) weight."""
        return self.d / (2.0 * self.sigma)


def _check_admissible(a: float, beta: float, what: str) -> None:
    """Raise DivergentError naming `what` unless 2a > beta - 1 > 0: the
    deficit of a 1 - h ~ t^a converges at t -> 0 and t^(-beta) at infinity."""
    if not 2.0 * a > beta - 1.0:
        raise DivergentError(f"deficit diverges at t -> 0: profile vanishes like t^{a!r}, "
                             f"weight needs exponent > {(beta - 1.0) / 2.0!r}")
    if not beta > 1.0:
        raise DivergentError(f"{what}: weight exponent must satisfy beta > 1, got {beta!r}")


def _deficit_integral(one_minus, a: float, beta: float, what: str) -> float:
    """int_0^inf one_minus(t)^2 t^(-beta) dt for 1 - h ~ t^a at t -> 0 (a = inf
    for the indicator), split at t = 1.

    Each half is t = v^k on v in (0, 1), with integrand, formed in logs,

      |k| (1 - h)^2 v^(k (1 - beta) - 1):
      near  k = n = max(1, 2 / e) for the margin e = 2a + 1 - beta > 0,  ~ v^(n e - 1);
      far   k = -m, m = max(1, ceil(2 / (beta - 1))),                     ~ v^(m (beta - 1) - 1).

    Both vanish at least linearly at v = 0.  n is not rounded up: n e = 2
    makes the near integrand's leading term exactly linear in v, which GK15
    integrates without bisecting toward v = 0 (rounded up, n e - 1 is a
    fraction above 1 whose second derivative blows up there).  Below t_deep =
    2^(-600/a), where t^a may underflow while t^(-beta) is huge, log(1 - h) is
    log K + a k log v, with K = (1 - h)/t^a taken once at t_deep: 1 - h is a
    positive sum of terms 1 - (1 + x)^(-p) with x <= mu t^a <= mu 2^-600,
    linear in x to rounding.

    The two halves are one integral of their sum over (0, 1): each round of
    quad.integrate is one call of one_minus on t = v^n and t = v^-m for all of
    the round's nodes.  Its target max(ABS, REL |J|) is never looser than
    the two halves' own targets summed, since max(A, R (x + y)) <= max(A, R
    x) + max(A, R y) for x, y >= 0.

    Raises DivergentError naming `what` for 2a <= beta - 1, for beta <= 1, for
    a non-finite integrand value and for a blown budget.
    """
    _check_admissible(a, beta, what)
    margin = 2.0 * a - (beta - 1.0)  # > 0 in floats too, since 2a > beta - 1
    n = max(1.0, 2.0 / margin)
    m = float(max(1, math.ceil(2.0 / (beta - 1.0))))
    k = np.array([[n], [-m]])  # near row, far row
    expo = k * (1.0 - beta) - 1.0  # k - 1 - k beta cancels for beta -> 1 at large m
    t_deep = 2.0 ** (-600.0 / a) if a < math.inf else 0.0  # the indicator's 1 - h is 0 on (0, 1)
    log_k = None  # log K, formed on first use

    def integrand(v):
        nonlocal log_k
        log_v = np.log(v)
        # inf, nan and a negative 1 - h (nan in logs) reach quad, which raises;
        # log 0 = -inf makes a 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            near = v**n
            val = one_minus(np.concatenate((near, v**-m))).reshape(2, v.size)
            np.log(val, out=val)
            if near.min() < t_deep:  # near half only: t > 1 on the far half
                if log_k is None:
                    log_k = float(np.log(one_minus(np.array([t_deep]))[0])) - a * math.log(t_deep)
                deep = near < t_deep
                val[0, deep] = log_k + a * n * log_v[deep]
            val *= 2.0
            val += expo * log_v
            np.exp(val, out=val)
        val *= abs(k)
        return val[0] + val[1]

    try:
        res = quad.integrate(integrand)
    except quad.NonFiniteIntegrandError as exc:
        raise DivergentError(f"{what}: {exc}") from exc
    if not res.converged:
        raise DivergentError(f"{what} quadrature did not converge: {res!r}")
    return res.value


def weighted_deficit(fam: ProfileFamily, beta: float) -> float:
    """J_beta(f) = int_0^inf (1 - f)^2 t^(-beta) dt.

    Raises DivergentError when the small-t behavior makes the integral
    infinite, an integrand value is not finite or the quadrature budget runs
    out.
    """
    a = math.inf if fam.kind == "indicator" else fam.a
    return _deficit_integral(lambda t: one_minus_profile(fam, t), a, beta, "weighted deficit")


def deficit_functional(fam: ProfileFamily, problem: ProblemSpec) -> float:
    """A(f) = tau * J_{1+tau}(f) for the given problem."""
    tau = problem.tau
    return tau * weighted_deficit(fam, 1.0 + tau)


def _weight_on_rule(weight: WeightFamily, what: str):
    """(w phi, int phi^2) for the weights w of quad.graded_rule.

    Raises DivergentError naming `what` when the rule gives phi a mass off 1
    by more than 1e-12: phi's mass then sits where the rule has no nodes.
    """
    s_nodes, s_weights = quad.graded_rule()
    phi = eval_weight(weight, s_nodes)
    wphi = s_weights * phi
    mass = float(wphi.sum())
    if not abs(mass - 1.0) <= 1e-12:
        raise DivergentError(f"{what}: the graded rule gives the weight mass {mass!r}, not 1")
    return wphi, s_weights @ phi**2


def weight_l2(weight: WeightFamily) -> float:
    """int_0^1 phi(t)^2 dt on quad.graded_rule(); raises DivergentError for a
    weight whose mass on that rule is off 1 by more than 1e-12."""
    return float(_weight_on_rule(weight, "weight L2 norm")[1])


# The two ends of the inner rule are folded into series of 1 - f
# (_one_minus_g_factory): toward s = 0, for each outer node t, the rows with
# x = mu s^a t^a <= _series_eps(p) <= _SERIES_EPS, in _SERIES_TERMS terms;
# toward s = 1 the rows with d = 1 - s^a < _suffix_width(p), in
# _SUFFIX_TERMS terms.  The rows between go through the kernel in blocks of
# _BLOCK rows; a node whose top folded row has mu s^a below 2^e _LEAD_MIN
# folds nothing.
_SERIES_TERMS, _SERIES_EPS = 3, 2.0**-19
_SUFFIX_TERMS = 12
_BLOCK = 16
_LEAD_MIN = 2.0**-300
_TINY = 2.0**-1022  # the smallest normal float
_LOG_MAX = math.log(np.finfo(float).max)


def _binomials(p: float) -> list[float]:
    """[C_1, .., C_(_SUFFIX_TERMS + 1)] for C_k = (p)_k / k!, the coefficients
    of (1 - y)^(-p) = sum_k C_k y^k; a C_k that overflows, and every later
    one, is inf."""
    coef, c_k = [], 1.0
    for k in range(1, _SUFFIX_TERMS + 2):
        c_k *= (p + (k - 1)) / k
        coef.append(c_k)
    return coef


def _series_eps(p: float, coef) -> float:
    """eps = min(_SERIES_EPS, (2^-55 p / C_(K+1))^(1/K)) for K = _SERIES_TERMS
    and coef = _binomials(p): the s -> 0 bound below is then at most 2^-55 /
    (1 - (p + 1) eps / 2) <= 2^-54.  A C_(K+1) that overflows gives eps = 0:
    no row is folded."""
    k = _SERIES_TERMS
    return min(_SERIES_EPS, (2.0**-55 * p / coef[k]) ** (1.0 / k))


def _suffix_width(p: float, coef) -> float:
    """delta_0 = min(1 / (4 kappa), (2^-55 min(1, p) / C_(K+1))^(1/(K+1))) for
    K = _SUFFIX_TERMS, kappa = max(1, (p + K + 1) / (K + 2)) and coef =
    _binomials(p): then (1 - delta_0)(1 - kappa delta_0) >= 9/16 and the s ->
    1 bound below is at most 2^-54.  A C_(K+1) that overflows gives delta_0 =
    0: no row is folded."""
    k = _SUFFIX_TERMS + 1
    kappa = max(1.0, (p + k) / (k + 1))
    return min(0.25 / kappa, (2.0**-55 * min(1.0, p) / coef[k - 1]) ** (1.0 / k))


def _power_series(coef, y):
    """sum_(k>=1) coef[k-1] y^k by Horner's rule, for an ndarray y."""
    out = coef[-1] * y
    for c in coef[-2::-1]:
        out += c
        out *= y
    return out


def _moments(coef, w, y):
    """[c_k sum w y^k over the last axis for k = 1, 2, .. and c_k in coef],
    each power taken as a repeated product."""
    term, out = w * y, []
    for c in coef:
        out.append(c * term.sum(axis=-1))
        term *= y
    return out


def _one_minus_g_factory(fam: ProfileFamily, wphi):
    """Vectorized t -> 1 - g(t) for a smooth profile, exact at small t.

    Since int phi = 1, 1 - g(t) = int phi(s)(1 - f(st)) ds: for each outer
    node, a pairwise sum of wphi (1 - f) over the rule's rows, wphi the
    graded rule's weights times phi, at x = (mu s^a) t^a.  Both ends of the
    rule are folded into series of 1 - f whose coefficients are built once per
    evaluation, C_k = (p)_k / k! from _binomials; only the rows between them
    go through the kernel one_minus_rational.

    The s -> 0 end: the rows mu_x = mu s^a ascend, so each node t has its own
    cut.  Below the suffix start the rows sit in blocks of _BLOCK, the first
    padded in front with rows of mu_x = w = 0, and a node folds the blocks
    whose top row has mu_x <= eps (1 - 2^-50) / t^a, eps = _series_eps(p).
    That quotient rounds up by at most one ulp, so every folded row has mu_x
    t^a <= eps in floats; a quotient below the normal range counts as 0, and
    then only rows with mu_x = 0 fold.  The kernel takes the node's other
    blocks, at most _BLOCK - 1 rows more than those with mu_x t^a above the
    limit, laid out contiguously per node so that np.add.reduceat sums each
    node pairwise.  The folded rows, where every x <= eps, are summed as

        sum_(k=1..K) (-1)^(k+1) C_k (2^e t^a)^k P_k,  P_k = sum_i w_i (mu_x_i / 2^e)^k,

    with K = _SERIES_TERMS and 2^e the power of two above every mu_x.  Each
    block's moments are pairwise sums (_moments, the routine that also takes
    the M_k below), and P_k is their running sum over the blocks (np.cumsum),
    taken once per evaluation.  For each k the block sums share one sign and
    there are at most 85 of them; over a random draw of (a, p, phi, t) the
    result stays within 1e-15 relative of math.fsum over every row, no worse
    than pairwise prefix sums.  Every mu_x_i / 2^e < 1 and 2^e t^a
    is exact, so no moment overflows.  A node folds only if its top folded
    row has mu_x / 2^e >= _LEAD_MIN = 2^-300; otherwise, t^a beyond about
    2^(281 - e), the kernel takes all its rows below the suffix.  So 2^e t^a
    <= eps / _LEAD_MIN < 2^282 and no power overflows either, and the top
    row's terms w (mu_x / 2^e)^k >= w 2^-900 keep their digits for every row
    weight w above 2^-120 (the graded rule's smallest is about 2^-100).
    For x <= eps the series of 1 - (1 + x)^(-p) alternates with decreasing
    terms, so a row's error is at most C_(K+1) x^(K+1) and its value at least
    p x (1 - (p + 1) x / 2): relative to the folded rows' own sum the error
    is at most C_(K+1) eps^K / (p (1 - (p + 1) eps / 2)), which _series_eps
    keeps at or below 2^-54.

    The s -> 1 end: the rule's panels graded toward s = 1 exist only for
    phi's (1 - s^q)^r corner.  The rows with d = 1 - s^a < delta_0 =
    _suffix_width(p) are summed, with X = mu t^a and rho = X / (1 + X), from
    1 + X (1 - d) = (1 + X)(1 - rho d) as

        S = M_0 (1 - (1 + X)^-p) - (1 + X)^-p sum_(k=1..K) C_k M_k rho^k,  M_k = sum_i w_i d_i^k,

    with K = _SUFFIX_TERMS and the moments taken once per evaluation by
    _moments.  Every term of the series is positive, and C_(k+1) / C_k <=
    kappa = max(1, (p + K + 1) / (K + 2)) past k = K, so the dropped tail is
    at most (1 + X)^-p M_0 C_(K+1) (rho delta_0)^(K+1) / (1 - kappa delta_0);
    S >= M_0 (1 - (1 + X (1 - delta_0))^-p) >= M_0 min(1, p) (1 - delta_0)
    rho (Bernoulli's inequality for p < 1).  Relative to S the error is thus at most

        C_(K+1) delta_0^(K+1) / (min(1, p) (1 - delta_0) (1 - kappa delta_0)),

    which _suffix_width keeps at or below 2^-54.  A weight with no mass on
    these rows makes S = 0, and where t^a overflows the node is summed over
    every row instead.
    """
    s_nodes = quad.graded_rule()[0]
    s_a = s_nodes**fam.a
    coef = _binomials(fam.p)
    start = int(np.searchsorted(s_a - 1.0, -_suffix_width(fam.p, coef), side="right"))  # exact for s^a >= 1/2
    eps_cut = _series_eps(fam.p, coef) * (1.0 - 2.0**-50)
    suffix_mass = wphi[start:].sum()
    suffix_terms = _moments(coef[:_SUFFIX_TERMS], wphi[start:], 1.0 - s_a[start:])  # C_k M_k
    n_blocks = -(-start // _BLOCK)
    pad = n_blocks * _BLOCK - start
    mu_blocks = np.concatenate((np.zeros(pad), fam.mu * s_a[:start])).reshape(n_blocks, _BLOCK)
    w_blocks = np.concatenate((np.zeros(pad), wphi[:start])).reshape(n_blocks, _BLOCK)
    tops = mu_blocks[:, -1].copy()  # the blocks' top rows; block m folds where tops[m] <= limit
    e = math.frexp(tops[-1])[1] if start else 0  # every mu_x < 2^e
    signed = [c if k % 2 else -c for k, c in enumerate(coef[:_SERIES_TERMS], 1)]  # (-1)^(k+1) C_k
    prefix = np.cumsum(_moments(signed, w_blocks, np.ldexp(mu_blocks, -e)), axis=1)
    moments = np.concatenate((np.zeros((_SERIES_TERMS, 1)), prefix), axis=1)  # column m: the blocks below m
    foldable = np.concatenate(([False], tops >= math.ldexp(_LEAD_MIN, e)))  # cuts whose top row keeps its digits
    # one float buffer, grown to the largest call: fresh arrays per call can let
    # malloc trim the heap and fault the pages in again
    work = np.empty(0)

    def factored(t_a):
        nonlocal work
        with np.errstate(divide="ignore"):
            limit = eps_cut / t_a  # inf at t^a = 0: every row folds
        if limit.min(initial=np.inf) < _TINY:  # a subnormal quotient's rounding could pass a row
            limit[limit < _TINY] = 0.0
        cut = tops.searchsorted(limit, side="right")  # the blocks folded into the series
        cut[~foldable[cut]] = 0  # a top folded row below 2^e _LEAD_MIN: the kernel takes every block
        size = n_blocks - cut  # and those the kernel takes
        out = np.zeros(t_a.size)
        cols = np.flatnonzero(size)
        if cols.size:
            size = size[cols]
            ends = np.cumsum(size)
            total = int(ends[-1])
            if work.size < 2 * total * _BLOCK:
                work = np.empty(2 * total * _BLOCK)
            x, w = work[:2 * total * _BLOCK].reshape(2, total, _BLOCK)
            rows = np.repeat(n_blocks - ends, size)  # each kernel block's block of rows
            rows += np.arange(total)
            np.take(mu_blocks, rows, axis=0, out=x, mode="clip")  # mode="raise" would buffer out
            x *= np.repeat(t_a[cols], size)[:, None]
            one_minus_rational(fam.p, x, out=x)
            np.take(w_blocks, rows, axis=0, out=w, mode="clip")
            x *= w
            out[cols] = np.add.reduceat(x.reshape(-1), (ends - size) * _BLOCK)
        # a node that folds nothing gets 0: its 2^e t^a may overflow
        out += _power_series(moments[:, cut], np.where(cut > 0, np.ldexp(t_a, e), 0.0))
        if suffix_mass > 0.0:  # the rows from start on, as the series in rho
            log_b = np.log1p(fam.mu * t_a)  # log(1 + X)
            series = _power_series(suffix_terms, -np.expm1(-log_b))  # rho = 1 - 1/(1 + X)
            log_b *= -fam.p
            series *= np.exp(log_b)
            out -= series
            out -= suffix_mass * np.expm1(log_b)
        return out

    def one_minus_g(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        with np.errstate(over="ignore"):
            t_a = t**fam.a
            big = ~np.isfinite(t_a)
            if not big.any():
                return factored(t_a)
            out = np.empty(t.size)  # where t^a overflowed, take (s t)^a directly
            out[big] = wphi @ one_minus_profile(fam, s_nodes[:, None] * t[big])
            out[~big] = factored(t_a[~big])
            return out

    return one_minus_g


# The Mellin line (_mellin_log_j): the coarse step 2h aims at an aliasing
# error e^(-2 pi d / 2h) = _ALIAS of the strip half-width d that is left, so h
# aims at _ALIAS^2; h is halved while the sums on h and 2h differ by more
# than _ALIAS_CHECK (relative) and the cut-off Y grows while the last node's
# tail exceeds _TAIL.  A subtracted pole pair at +-i gamma caps h at 2 pi
# gamma / log 2, so that its trapezoid correction stays below the exact part
# where that pole dominates J, and h is halved while the pole terms exceed
# 4 J, as where Phi falls steeply along y (a = 1100, tau = 200, q = 0.05);
# a point that would need more than _MELLIN_MAX_NODES nodes (tau below about
# 0.01) takes the nested path instead, and so does p above _MELLIN_MAX_P, where
# log Gamma(p) = 30.7 and more would cost the sum's logs its digits (a p = 64
# profile came out 1.8e-13 off the nested path at tolerance 1e-15).
_MELLIN_WEIGHTS = ("bump_poly", "bump_simple", "uniform")
_MELLIN_MAX_P = 16.0
_ALIAS = 2.0**-30
_ALIAS_CHECK = 2.0**-22
_TAIL = 2.0**-54
_MELLIN_MAX_NODES = 8192
_TWO_PI = 2.0 * math.pi


def _log_phi(weight: WeightFamily, w: float) -> float:
    """log Phi(w) for real w > 0, Phi(w) = int_0^1 phi(s) s^(w-1) ds."""
    if weight.kind == "uniform":
        return -math.log(w)
    if weight.kind == "bump_simple":
        return math.log(1.25 / (w * (w + 0.25)))
    return math.log(weight.c / weight.q) + log_beta(w / weight.q, weight.r + 1.0)


def _log_phi_step(weight: WeightFamily, w: float, eta: float) -> float:
    """log Phi(w + eta) - log Phi(w) for real w, w + eta > 0, to rounding
    relative to the step itself as eta -> 0."""
    if weight.kind == "uniform":
        return -math.log1p(eta / w)
    if weight.kind == "bump_simple":
        return -math.log1p(eta / w) - math.log1p(eta / (w + 0.25))
    u, d, b = w / weight.q, eta / weight.q, weight.r + 1.0
    return log_gamma_step(u, d) - log_gamma_step(u + b, d)


def _log_phi_scale(weight: WeightFamily) -> float:
    """log of Phi's constant factor: 0, log(5/4), or log(c Gamma(r + 1) / q)."""
    if weight.kind == "uniform":
        return 0.0
    if weight.kind == "bump_simple":
        return math.log(1.25)
    return math.log(weight.c / weight.q) + math.lgamma(weight.r + 1.0)


def _log_abs_phi(weight: WeightFamily, w0: float, y):
    """log|Phi(w0 - i y)| - _log_phi_scale(weight) for an ndarray y."""
    y2 = y * y
    if weight.kind == "uniform":
        return -0.5 * np.log(w0 * w0 + y2)
    if weight.kind == "bump_simple":
        w1 = w0 + 0.25
        return -0.5 * np.log((w0 * w0 + y2) * (w1 * w1 + y2))
    return -log_abs_gamma_step((w0 - 1j * y) / weight.q, weight.r + 1.0)


def _log_l2(weight: WeightFamily) -> float:
    """log int_0^1 phi^2 in closed form: 0, log(5/3), or log(c^2 B(1/q, 2r + 1) / q)."""
    if weight.kind == "uniform":
        return 0.0
    if weight.kind == "bump_simple":
        return math.log(5.0 / 3.0)
    return math.log(weight.c * weight.c * beta_fn(1.0 / weight.q, 2.0 * weight.r + 1.0) / weight.q)


def _phi_decay(weight: WeightFamily) -> tuple[float, float]:
    """(nu, w): |Phi(w0 - iy)|^2 decays about like (1 + (y / (w0 + w))^2)^-nu."""
    if weight.kind == "uniform":
        return 1.0, 0.0
    if weight.kind == "bump_simple":
        return 2.0, 0.25
    return weight.r + 1.0, weight.q * (weight.r + 1.0)


def _log_k(x: float) -> float:
    """-log expm1(x) = log((coth(x/2) - 1) / 2) for x > 0, without overflow."""
    return -x - math.log(-math.expm1(-x))


def _pole_aliasing(fam: ProfileFamily, weight: WeightFamily, tau: float, both: bool):
    """h -> [(sign, log|c|)]: the trapezoid sum on step h over-counts J by 2
    sum sign e^(log|c|), from the pole pairs +-i tau/2 and, if both, +-i (a -
    tau/2).

    With H(z) = F(z) Phi(1 - z), the pair at +-i gamma from a pole of H at z*
    with residue R adds 4 pi R H(-tau - z*) k_gamma, k_gamma = 1 / expm1(2 pi
    gamma / h), to the full-line sum (coth x - 1 = 2 / expm1(2x)).  With s =
    tau / a and eta = a - tau, the pair at z* = 0 (gamma = tau/2) adds U a /
    eta and the pair at z* = -a (gamma = beta) adds -V a / eta, where

      U = mu^s Gamma(2 - s) Gamma(p + s) Phi(1 + tau) k_alpha / (s a Gamma(p)),
      V / U = (p s / (p + s - 1)) Phi(1 + a) Phi(1 - eta) k_beta / (Phi(1 + tau) k_alpha),

    with 2 - s = 2 beta / a and p + s - 1 = p - eta / a formed without
    cancellation.  The two merge at a = tau, where each blows up like a /
    eta: there (|log V/U| < 1) their sum is U (1 - e^l) a / eta, l = log V/U
    summed from log1p terms and _log_phi_step, so it stays finite and
    accurate through eta = 0.
    """
    a, p, mu = fam.a, fam.p, fam.mu
    alpha, beta = 0.5 * tau, fam.a - 0.5 * tau
    s, eta = tau / a, a - tau
    common = s * math.log(mu) - math.log(a) - math.lgamma(p) + math.lgamma(2.0 * beta / a)
    log_u0 = common + math.lgamma(p + s) - math.log(s) + _log_phi(weight, 1.0 + tau)
    sign, log_eta = math.copysign(1.0, eta), math.log(abs(eta / a)) if eta else -math.inf
    if not both:
        return lambda h: [(sign, log_u0 + _log_k(_TWO_PI * alpha / h) - log_eta)]
    log_v0 = (common + math.lgamma(p - eta / a) + math.log(p) + _log_phi(weight, 1.0 + a)
              + _log_phi(weight, 1.0 - eta))
    if eta == 0.0:  # the merged sum is smooth in a: take it one ulp off the merge
        a = math.nextafter(a, math.inf)
        eta = a - tau
    ell0 = (math.log1p(-eta / a) - math.log1p(-eta / (a * p))  # log(p s / (p + s - 1))
            + _log_phi_step(weight, 1.0 + tau, eta) + _log_phi_step(weight, 1.0, -eta))

    def terms(h):
        x_a, x_b, dx = _TWO_PI * alpha / h, _TWO_PI * beta / h, _TWO_PI * eta / h
        log_u, log_v = log_u0 + _log_k(x_a), log_v0 + _log_k(x_b)
        if abs(log_v - log_u) >= 1.0:
            return [(sign, log_u - log_eta), (-sign, log_v - log_eta)]
        gap = -math.expm1(-dx) * math.exp(-x_a) if abs(dx) < 1.0 else math.exp(-x_a) - math.exp(-x_b)
        ell = ell0 - dx - math.log1p(gap / -math.expm1(-x_a))  # + log(k_beta / k_alpha)
        ratio = -math.expm1(ell) * a / eta
        return [(math.copysign(1.0, ratio), log_u + math.log(abs(ratio)))] if ratio else []
    return terms


def _tail_end(a: float, p: float, nu: float, w: float, w0: float) -> float:
    """Y where the envelope e^(-2 pi y / a) (1 + y/a)^(2p - 2) (1 + (y / (w0 +
    w))^2)^-nu of |F Phi|^2, relative to y = 0, falls to _TAIL: four Newton
    steps down from the end of the exponential alone, each at most halving Y."""
    target, c, w = -math.log(_TAIL), max(0.0, 2.0 * p - 2.0), w0 + w
    y = a * target / _TWO_PI
    for _ in range(4):
        excess = _TWO_PI * y / a - c * math.log1p(y / a) + nu * math.log1p((y / w) ** 2) - target
        slope = _TWO_PI / a - c / (a + y) + 2.0 * nu * y / (w * w + y * y)
        if not slope > 0.0:
            break
        y = max(y - excess / slope, 0.5 * y)
    return y


def _mellin_log_j(fam: ProfileFamily, weight: WeightFamily, tau: float):
    """log J for J = int (1 - g)^2 t^(-1-tau) dt on the Mellin line, or None
    where the sum would take more than _MELLIN_MAX_NODES nodes.

    By Mellin-Parseval J = (1/pi) int_0^inf |F(z) Phi(1 - z)|^2 dy on z =
    -tau/2 + iy, F(z) = -mu^(-z/a) Gamma(z/a) Gamma(p - z/a) / (a Gamma(p))
    the transform of 1 - f (strip -a < Re z < 0) and Phi(w) that of phi.
    |Gamma(z/a)| is |Gamma(2 + z/a)| / (|z/a| |1 + z/a|) with 1 + z/a = (beta
    + iy)/a, beta = a - tau/2, so nothing is formed next to a pole.  The
    integrand is summed in logs by the trapezoid rule on y = k h, and
    _pole_aliasing takes out the aliasing of the nearest pole pairs in closed
    form: +-i tau/2 always, +-i beta where it is nearer than the first pole
    of Phi (1 + tau/2) and of Gamma(p - z/a) (a p + tau/2), unless beta sits
    within 2^-20 (relative) of one of those, whose residues then cancel
    against its own.  The strip left has half-width d, the nearest pole not
    subtracted (2a - tau/2 once beta is), and _tail_end gives the cut-off.
    """
    a, p, mu = fam.a, fam.p, fam.mu
    alpha, beta = 0.5 * tau, fam.a - 0.5 * tau
    near = min(1.0 + alpha, a * p + alpha)
    both = beta < near and min(abs(1.0 - (1.0 + tau) / a), abs(tau / a + p - 1.0)) > 2.0**-20
    d = min(near, 2.0 * a - alpha) if both else min(beta, near)
    h = min(_TWO_PI * d / (-2.0 * math.log(_ALIAS)),
            _TWO_PI * (min(alpha, beta) if both else alpha) / math.log(2.0))
    y_end = _tail_end(a, p, *_phi_decay(weight), 1.0 + alpha)
    const = 2.0 * ((alpha / a) * math.log(mu) + math.log(a) - math.lgamma(p) + _log_phi_scale(weight))
    aliasing = _pole_aliasing(fam, weight, tau, both)

    def trapezoid(step, total, shift):  # (J / e^shift on this step, the pole terms' size)
        poles = [sign * math.exp(lc - shift) for sign, lc in aliasing(step)]
        return step * total / math.pi - 2.0 * sum(poles), 2.0 * sum(map(abs, poles))

    while True:
        n = 2 * math.ceil(0.5 * y_end / h)  # even: the coarse sum takes every other node
        if n >= _MELLIN_MAX_NODES:
            return None
        y = h * np.arange(n + 1)
        lg = log_abs_gamma(np.concatenate(((a + beta) / a + 1j * y / a, p + alpha / a - 1j * y / a)))
        y2 = y * y
        log_g = _log_abs_phi(weight, 1.0 + alpha, y)
        log_g += lg[:n + 1]
        log_g += lg[n + 1:]
        log_g *= 2.0
        log_g -= np.log((alpha * alpha + y2) * (beta * beta + y2))
        top = float(log_g.max())
        g = np.exp(log_g - top)
        g[0] *= 0.5
        shift = const + top
        fine, poles = trapezoid(h, g.sum(), shift)
        if not poles <= 4.0 * fine:  # the sum would be rounding of the pole terms
            h *= 0.5
        elif g[-1] * a / (_TWO_PI * math.pi) > _TAIL * fine:
            y_end *= 1.5
        elif abs(fine - trapezoid(2.0 * h, g[::2].sum(), shift)[0]) > _ALIAS_CHECK * fine:
            h *= 0.5
        else:
            return shift + math.log(fine)


def averaging_objective(fam: ProfileFamily, weight: WeightFamily, problem: ProblemSpec) -> float:
    """C(f, phi) = (int phi^2)^tau * tau * int (1 - g)^2 t^(-1-tau) dt.

    Upper-bounds the sharp averaging constant of the problem for every
    admissible pair.  A smooth profile with p <= _MELLIN_MAX_P and a weight
    of _MELLIN_WEIGHTS is scored on the Mellin line (_mellin_log_j),
    everything else on the nested path (_nested_objective).  Raises DivergentError for inadmissible
    profiles, for a C past the float range and, on the nested path, for a
    weight whose mass on quad.graded_rule is off 1 by more than 1e-12.
    """
    tau = problem.tau
    if fam.kind != "indicator" and weight.kind in _MELLIN_WEIGHTS and fam.p <= _MELLIN_MAX_P:
        _check_admissible(fam.a, 1.0 + tau, "averaging objective")
        log_j = _mellin_log_j(fam, weight, tau)
        if log_j is not None:
            log_c = tau * _log_l2(weight) + math.log(tau) + log_j
            if not log_c < _LOG_MAX:
                raise DivergentError(f"averaging objective overflows: log C = {log_c!r}")
            return math.exp(log_c)
    return _nested_objective(fam, weight, tau)


def _nested_objective(fam: ProfileFamily, weight: WeightFamily, tau: float) -> float:
    """C on the nested rules: for the indicator the by-parts sum on
    quad.graded_rule, else quad.integrate over t of 1 - g from
    _one_minus_g_factory."""
    wphi, l2 = _weight_on_rule(weight, "averaging objective")
    l2_tau = l2**tau
    if fam.kind == "indicator":
        s_nodes = quad.graded_rule()[0]
        tail_nodes, tail_weights = quad.graded_tails()
        mass = wphi.reshape(tail_nodes.shape[:2]).sum(axis=1)
        later = np.append(np.cumsum(mass[:0:-1])[::-1], 0.0)  # mass past each panel, summed from s = 1
        t_of_s = later[:, None] + np.einsum("kjm,kjm->kj", tail_weights, eval_weight(weight, tail_nodes))
        return float(l2_tau * 2.0 * ((wphi * s_nodes**tau) @ t_of_s.ravel()))
    one_minus_g = _one_minus_g_factory(fam, wphi)
    return float(l2_tau * tau * _deficit_integral(one_minus_g, fam.a, 1.0 + tau, "averaging objective"))
