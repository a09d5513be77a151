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
to vanish fast enough: 1 - f ~ t^a requires a > tau/2, checked up front and
re-checked numerically through quadrature convergence.

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
moments read off prefix sums taken once per evaluation.  Only the rows
between the two go through the log1p/expm1 kernel, in blocks of 16 rows:
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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import quad
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
    if not 2.0 * a > beta - 1.0:
        raise DivergentError(f"deficit diverges at t -> 0: profile vanishes like t^{a!r}, "
                             f"weight needs exponent > {(beta - 1.0) / 2.0!r}")
    if not beta > 1.0:
        raise DivergentError(f"{what}: weight exponent must satisfy beta > 1, got {beta!r}")
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


@functools.cache
def _prefix_index(n: int):
    """reduceat indices 0, 1, 0, 2, .., 0, n, 0: on n + 1 entries, the even
    outputs are the sums of entries 0..m for m = 0..n."""
    index = np.zeros(2 * n + 1, dtype=np.intp)
    index[1::2] = np.arange(1, n + 1)
    return index


def _prefix_sums(terms):
    """out[..., m] = terms[..., :m].sum(axis=-1) for m = 0..n, each a pairwise
    sum as np.sum takes it; np.cumsum would add in sequence."""
    n = terms.shape[-1]
    padded = np.concatenate((np.zeros(terms.shape[:-1] + (1,)), terms), axis=-1)
    return np.add.reduceat(padded, _prefix_index(n), axis=-1)[..., ::2]


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

    with K = _SERIES_TERMS and 2^e the power of two above every mu_x.  P_k
    comes from _prefix_sums of the blocks' own sums, taken once per
    evaluation; pairwise within and across blocks, it is as accurate as a
    pairwise sum over the folded rows.  Every mu_x_i / 2^e < 1 and 2^e t^a
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

    with K = _SUFFIX_TERMS and the moments taken once per evaluation.  Every
    term of the series is positive, and C_(k+1) / C_k <= kappa = max(1, (p +
    K + 1) / (K + 2)) past k = K, so the dropped tail is at most (1 + X)^-p
    M_0 C_(K+1) (rho delta_0)^(K+1) / (1 - kappa delta_0); S >= M_0 (1 - (1 +
    X (1 - delta_0))^-p) >= M_0 min(1, p) (1 - delta_0) rho (Bernoulli's
    inequality for p < 1).  Relative to S the error is thus at most

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
    d = 1.0 - s_a[start:]
    moment = wphi[start:].copy()
    suffix_mass = moment.sum()
    suffix_terms = []  # C_k M_k
    for c in coef[:_SUFFIX_TERMS]:
        moment *= d
        suffix_terms.append(c * moment.sum())
    n_blocks = -(-start // _BLOCK)
    pad = n_blocks * _BLOCK - start
    mu_blocks = np.concatenate((np.zeros(pad), fam.mu * s_a[:start])).reshape(n_blocks, _BLOCK)
    w_blocks = np.concatenate((np.zeros(pad), wphi[:start])).reshape(n_blocks, _BLOCK)
    tops = mu_blocks[:, -1].copy()  # the blocks' top rows; block m folds where tops[m] <= limit
    e = math.frexp(tops[-1])[1] if start else 0  # every mu_x < 2^e
    ratio = np.ldexp(mu_blocks, -e)
    term = w_blocks * ratio
    block_sums = []
    for k, c in enumerate(coef[:_SERIES_TERMS], 1):
        block_sums.append((c if k % 2 else -c) * term.sum(axis=1))  # (-1)^(k+1) C_k
        term *= ratio
    moments = _prefix_sums(np.array(block_sums))  # column m: (-1)^(k+1) C_k P_k over the blocks below m
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


def averaging_objective(fam: ProfileFamily, weight: WeightFamily, problem: ProblemSpec) -> float:
    """C(f, phi) = (int phi^2)^tau * tau * int (1 - g)^2 t^(-1-tau) dt.

    Upper-bounds the sharp averaging constant of the problem for every
    admissible pair; raises DivergentError for inadmissible profiles and for
    a weight whose mass on quad.graded_rule is off 1 by more than 1e-12.
    """
    tau = problem.tau
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
