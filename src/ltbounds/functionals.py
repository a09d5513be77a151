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
which folds in the t^(-beta) decay (_deficit_integral).  A non-finite
integrand value or a blown quadrature budget is a DivergentError naming the
functional.  Every integral over s runs on the fixed rule quad.graded_rule:
inside the objective the inner g integral and int phi^2 share phi at its
nodes, and mu (s t)^a = (mu s^a) t^a costs a batch of outer nodes t^a and
one outer product.  For 1 - g the rule's rows
with s^a within delta_0 ~ 1/65 of 1 (the panels graded toward s = 1) are
folded, once per evaluation, into a 4-point Gauss rule in delta = s^a - 1
whose error is at most 2^-54 of their sum (_one_minus_g_factory): about
800 rows instead of 1,350 per batch.  Toward s = 0, where x = mu s^a t^a
<= eps(p) <= 2^-19 for every node of a batch, 1 - f is the three-term
series p x - C_2 x^2 + C_3 x^3 to 2^-54 of those rows' sum: they are
summed from three moments scaled by the last folded row, and only the rows
above that cut go through the log1p/expm1 kernel (33.2 M instead of 54.5 M
kernel elements over the optimizer run from the criterion-5 start).  The
test suite checks this 1 - g against 30-digit mpmath and against the exact
sum over all 1,350 rows to 2e-15 relative.  The indicator profile needs no
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
    t_deep = 2.0 ** (-600.0 / a) if a < math.inf else 0.0  # the indicator's 1 - h is 0 on (0, 1)
    log_k = None  # log K, formed on first use

    def half(k):
        expo = k * (1.0 - beta) - 1.0  # k - 1 - k beta cancels for beta -> 1 at large m

        def integrand(v):
            nonlocal log_k
            log_v = np.log(v)
            # inf, nan and a negative 1 - h (nan in logs) reach quad, which raises;
            # log 0 = -inf makes a 0
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                t = v**k
                val = one_minus(t)
                np.log(val, out=val)
                if t.min() < t_deep:  # near half only: t > 1 on the far half
                    if log_k is None:
                        log_k = float(np.log(one_minus(np.array([t_deep]))[0])) - a * math.log(t_deep)
                    deep = t < t_deep
                    val[deep] = log_k + a * k * log_v[deep]
                val *= 2.0
                log_v *= expo
                val += log_v
                np.exp(val, out=val)
            val *= abs(k)
            return val
        return integrand

    try:
        near = quad.integrate(half(n))
        far = quad.integrate(half(-m))
    except quad.NonFiniteIntegrandError as exc:
        raise DivergentError(f"{what}: {exc}") from exc
    if not (near.converged and far.converged):
        raise DivergentError(f"{what} quadrature did not converge: near={near!r}, far={far!r}")
    return near.value + far.value


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


# The s -> 1 end of the inner rule is replaced by _GAUSS_ROWS Gauss rows in
# delta = s^a - 1; _GAUSS_EPS caps the error bound's eps (_one_minus_g_factory).
_GAUSS_ROWS = 4
_GAUSS_EPS = 2.0**-7


def _suffix_width(p: float) -> float:
    """delta_0 = 2 eps / (1 + 2 eps) for eps = min(_GAUSS_EPS, 1 / (2 kappa)),
    kappa = max(1, (p + 2M) / (2M + 1)): the bound below is then <= 2^-54."""
    n = 2 * _GAUSS_ROWS
    eps = min(_GAUSS_EPS, 0.5 / max(1.0, (p + n) / (n + 1)))
    return 2.0 * eps / (1.0 + 2.0 * eps)


def _gauss_rows(delta, w):
    """M-point Gauss rule of the discrete measure sum_i w_i [x = delta_i], w >= 0
    -> (nodes, weights), or None for fewer than 2M points or when Lanczos
    breaks down (a zero beta_j).

    M Lanczos steps on diag(delta) from sqrt(w), each vector orthogonalized
    against all earlier ones, then the Jacobi matrix's eigenpairs (Golub and
    Welsch, Math. Comp. 23, 1969): nodes are its eigenvalues, weights the mass
    times each eigenvector's squared first component, so they are positive and
    sum to the mass to rounding.
    """
    m = _GAUSS_ROWS
    if delta.size < 2 * m:
        return None
    basis = np.empty((m, delta.size))
    jacobi = np.zeros((m, m))  # eigh reads the lower triangle only
    v = np.sqrt(w)
    mass = float(v @ v)
    norm = math.sqrt(mass)
    for j in range(m):
        if not norm > 0.0:
            return None
        basis[j] = v / norm
        v = delta * basis[j]
        coef = basis[: j + 1] @ v
        v -= coef @ basis[: j + 1]
        jacobi[j, j] = coef[j]
        if j + 1 < m:
            norm = math.sqrt(float(v @ v))
            jacobi[j + 1, j] = norm
    nodes, vecs = np.linalg.eigh(jacobi, UPLO="L")
    return nodes, mass * vecs[0] ** 2


# Rows with x = mu s^a t^a <= _series_eps(p) take 1 - f as _SERIES_TERMS terms
# of its alternating series; _SERIES_EPS caps eps (_one_minus_g_factory).
_SERIES_TERMS = 3
_SERIES_EPS = 2.0**-19


def _series_eps(p: float) -> float:
    """eps = min(_SERIES_EPS, (2^-55 p / C_(K+1))^(1/K)) for K = _SERIES_TERMS
    and C_k = (p)_k / k!: the series bound below is then at most
    2^-55 / (1 - (p + 1) eps / 2) <= 2^-54.  A C_(K+1) that overflows gives
    eps = 0: no row is folded."""
    c_next_over_p = math.prod((p + k) / (k + 1) for k in range(1, _SERIES_TERMS + 1))
    return min(_SERIES_EPS, (2.0**-55 / c_next_over_p) ** (1.0 / _SERIES_TERMS))


def _one_minus_g_factory(fam: ProfileFamily, wphi):
    """Vectorized t -> 1 - g(t) for a smooth profile, exact at small t.

    Since int phi = 1, 1 - g(t) = int phi(s)(1 - f(st)) ds: per batch of
    outer nodes, one pairwise sum down each column of wphi (1 - f), wphi the
    graded rule's weights times phi, at x = (mu s^a) t^a.

    The s -> 0 end: the rows mu_x = mu s^a ascend, so each batch of outer
    nodes has one cut r0, the first row with mu_x max(t^a) >= eps =
    _series_eps(p).  The rows below it, where every x <= eps, are summed as

        sum_(k=1..K) (-1)^(k+1) C_k (z t^a)^k M_k,  M_k = sum_(i<r0) w_i (mu_x_i / z)^k,

    with C_k = (p)_k / k!, K = _SERIES_TERMS and z = mu_x[r0 - 1]; only rows
    r0.. go through the kernel one_minus_rational.  Rescaled by z, the
    moments are sums of terms <= w_i led by the largest rows, and z t^a <=
    eps, so nothing overflows and no leading term underflows even where t^a
    is near 1e300.  For x <= eps the series of 1 - (1 + x)^(-p) alternates
    with decreasing terms, so a row's error is at most C_(K+1) x^(K+1) and
    its value at least p x (1 - (p + 1) x / 2): relative to the folded rows'
    own sum the error is at most C_(K+1) eps^K / (p (1 - (p + 1) eps / 2)),
    which _series_eps keeps at or below 2^-54.

    The s -> 1 end: the rule's panels graded toward s = 1 exist only for
    phi's (1 - s^q)^r corner; the rows with delta = s^a - 1 in [-delta_0, 0]
    become the M-point Gauss rule of sum wphi_i [delta = delta_i], rows
    mu (1 + delta_g) with weights W_g.  With X = mu t^a, 1 - f = 1 - (1 + X +
    X delta)^(-p) is analytic in delta on a disc of radius (1 + X)/X >= 1, so
    one set of rows serves every t.  The rule's error on the suffix, relative
    to the suffix's own sum S, is at most

        2 eps^(2M) / (1 - eps kappa),  eps = delta_0 / (2 (1 - delta_0)),
                                       kappa = max(1, (p + 2M) / (2M + 1)):

    both rules integrate the degree-(2M - 1) Taylor polynomial about -delta_0/2
    exactly, with positive weights of mass m, so the error is <= 2 m times the
    remainder, <= A^-p C_2M r^2M / (1 - r kappa) for A = 1 + X (1 - delta_0/2),
    r = X delta_0 / (2A) and C_k = (p)_k / k!; and S >= m (1 - B^-p) for
    B = 1 + X (1 - delta_0), where B^p - 1 = sum_k C_k z^k >= C_2M z^2M with
    z = 1 - 1/B >= r / eps.  _suffix_width keeps this at or below 2^-54.
    Fewer than 2M suffix rows, a zero suffix mass or a Lanczos breakdown keep
    the full rows.
    """
    s_nodes = quad.graded_rule()[0]
    s_a = s_nodes**fam.a
    start = int(np.searchsorted(s_a, 1.0 - _suffix_width(fam.p)))
    gauss = _gauss_rows(s_a[start:] - 1.0, wphi[start:])
    if gauss is None:
        mu_x, w_x = fam.mu * s_a, wphi
    else:
        mu_x = fam.mu * np.concatenate((s_a[:start], 1.0 + gauss[0]))
        w_x = np.concatenate((wphi[:start], gauss[1]))
    eps = _series_eps(fam.p)
    coef, c_k = [], 1.0  # (-1)^(k+1) C_k, k = 1..K
    for k in range(1, _SERIES_TERMS + 1):
        c_k *= (fam.p + (k - 1)) / k
        coef.append(c_k if k % 2 else -c_k)
    # one reused (s, t) buffer, grown to the widest batch: fresh arrays per batch
    # can let malloc trim the heap and fault the pages in again, ~1e6 faults a sweep
    work = np.empty(0)

    def factored(t_a):
        nonlocal work
        cut = int(np.searchsorted(mu_x * t_a.max(initial=0.0), eps))
        rows = mu_x.size - cut
        if work.size < rows * t_a.size:
            work = np.empty(rows * t_a.size)
        # column-major, so each column is contiguous and numpy sums it pairwise: a
        # matrix product with wphi adds the ~800 rows in an order set by the
        # batch's width, up to 2.4e-15 off
        buf = work[: rows * t_a.size].reshape(t_a.size, rows).T
        np.einsum("i,j->ij", mu_x[cut:], t_a, out=buf)  # np.multiply.outer would allocate a temporary
        one_minus_rational(fam.p, buf, out=buf)
        out = np.multiply(buf, w_x[cut:, None], out=buf).sum(axis=0)
        z = mu_x[cut - 1] if cut else 0.0
        if z > 0.0:  # the rows below the cut, as the series in y = z t^a
            ratio = mu_x[:cut] / z
            moment = w_x[:cut] * ratio
            terms = []
            for c in coef:
                terms.append(c * moment.sum())
                moment *= ratio
            y = z * t_a
            series = terms[-1] * y
            for c_m in terms[-2::-1]:  # Horner
                series += c_m
                series *= y
            out += series
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
