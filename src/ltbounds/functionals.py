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
split at t = 1: on (0,1) the integrand is small and vanishes at 0, on
(1, inf) the known t^(-beta) decay is folded into a power substitution so
the transformed integrand stays bounded.  Every integral over s runs on the
fixed rule quad.graded_rule: inside the objective the inner g integral and
int phi^2 share phi at its nodes, and mu (s t)^a = (mu s^a) t^a costs a
batch of outer nodes t^a and one outer product.  For 1 - g the rule's rows
with s^a within delta_0 ~ 1/65 of 1 (the panels graded toward s = 1) are
folded, once per evaluation, into a 4-point Gauss rule in delta = s^a - 1
whose error is at most 2^-54 of their sum (_one_minus_g_factory): about
800 rows instead of 1,350 per batch.  The test suite checks this 1 - g
against 30-digit mpmath and against the exact sum over all 1,350 rows to
2e-15 relative.  The indicator profile needs no integral over t:
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


def _require_admissible(fam: ProfileFamily, beta: float):
    a = math.inf if fam.kind == "indicator" else fam.a  # 1 - f ~ t^a at t -> 0
    if not 2.0 * a > beta - 1.0:
        raise DivergentError(f"deficit diverges at t -> 0: profile vanishes like t^{a!r}, "
                             f"weight needs exponent > {(beta - 1.0) / 2.0!r}")


def _deficit_integral(one_minus, beta: float, spec: quad.QuadSpec | None, what: str) -> float:
    """int_0^inf one_minus(t)^2 t^(-beta) dt, split at t = 1.

    On (1, inf) the substitution t = y^(-m) with m (beta - 1) >= 2 makes the
    integrand vanish at least linearly at y = 0; the generic rational
    transform stalls on tails slower than t^-2, where its transformed
    integrand blows up at u = 1 and float spacing is too coarse to refine.
    Raises DivergentError naming `what` for beta <= 1 or a blown budget.
    """
    if not beta > 1.0:
        raise DivergentError(f"{what}: weight exponent must satisfy beta > 1, got {beta!r}")
    m = float(max(1, math.ceil(2.0 / (beta - 1.0))))
    expo = m * (beta - 1.0) - 1.0

    def near_integrand(t):
        omf = one_minus(t)
        with np.errstate(over="ignore"):
            val = omf * omf * t ** (-beta)
        return np.where(omf == 0.0, 0.0, val)

    def far_integrand(y):
        with np.errstate(over="ignore"):
            t = y**-m
        return m * one_minus(t) ** 2 * y**expo

    near = quad.integrate(near_integrand, 0.0, 1.0, spec)
    far = quad.integrate(far_integrand, 0.0, 1.0, spec)
    if not (near.converged and far.converged):
        raise DivergentError(f"{what} quadrature did not converge: near={near!r}, far={far!r}")
    return near.value + far.value


def weighted_deficit(fam: ProfileFamily, beta: float, quad_spec: quad.QuadSpec | None = None) -> float:
    """J_beta(f) = int_0^inf (1 - f)^2 t^(-beta) dt.

    Raises DivergentError when the small-t behavior makes the integral
    infinite or the quadrature budget runs out.
    """
    _require_admissible(fam, beta)
    return _deficit_integral(lambda t: one_minus_profile(fam, t), beta, quad_spec, "weighted deficit")


def deficit_functional(fam: ProfileFamily, problem: ProblemSpec, quad_spec: quad.QuadSpec | None = None) -> float:
    """A(f) = tau * J_{1+tau}(f) for the given problem."""
    tau = problem.tau
    return tau * weighted_deficit(fam, 1.0 + tau, quad_spec)


def weight_l2(weight: WeightFamily, quad_spec: quad.QuadSpec | None = None) -> float:
    """int_0^1 phi(t)^2 dt on quad.graded_rule(quad_spec)."""
    s, w = quad.graded_rule(quad_spec)
    return float(w @ eval_weight(weight, s) ** 2)


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


def _one_minus_g_factory(fam: ProfileFamily, spec: quad.QuadSpec, wphi):
    """Vectorized t -> 1 - g(t) for a smooth profile, exact at small t.

    Since int phi = 1, 1 - g(t) = int phi(s)(1 - f(st)) ds: one matrix product
    per batch of outer nodes with wphi, the graded rule's weights times phi,
    and x = (mu s^a) t^a.  The rule's panels graded toward s = 1 exist only for
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
    s_nodes = quad.graded_rule(spec)[0]
    s_a = s_nodes**fam.a
    start = int(np.searchsorted(s_a, 1.0 - _suffix_width(fam.p)))
    gauss = _gauss_rows(s_a[start:] - 1.0, wphi[start:])
    if gauss is None:
        mu_x, w_x = fam.mu * s_a, wphi
    else:
        mu_x = fam.mu * np.concatenate((s_a[:start], 1.0 + gauss[0]))
        w_x = np.concatenate((wphi[:start], gauss[1]))
    # one reused (s, t) buffer per batch size: fresh 160 KB arrays per batch can
    # let malloc trim the heap and fault the pages in again, ~1e6 faults a sweep
    work = {}

    def one_minus_g(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        with np.errstate(over="ignore"):
            t_a = t**fam.a
            if not np.isfinite(t_a).all():  # t^a overflowed: take (s t)^a directly
                return wphi @ one_minus_profile(fam, s_nodes[:, None] * t[None, :])
            buf = work.get(t.size)
            if buf is None:
                buf = work[t.size] = np.empty((mu_x.size, t.size))
            np.einsum("i,j->ij", mu_x, t_a, out=buf)  # np.multiply.outer buffers 130 KB
            return w_x @ one_minus_rational(fam.p, buf, out=buf)

    return one_minus_g


def averaging_objective(fam: ProfileFamily, weight: WeightFamily, problem: ProblemSpec,
                        quad_spec: quad.QuadSpec | None = None) -> float:
    """C(f, phi) = (int phi^2)^tau * tau * int (1 - g)^2 t^(-1-tau) dt.

    Upper-bounds the sharp averaging constant of the problem for every
    admissible pair; raises DivergentError for inadmissible profiles.
    """
    spec = quad_spec or quad.DEFAULT_SPEC
    tau = problem.tau
    _require_admissible(fam, 1.0 + tau)
    s_nodes, s_weights = quad.graded_rule(spec)
    phi = eval_weight(weight, s_nodes)
    wphi = s_weights * phi
    l2_tau = (s_weights @ phi**2) ** tau  # weight_l2, from phi
    if fam.kind == "indicator":
        tail_nodes, tail_weights = quad.graded_tails(spec)
        mass = wphi.reshape(tail_nodes.shape[:2]).sum(axis=1)
        later = np.append(np.cumsum(mass[:0:-1])[::-1], 0.0)  # mass past each panel, summed from s = 1
        t_of_s = later[:, None] + np.einsum("kjm,kjm->kj", tail_weights, eval_weight(weight, tail_nodes))
        return float(l2_tau * 2.0 * ((wphi * s_nodes**tau) @ t_of_s.ravel()))
    one_minus_g = _one_minus_g_factory(fam, spec, wphi)
    return float(l2_tau * tau * _deficit_integral(one_minus_g, 1.0 + tau, spec, "averaging objective"))
