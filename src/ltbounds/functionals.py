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
batch of outer nodes t^a and one outer product; the test suite checks this
1 - g against 30-digit mpmath.  The indicator profile needs no integral
over t: 1 - g(t) = T(1/t) with T(x) = int_x^1 phi, and by parts tau
int_1^inf T(1/t)^2 t^(-1-tau) dt = 2 int_0^1 phi x^tau T dx, one sum on the
graded rule with T at its nodes from the later panels' mass and
quad.graded_tails.
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


def _one_minus_g_factory(fam: ProfileFamily, spec: quad.QuadSpec, wphi):
    """Vectorized t -> 1 - g(t) for a smooth profile, exact at small t.

    Since int phi = 1, 1 - g(t) = int phi(s)(1 - f(st)) ds: one matrix product
    per batch of outer nodes with wphi, the graded rule's weights times phi.
    """
    s_nodes = quad.graded_rule(spec)[0]
    mu_s_a = fam.mu * s_nodes**fam.a
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
                buf = work[t.size] = np.empty((s_nodes.size, t.size))
            np.einsum("i,j->ij", mu_s_a, t_a, out=buf)  # np.multiply.outer buffers 130 KB
            return wphi @ one_minus_rational(fam.p, buf, out=buf)

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
