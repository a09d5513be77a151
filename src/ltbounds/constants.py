"""Closed-form constants and the bound reports built from them.

All ratios are quoted against the semiclassical values

  L_cl(d, sigma)  = (2 sigma/(d + 2 sigma)) |B_d| / (2 pi)^d
  K_cl(d, sigma)  = (d/(d + 2 sigma)) ((2 pi)^d / |B_d|)^(2 sigma / d)
  L_cl(alpha, d)  = Gamma(alpha + 1) / ((4 pi)^(d/2) Gamma(alpha + d/2 + 1))

and the kinetic and potential sides are exact duals of each other:

  l_ratio = k_ratio^(-d / (2 sigma)).

A BoundReport stores log k alone, so the duality holds by construction.
In eps = sigma/d, with x = 2 pi eps/(1 + 2 eps), the two log-k formulas

  momentum_optimal  -log1p(4 eps) + (1 + 2 eps) (log1p(2 eps) + log(sin(x)/x))
  from a value C    -log1p(2 eps) - 4 eps log1p(1/(2 eps)) - 2 eps log C

subtract no two logs of size log d, so log l = -log k/(2 eps) keeps its
digits for eps from 1e-12 to 1e3.  The other formulas are evaluated in log
space so that large dimensions (d in the thousands) stay exact to roundoff
instead of overflowing; the same applies to the closed-form minimum of the
weighted deficit,

  deficit_min(beta) = (beta-1)^(beta-1)/beta^beta * ((pi/beta)/sin(pi/beta))^beta

attained by f = 1/(1 + mu* t^beta) with
mu* = ((beta-1)/beta * (pi/beta)/sin(pi/beta))^beta = (beta-1)*deficit_min.

Bound constructors return BoundReport records.  Methods:

  rumin_original    k = d/(d+4) at sigma = 1 (uniform splitting)
  momentum_optimal  optimized splitting; fractional_first relabels the same
                    formula for sigma != 1
  low_momentum_avg  conversion of an averaging-objective value (sigma = 1);
                    fractional_second relabels it for sigma != 1
  lifted_1d         the d = 1 low-momentum value transported to every d at
                    sigma = 1 by the operator-valued lifting argument
  best_of           max k (equivalently min l) over the applicable methods
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .functionals import ProblemSpec
from .specfun import log_gamma, unit_ball_volume
from .trial import ProfileFamily, WeightFamily

__all__ = [
    "UNIVERSAL_L_RATIO",
    "LIFTED_1D_L_RATIO",
    "CONJECTURED_1D_L_RATIO",
    "DeficitMin",
    "BoundReport",
    "k_cl",
    "l_cl",
    "l_cl_general",
    "deficit_min",
    "bound_rumin_original",
    "bound_momentum_optimal",
    "bound_from_c",
    "bound_best_of",
    "product_identity_check",
    "large_d_limit_probe",
]

# Established dimension-free bound on L/L_cl at sigma = 1 (rounded headline
# and the sharper printed value it rounds from).
UNIVERSAL_L_RATIO = 1.456
LIFTED_1D_L_RATIO = 1.455786

# Conjectured sharp value of L/L_cl in d = 1 (the two-thirds-power pair);
# conjecture only, never used as a gate, shown in reports for reference.
CONJECTURED_1D_L_RATIO = 2.0 / math.sqrt(3.0)

# Bound on |log k| and |log l|: exp overflows just above 709.78 and leaves
# the normal floats just below -708.4.
_LOG_FLOAT_RANGE = 709.0


class DeficitMin(NamedTuple):
    value: float
    mu_star: float


@dataclass(frozen=True)
class BoundReport:
    """One bound for a problem, stored as log k, with its provenance.

    k_ratio = exp(log_k) multiplies K_cl from below and l_ratio =
    exp(-tau log_k) multiplies L_cl from above, so l = k^(-d/(2 sigma))
    holds by construction.  c_value and trial are set when the bound came
    out of an averaging objective.
    """

    problem: ProblemSpec
    method: str
    log_k: float
    c_value: float | None = None
    trial: tuple[ProfileFamily, WeightFamily] | None = None

    def __post_init__(self):
        log_l = -self.problem.tau * self.log_k
        if not (abs(self.log_k) <= _LOG_FLOAT_RANGE and abs(log_l) <= _LOG_FLOAT_RANGE):
            raise ValueError(f"k or l leaves the float range: log k = {self.log_k!r}, log l = {log_l!r}")

    @property
    def k_ratio(self) -> float:
        return math.exp(self.log_k)

    @property
    def l_ratio(self) -> float:
        return math.exp(-self.problem.tau * self.log_k)

    def to_json(self) -> dict:
        trial = None
        if self.trial is not None:
            prof, weight = self.trial
            trial = {"profile": prof.to_json(), "weight": weight.to_json()}
        return {
            "d": self.problem.d,
            "sigma": self.problem.sigma,
            "method": self.method,
            "k_ratio": self.k_ratio,
            "l_ratio": self.l_ratio,
            "c_value": self.c_value,
            "trial": trial,
        }


def k_cl(problem: ProblemSpec) -> float:
    """Semiclassical kinetic constant K_cl(d, sigma)."""
    d, sigma = problem.d, problem.sigma
    log_ratio = d * math.log(2.0 * math.pi) - math.log(unit_ball_volume(d))
    return d / (d + 2.0 * sigma) * math.exp(2.0 * sigma / d * log_ratio)


def l_cl(problem: ProblemSpec) -> float:
    """Semiclassical eigenvalue-sum constant L_cl(d, sigma)."""
    d, sigma = problem.d, problem.sigma
    return 2.0 * sigma / (d + 2.0 * sigma) * math.exp(math.log(unit_ball_volume(d)) - d * math.log(2.0 * math.pi))


def l_cl_general(alpha: float, d: int) -> float:
    """L_cl for Riesz exponent alpha >= 0 in dimension d."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha!r}")
    if int(d) != d or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    return math.exp(log_gamma(alpha + 1.0) - 0.5 * d * math.log(4.0 * math.pi) - log_gamma(alpha + 0.5 * d + 1.0))


def deficit_min(beta: float) -> DeficitMin:
    """Closed-form minimum of J_beta over normalized profiles, with the
    optimal scale mu*; needs beta > 1.  Evaluated in log space, so beta
    close to 1 (where the minimum blows up like 1/(beta-1) while mu* -> 1)
    and large beta are both exact to roundoff."""
    if not beta > 1.0:
        raise ValueError(f"deficit_min requires beta > 1, got {beta!r}")
    log_sine_term = math.log(math.pi / beta) - math.log(math.sin(math.pi / beta))
    log_min = (beta - 1.0) * math.log(beta - 1.0) - beta * math.log(beta) + beta * log_sine_term
    log_mu = beta * (math.log(beta - 1.0) - math.log(beta) + log_sine_term)
    return DeficitMin(value=math.exp(log_min), mu_star=math.exp(log_mu))


def _log_k_momentum_optimal(problem: ProblemSpec) -> float:
    eps = problem.sigma / problem.d
    x = 2.0 * math.pi * eps / (1.0 + 2.0 * eps)
    if x < 1e-2:  # Taylor series of log(sin(x)/x), exact to roundoff here
        x2 = x * x
        log_sinc = -x2 * (1.0 / 6.0 + x2 * (1.0 / 180.0 + x2 * (1.0 / 2835.0 + x2 / 37800.0)))
    else:  # sin(x) = sin(pi - x) keeps its digits as x approaches pi
        sin_x = math.sin(x) if x < 0.5 * math.pi else math.sin(math.pi / (1.0 + 2.0 * eps))
        log_sinc = math.log(sin_x / x)
    return -math.log1p(4.0 * eps) + (1.0 + 2.0 * eps) * (math.log1p(2.0 * eps) + log_sinc)


def bound_momentum_optimal(problem: ProblemSpec) -> BoundReport:
    """Kinetic bound with the optimized momentum splitting,

    k = d/(d+4 sigma) * ((d+2 sigma)^2 sin(2 pi sigma/(d+2 sigma))
        / (2 pi sigma d))^(1+2 sigma/d).
    """
    method = "momentum_optimal" if problem.sigma == 1.0 else "fractional_first"
    return BoundReport(problem=problem, method=method, log_k=_log_k_momentum_optimal(problem))


def bound_rumin_original(problem: ProblemSpec) -> BoundReport:
    """Uniform-splitting baseline k = d/(d+4), l = ((d+4)/d)^(d/2); sigma = 1 only."""
    if problem.sigma != 1.0:
        raise ValueError("rumin_original is stated for sigma = 1")
    return BoundReport(problem=problem, method="rumin_original", log_k=-math.log1p(4.0 / problem.d))


def bound_from_c(problem: ProblemSpec, c_value: float,
                 trial: tuple[ProfileFamily, WeightFamily] | None = None) -> BoundReport:
    """Convert an averaging-objective value C into a kinetic bound,

    k = d/(d+2 sigma) * (2 sigma/(d+2 sigma))^(4 sigma/d) * C^(-2 sigma/d).
    """
    if not (c_value > 0.0 and math.isfinite(c_value)):
        raise ValueError(f"c_value must be positive and finite, got {c_value!r}")
    eps = problem.sigma / problem.d
    # log(2 eps) - log1p(2 eps) = -log1p(1/(2 eps)), which does not cancel at large eps
    log_k = -math.log1p(2.0 * eps) - 4.0 * eps * math.log1p(0.5 / eps) - 2.0 * eps * math.log(c_value)
    method = "low_momentum_avg" if problem.sigma == 1.0 else "fractional_second"
    return BoundReport(problem=problem, method=method, log_k=log_k, c_value=c_value, trial=trial)


def _bound_lifted_1d(problem: ProblemSpec) -> BoundReport:
    # the d = 1 value transports to every dimension at sigma = 1
    return BoundReport(problem=problem, method="lifted_1d", log_k=-math.log(LIFTED_1D_L_RATIO) / problem.tau)


def bound_best_of(problem: ProblemSpec, c_value: float | None = None,
                  trial: tuple[ProfileFamily, WeightFamily] | None = None) -> BoundReport:
    """Best (largest k, smallest l) over every method applicable to the problem.

    Always includes the optimized momentum splitting; sigma = 1 adds the
    uniform baseline and the lifted d = 1 value; a c_value adds its
    conversion.  Duality makes max-k and min-l the same choice.
    """
    candidates = [bound_momentum_optimal(problem)]
    if problem.sigma == 1.0:
        candidates.append(bound_rumin_original(problem))
        candidates.append(_bound_lifted_1d(problem))
    if c_value is not None:
        candidates.append(bound_from_c(problem, c_value, trial))
    return replace(max(candidates, key=lambda rep: rep.log_k), method="best_of")


def product_identity_check(d1: int, d: int) -> float:
    """Relative residual of L_cl(1, d1) * L_cl(1 + d1/2, d - d1) = L_cl(1, d).

    Exactly zero in exact arithmetic for every 1 <= d1 < d; the return value
    is the roundoff-level residual of the log-space evaluation.
    """
    if not (1 <= d1 < d):
        raise ValueError(f"need 1 <= d1 < d, got d1={d1!r}, d={d!r}")
    lhs = l_cl_general(1.0, d1) * l_cl_general(1.0 + 0.5 * d1, d - d1)
    rhs = l_cl_general(1.0, d)
    return abs(lhs - rhs) / rhs


def large_d_limit_probe(d: int) -> float:
    """l_ratio of the optimized momentum splitting at large d, sigma = 1.

    Approaches e from below as d -> inf (log l = 1 - (5 - pi^2/3)/d +
    O(1/d^2)), which is the dimension-free envelope of that method.
    """
    return bound_momentum_optimal(ProblemSpec(d=d, sigma=1.0)).l_ratio
