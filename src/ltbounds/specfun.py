"""Special functions used throughout: log-Gamma, log-Beta, unit-ball volume.

Everything downstream (closed-form normalization constants, semiclassical
constants, the closed-form deficit minimum) reduces to Gamma-function
arithmetic, so it is centralized here with explicit domain checks.  Values
are returned in log space for callers to exponentiate once, which keeps
ratios like Gamma(a)Gamma(b)/Gamma(a+b) finite well past the overflow point
of the Gamma function itself.
"""

from __future__ import annotations

import math

__all__ = ["log_gamma", "log_beta", "unit_ball_volume"]


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Absolute error stays below 1e-13 across [1e-3, 1e4].
    """
    if not (x > 0.0):
        raise ValueError(f"log_gamma requires x > 0, got {x!r}")
    if not math.isfinite(x):
        raise ValueError(f"log_gamma requires finite x, got {x!r}")
    return math.lgamma(x)


# c_k = B_2k / (2k (2k - 1)), k = 1..7: log Gamma(x) = (x - 1/2) log x - x
# + log(2 pi)/2 + sum_k c_k x^(1-2k), truncation error about 2e-24 at x = 30
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_tail(x: float) -> float:
    y, acc = 1.0 / (x * x), 0.0
    for c in reversed(_STIRLING):
        acc = acc * y + c
    return acc / x


def log_beta(a: float, b: float) -> float:
    """log B(a,b) = log Gamma(a) + log Gamma(b) - log Gamma(a+b), a,b > 0.

    With b the larger argument and b >= 30, log Gamma(b) - log Gamma(a+b) is
    -(b - 1/2) log1p(a/b) - a log(a+b) + a + tail(b) - tail(a+b) by Stirling's
    series; the direct difference would cancel, leaving B(1/2, 2e12) 0.4 % off.
    """
    if b < a:
        a, b = b, a
    if not (30.0 <= b < math.inf):
        return log_gamma(a) + log_gamma(b) - log_gamma(a + b)
    return (log_gamma(a) - (b - 0.5) * math.log1p(a / b) - a * math.log(a + b) + a
            + _stirling_tail(b) - _stirling_tail(a + b))


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in R^d: pi^(d/2) / Gamma(d/2 + 1).

    d = 0 is allowed (volume 1) since the recursion
    |B_d| = |B_{d-1}| * sqrt(pi) * Gamma((d+1)/2) / Gamma(d/2 + 1)
    bottoms out there.
    """
    if int(d) != d or d < 0:
        raise ValueError(f"dimension must be a non-negative integer, got {d!r}")
    d = int(d)
    if d == 0:
        return 1.0
    return math.exp(0.5 * d * math.log(math.pi) - log_gamma(0.5 * d + 1.0))
