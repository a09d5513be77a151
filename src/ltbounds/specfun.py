"""Special functions used throughout: log-Gamma, log-Beta, unit-ball volume.

Everything downstream (closed-form normalization constants, semiclassical
constants, the closed-form deficit minimum, the Mellin line of
functionals) reduces to Gamma-function arithmetic, so it is centralized
here with explicit domain checks.  Values are returned in log space for
callers to exponentiate once, which keeps ratios like Gamma(a)Gamma(b)/
Gamma(a+b) finite well past the overflow point of the Gamma function
itself.

A difference of log-Gammas at nearby or large arguments cancels, so it has
its own routines, which shift by the recurrence and difference Stirling's
series term by term: log_gamma_step (real, scalar), behind log_beta and the
Mellin line's pole corrections, and log_abs_gamma_step (complex ndarray),
behind bump_poly's transform.  beta forms B(a, b) as a product, to a few
ulp, for bump_poly's c and int phi^2, whose powers tau and 2 tau + 2 the
objective takes.  log_abs_gamma is log|Gamma(z)| on a complex ndarray,
real parts only, for the Mellin line's transform of the profile.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["log_gamma", "log_gamma_step", "log_beta", "beta", "log_abs_gamma", "log_abs_gamma_step",
           "unit_ball_volume"]


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


# log_gamma_step's Stirling difference starts at y >= _STEP_FROM, where the
# first dropped term, c_8 y^-15 at most 2e-18, is far below rounding.
_STEP_FROM = 12.0


def log_gamma_step(x: float, d: float) -> float:
    """log Gamma(x + d) - log Gamma(x) for x > 0 and x + d > 0, to rounding
    relative to the step itself, also for |d| far below x.

    For d >= 0 the recurrence Gamma(x + 1) = x Gamma(x) shifts x up to at
    least _STEP_FROM, summing log1p(d / (x + k)), and Stirling's series takes
    the difference at y >= _STEP_FROM as (y - 1/2) log1p(d/y) + d log(y + d)
    - d plus the tail terms c_k y^(1-2k) expm1((1-2k) log1p(d/y)); a
    negative d is the negated step down from x + d.
    """
    if d < 0.0:
        return -log_gamma_step(x + d, -d)
    acc = 0.0
    while x < _STEP_FROM:
        acc += math.log1p(d / x)
        x += 1.0
    lg = math.log1p(d / x)
    acc = (x - 0.5) * lg + d * math.log(x + d) - d - acc
    for k, c in enumerate(_STIRLING, 1):
        acc += c * x ** (1 - 2 * k) * math.expm1((1 - 2 * k) * lg)
    return acc


def log_beta(a: float, b: float) -> float:
    """log B(a,b) = log Gamma(a) + log Gamma(b) - log Gamma(a+b), a,b > 0.

    With b the larger argument, log Gamma(b) - log Gamma(a+b) is the step
    -log_gamma_step(b, a): the direct difference of three lgammas cancels,
    leaving B(1/2, 2e12) 0.4 % off and log B(20, 21) = -28.6 2.6e-14 off,
    where the step is 9e-15 off, under three of its ulps.  A log still
    carries a few ulps of its own size; beta gives B itself to a few ulp.
    """
    if b < a:
        a, b = b, a
    if not (b < math.inf):
        return log_gamma(a) + log_gamma(b) - log_gamma(a + b)  # raises
    return log_gamma(a) - log_gamma_step(b, a)


def beta(a: float, b: float) -> float:
    """B(a, b) for a, b > 0, to a few ulp where it is a normal float.

    With a <= b and a = n + f, f in [0, 1): Gamma(a) (by math.gamma) times
    Gamma(b) / Gamma(b + f) = exp(-log_gamma_step(b, f)), a number near 1,
    over the n factors (b + f)(b + f + 1)...; n + 3 roundings, each relative
    to the result, where exp(log_beta) would carry the absolute error of a
    log of magnitude |log B|.  Where a >= 171 or the product leaves the
    float range, exp(log_beta(a, b)).
    """
    if b < a:
        a, b = b, a
    if a < 171.0:
        n, f = divmod(a, 1.0)
        prod = math.prod(b + f + k for k in range(int(n)))
        val = math.gamma(a) * math.exp(-log_gamma_step(b, f)) / prod
        if 0.0 < val < math.inf:
            return val
    return math.exp(log_beta(a, b))


# log|Gamma(z)| for complex z: shift every element up to Re z >= _SHIFT_TO by the
# recurrence, then the seven Stirling terms, whose truncation error at |z| >= 8
# is below 1e-15.
_SHIFT_TO = 8.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_STIRLING_DESC = _STIRLING[::-1]


def _stirling_tail_complex(w):
    """sum_k c_k w^(1-2k) for a complex ndarray w."""
    t = 1.0 / w
    t2 = t * t
    acc = _STIRLING_DESC[0] * t2
    for c in _STIRLING_DESC[1:-1]:
        acc += c
        acc *= t2
    acc += _STIRLING_DESC[-1]
    return acc * t


def _shift(x) -> int:
    """The number of unit steps that takes every Re z >= min(x) to _SHIFT_TO."""
    return max(0, math.ceil(_SHIFT_TO - x.min(initial=_SHIFT_TO)))


def _shift_factors(x, y, n: int, offsets=(0.0,)):
    """prod_(k < n) |z + b + k|^2 per element for each offset b, one product
    over a (len(offsets), n, size) array."""
    fac = np.add.outer(np.add.outer(offsets, np.arange(n, dtype=float)), x)
    fac *= fac
    fac += y * y
    return fac.prod(axis=1)


def log_abs_gamma(z):
    """Re log Gamma(z) = log|Gamma(z)| for a complex ndarray z off the poles.

    Real parts only: the shift is log|prod (z + k)|, one log of a product,
    and Stirling's series at w = z + n, Re w >= 8, is (Re w - 1/2) log|w| -
    Im w arg w - Re w + log(2 pi)/2 + Re tail(w), with arg w in (-pi/2, pi/2),
    so no branch of the complex log is tracked.  For Re z > -1 and |z| <
    1e15 the absolute error stays below 1e-14 (1 + |z| log|z|), the rounding
    of terms of size |z| log|z|, and the shift product of at most nine
    factors does not overflow.
    """
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    n = _shift(x)
    wx = x + n
    out = 0.5 * np.log(wx * wx + y * y)
    out *= wx - 0.5
    out -= y * np.arctan2(y, wx)
    out -= wx
    out += _HALF_LOG_2PI
    out += _stirling_tail_complex(wx + 1j * y).real
    out -= 0.5 * np.log(_shift_factors(x, y, n)[0])
    return out


def log_abs_gamma_step(z, b: float):
    """Re log Gamma(z + b) - Re log Gamma(z) for a complex ndarray z with Re z
    > 0 and a real b > 0, with an absolute error of a few ulp of b log|z + b|
    where the difference of two log_abs_gamma calls would carry theirs, of
    |z| log|z|.

    z and z + b shift together by the same n steps to w with Re w >= 8, the
    shift giving -log|prod (z + b + k) / (z + k)|, and Stirling's series
    gives the difference at w as (w - 1/2) log1p(b/w) + b log(w + b) - b + tail(w + b)
    - tail(w), real parts taken, with Re log1p(zeta) = log1p(2 Re zeta +
    |zeta|^2) / 2 and Im log1p(zeta) = atan2(Im zeta, 1 + Re zeta).
    """
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    n = _shift(x)
    w = z + n
    zeta = b / w
    zr, zi = zeta.real, zeta.imag
    re_l = 0.5 * np.log1p(2.0 * zr + zr * zr + zi * zi)
    im_l = np.arctan2(zi, 1.0 + zr)
    out = (w.real - 0.5) * re_l - y * im_l
    out += 0.5 * b * np.log((w.real + b) ** 2 + y * y)
    out -= b
    tails = _stirling_tail_complex(np.concatenate((w + b, w))).real
    out += tails[:z.size]
    out -= tails[z.size:]
    up, base = _shift_factors(x, y, n, (b, 0.0))
    out -= 0.5 * np.log(up / base)
    return out


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
