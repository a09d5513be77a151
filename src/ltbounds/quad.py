"""Panel quadrature with one panel rule, QUADPACK's Kronrod 15.

Every integral runs over the unit interval (0, 1).  Integrals of an
averaging weight use the one fixed graded_rule(), Kronrod 15 panels graded
toward both ends; every other integral (the deficit integral, its two
halves mapped onto (0, 1) and summed) runs through the adaptive
integrate(), whose tolerances and budget are the module constants _ABS_TOL,
_REL_TOL and _MAX_SUBDIVISIONS, read at call time.  The scheme is
adaptive bisection in rounds: each panel carries the 15-point Kronrod value
K15 and the 7-point Gauss value G7 taken from the same 15 integrand values
(the K15 nodes contain the G7 nodes, as in QUADPACK's qk15), and |K15 - G7|
is the panel's error estimate.  The interval starts as _START_PANELS equal
panels.  Each round picks panels worst first, ties by position, until the
summed error of the panels left fits the tolerance, splits every picked
panel and scores all the halves; every round, the first included, is one
integrand call.  Rounds go on until the summed error meets the tolerance or
the subdivision budget runs out.  Budget exhaustion is reported through
QuadResult.converged, never raised, so callers decide whether a slow
integral is fatal.

Callers map any other range onto (0, 1) with a substitution that suits the
integrand, an infinite range by its decay.  Kronrod nodes are interior, so
an endpoint singularity of the integrand is never evaluated.

Integrands must be vectorized: they receive a 1-D float ndarray of nodes,
15 per panel, and must return an ndarray of the same shape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadResult", "NonFiniteIntegrandError", "integrate", "graded_rule", "graded_tails"]

# QUADPACK qk15 constants (Piessens, de Doncker-Kapenga, Ueberhuber and
# Kahaner, 1983): the non-negative K15 abscissae, largest first, their K15
# weights, and the G7 weights of xgk[1], xgk[3], xgk[5], xgk[7].
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.000000000000000000000000000000000])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327])

# The 15 nodes on [-1, 1], ascending; the G7 nodes sit at the odd positions.
_XK15 = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_WK15 = np.concatenate((_WGK[:-1], _WGK[::-1]))
_WG7 = np.zeros(15)
_WG7[1::2] = np.concatenate((_WG[:-1], _WG[::-1]))
# Rows: K15 weights, and K15 - G7 weights for the error estimate.
_PANEL_WEIGHTS = np.array([_WK15, _WK15 - _WG7])


class NonFiniteIntegrandError(ValueError):
    """Integrand produced nan or inf at a quadrature node."""


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool


# Convergence means summed panel error <= max(_ABS_TOL, _REL_TOL * |value|).
_ABS_TOL = 1e-11
_REL_TOL = 1e-10
_MAX_SUBDIVISIONS = 2000
_START_PANELS = 4  # integrate() scores these equal panels in its first call
_START_EDGES = np.linspace(0.0, 1.0, _START_PANELS + 1)


def _panels(func, los, his):
    """Gauss-Kronrod 15/7 pair (QUADPACK qk15) on every panel (los[i], his[i])
    -> array of two rows, values and errors.

    One integrand call on the 15 Kronrod nodes of every panel, panel after
    panel; each value is K15 and each error |K15 - G7|, with G7 reusing the
    values at its own 7 nodes.
    """
    half = 0.5 * (his - los)
    x = (0.5 * (his + los))[:, None] + half[:, None] * _XK15
    y = func(x.ravel()).reshape(x.shape)
    out = _PANEL_WEIGHTS @ y.T  # rows: values, then K15 - G7
    out *= half
    # every K15 weight is positive, so a nan or inf node value makes the sum non-finite
    if not math.isfinite(np.add.reduce(out[0])) and not np.isfinite(y).all():
        raise NonFiniteIntegrandError(f"integrand non-finite near node {x[~np.isfinite(y)][0]!r}")
    np.abs(out[1], out=out[1])
    return out


# The start edges are quarters and bisection is exact, so every panel is a
# dyadic interval [k 2^-j, (k + 1) 2^-j] of (0, 1): its midpoint is exact
# while j < 53, and only a panel narrower than _NARROW can lose it to rounding.
_NARROW = 2.0**-50


def integrate(func) -> QuadResult:
    """Integrate func over (0, 1).

    func maps an ndarray of nodes to an ndarray of values.  The endpoints
    are never evaluated.  Raises NonFiniteIntegrandError on nan/inf at a
    node; a blown subdivision budget comes back as converged=False.
    """
    edges = np.array([_START_EDGES[:-1], _START_EDGES[1:]])
    pan = np.concatenate((edges, _panels(func, *edges)))  # rows: each panel's lo, hi, value and error
    frozen_v = frozen_e = 0.0  # panels too narrow to split further
    splits = 0

    while True:
        los, his, vals, errs = pan
        # numpy sums steer the rounds; the value returned is an fsum
        total_v, total_e = np.add.reduce(pan[2:], axis=1).tolist()
        total_e += frozen_e
        target = max(_ABS_TOL, _REL_TOL * abs(total_v + frozen_v))
        if total_e <= target or not los.size or splits >= _MAX_SUBDIVISIONS:
            converged = total_e <= target or not los.size
            return QuadResult(math.fsum(vals.tolist()) + frozen_v, total_e, splits, converged)
        # worst first, ties by position, until the panels left fit the target
        order = np.lexsort((los, -errs))
        short = int(np.add.accumulate(errs[order]).searchsorted(total_e - target))
        picked = order[:min(short + 1, _MAX_SUBDIVISIONS - splits)]
        plo, phi = los[picked], his[picked]
        mids = 0.5 * (plo + phi)
        if np.minimum.reduce(phi - plo) < _NARROW and not ((plo < mids) & (mids < phi)).all():
            # freeze the panels too narrow to split, then pick again
            gone = picked[(mids <= plo) | (mids >= phi)]
            frozen_v += math.fsum(vals[gone].tolist())
            frozen_e += math.fsum(errs[gone].tolist())
            pan = np.delete(pan, gone, axis=1)
            continue
        splits += picked.size
        # left halves replace their parents, right halves go at the end
        kids = np.array([plo, mids, mids, phi]).reshape(2, -1)  # rows: each half's lo, then hi
        kids = np.concatenate((kids, _panels(func, *kids)))
        pan[:, picked] = kids[:, :picked.size]
        pan = np.concatenate((pan, kids[:, picked.size:]), axis=1)


@functools.cache
def graded_rule():
    """Fixed rule on (0,1) -> read-only (nodes, weights), built on first use.

    Kronrod 15 panels (integrate()'s own panel rule) graded to 2^-45 at both
    ends; the first panel, in s = 2^-45 u^8, resolves a weight's s^q corner
    for q down to 0.05 even at large r.
    """
    nodes, weights = _graded_panels(_XK15, _WK15)
    return nodes.ravel(), weights.ravel()


@functools.cache
def graded_tails():
    """Read-only (nodes, weights) of shape (panels, 15, 15): row [k, j] is Kronrod 15
    from node j of graded_rule()'s panel k to the panel's end, in the panel's variable.
    Built on first use."""
    x_tail = _XK15[:, None] + 0.5 * (1.0 - _XK15[:, None]) * (1.0 + _XK15)  # row j spans [_XK15[j], 1]
    return _graded_panels(x_tail, 0.5 * (1.0 - _XK15[:, None]) * _WK15)


def _graded_panels(x, w):
    """A rule (x, w) on [-1, 1] mapped onto every graded panel -> read-only
    (nodes, weights) with a leading panel axis; the first panel in s = 2^-45 u^8."""
    dyadic = 2.0 ** -np.arange(45, 0, -1)  # 2^-45 .. 1/2
    cuts = np.unique(np.concatenate(([0.0], dyadic, 1.0 - dyadic, [1.0])))
    half = (0.5 * np.diff(cuts)).reshape(-1, *(1,) * x.ndim)
    mid = (0.5 * (cuts[:-1] + cuts[1:])).reshape(half.shape)
    nodes, weights = mid + half * x, half * w
    u = 0.5 * (x + 1.0)  # the first panel in s = cuts[1] u^8
    nodes[0], weights[0] = cuts[1] * u**8, cuts[1] * 4.0 * u**7 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
