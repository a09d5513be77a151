"""Adaptive panel quadrature with the embedded Gauss-Kronrod 15/7 pair.

Integrals of an averaging weight over (0,1) use the fixed graded_rule();
every other integral funnels through integrate(): the weighted deficit
functionals, the averaging objective's outer integrals, and the potential
integrals of the verification harness.  The scheme is plain adaptive
bisection: each panel carries the 15-point Kronrod value K15 and the
7-point Gauss value G7 taken from the same 15 integrand values (the K15
nodes contain the G7 nodes, as in QUADPACK's qk15), |K15 - G7| is the
panel's error estimate, and the worst panel is split until the summed
error meets the tolerance or the subdivision budget runs out.  Budget
exhaustion is reported through QuadResult.converged, never raised, so
callers decide whether a slow integral is fatal.

Semi-infinite ranges are folded to (0,1) by the rational substitution
t = a + u/(1-u), dt = du/(1-u)^2.  Kronrod nodes are interior, so neither
u = 1 nor an endpoint singularity of the integrand is ever evaluated.

Integrands must be vectorized: they receive a float ndarray of nodes and
must return an ndarray of the same shape.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadSpec", "QuadResult", "NonFiniteIntegrandError", "integrate", "graded_rule", "graded_tails"]

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
class QuadSpec:
    """Tolerance and budget knobs for integrate().

    Convergence means summed panel error <= max(abs_tol, rel_tol*|value|).
    """

    abs_tol: float = 1e-11
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (0.0 < self.abs_tol < math.inf):
            raise ValueError(f"abs_tol must be finite and > 0, got {self.abs_tol!r}")
        if not (0.0 <= self.rel_tol < math.inf):
            raise ValueError(f"rel_tol must be finite and >= 0, got {self.rel_tol!r}")
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be >= 1, got {self.max_subdivisions!r}")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool


DEFAULT_SPEC = QuadSpec()


def _panel(func, lo: float, hi: float):
    """Gauss-Kronrod 15/7 pair on one panel (QUADPACK qk15) -> (value, error).

    One integrand call on the 15 Kronrod nodes; the value is K15 and the
    error is |K15 - G7|, with G7 reusing the values at its own 7 nodes.
    """
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo) + half * _XK15
    y = func(x)
    if not np.isfinite(y).all():
        raise NonFiniteIntegrandError(f"integrand non-finite near node {x[~np.isfinite(y)][0]!r}")
    value, diff = (half * (_PANEL_WEIGHTS @ y)).tolist()
    return value, abs(diff)


def integrate(func, lo: float, hi: float, spec: QuadSpec | None = None) -> QuadResult:
    """Integrate func over (lo, hi), hi possibly math.inf.

    func maps an ndarray of nodes to an ndarray of values.  Endpoints are
    never evaluated.  Raises NonFiniteIntegrandError on nan/inf at a node;
    a blown subdivision budget comes back as converged=False.
    """
    if spec is None:
        spec = DEFAULT_SPEC
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("integration endpoints must not be nan")
    if not math.isfinite(lo):
        raise ValueError(f"lower endpoint must be finite, got {lo!r}")
    if hi < lo:
        raise ValueError(f"need lo <= hi, got ({lo!r}, {hi!r})")
    if lo == hi:
        return QuadResult(0.0, 0.0, 0, True)

    if math.isinf(hi):
        base = func
        shift = lo

        def func(u, _f=base, _a=shift):
            w = 1.0 / (1.0 - u)
            return _f(_a + u * w) * w * w

        lo, hi = 0.0, 1.0

    # Heap of (-error, seq, lo, hi, value, error); seq breaks ties so the
    # refinement order, and hence the result, is deterministic.
    seq = 0
    v, e = _panel(func, lo, hi)
    heap = [(-e, seq, lo, hi, v, e)]
    total_v, total_e = v, e
    frozen_v = frozen_e = 0.0  # panels too narrow to split further
    splits = 0

    while True:
        target = max(spec.abs_tol, spec.rel_tol * abs(total_v + frozen_v))
        if total_e + frozen_e <= target or not heap:
            break
        if splits >= spec.max_subdivisions:
            return QuadResult(total_v + frozen_v, total_e + frozen_e, splits, False)
        _, _, plo, phi, pv, pe = heapq.heappop(heap)
        total_v -= pv
        total_e -= pe
        mid = 0.5 * (plo + phi)
        if not (plo < mid < phi):
            frozen_v += pv
            frozen_e += pe
            continue
        splits += 1
        for qlo, qhi in ((plo, mid), (mid, phi)):
            v, e = _panel(func, qlo, qhi)
            seq += 1
            heapq.heappush(heap, (-e, seq, qlo, qhi, v, e))
            total_v += v
            total_e += e

    return QuadResult(total_v + frozen_v, total_e + frozen_e, splits, True)


def graded_rule(spec: QuadSpec | None = None):
    """Fixed rule on (0,1) -> read-only (nodes, weights), built once per abs_tol.

    Gauss-Legendre 15 panels graded to 2^-levels at both ends, levels =
    max(45, ceil(-log2 abs_tol) + 8); the first panel, in s = 2^-levels u^8,
    resolves a weight's s^q corner for q down to 0.05 even at large r.
    """
    return _graded_rule((spec or DEFAULT_SPEC).abs_tol)


def graded_tails(spec: QuadSpec | None = None):
    """Read-only (nodes, weights) of shape (panels, 15, 15): row [k, j] is Gauss-Legendre 15
    from node j of graded_rule(spec)'s panel k to the panel's end, in the panel's variable.
    Built on first use, once per abs_tol."""
    return _graded_tails((spec or DEFAULT_SPEC).abs_tol)


# leggauss is called inside the builders: importing numpy.polynomial costs
# about 1.6 MiB and 10 ms, which code that never integrates a weight skips
@functools.lru_cache(maxsize=8)  # one entry per abs_tol
def _graded_rule(abs_tol: float):
    nodes, weights = _graded_panels(abs_tol, *np.polynomial.legendre.leggauss(15))
    return nodes.ravel(), weights.ravel()


@functools.lru_cache(maxsize=8)  # one entry per abs_tol
def _graded_tails(abs_tol: float):
    x15, w15 = np.polynomial.legendre.leggauss(15)
    x_tail = x15[:, None] + 0.5 * (1.0 - x15[:, None]) * (1.0 + x15)  # row j spans [x15[j], 1]
    return _graded_panels(abs_tol, x_tail, 0.5 * (1.0 - x15[:, None]) * w15)


def _graded_panels(abs_tol: float, x, w):
    """A rule (x, w) on [-1, 1] mapped onto every graded panel -> read-only
    (nodes, weights) with a leading panel axis; the first panel in s = 2^-levels u^8."""
    levels = max(45, math.ceil(-math.log2(abs_tol)) + 8)
    dyadic = 2.0 ** -np.arange(levels, 0, -1)  # 2^-levels .. 1/2
    cuts = np.unique(np.concatenate(([0.0], dyadic, 1.0 - dyadic, [1.0])))
    half = (0.5 * np.diff(cuts)).reshape(-1, *(1,) * x.ndim)
    mid = (0.5 * (cuts[:-1] + cuts[1:])).reshape(half.shape)
    nodes, weights = mid + half * x, half * w
    u = 0.5 * (x + 1.0)  # the first panel in s = cuts[1] u^8
    nodes[0], weights[0] = cuts[1] * u**8, cuts[1] * 4.0 * u**7 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
