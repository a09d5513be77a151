"""Spectral verification of the eigenvalue-sum inequality in one dimension.

For -u'' + V u on [-L, L] with Dirichlet walls, discretized by the standard
second-order stencil (diagonal 2/h^2 + V(x_i), off-diagonal -1/h^2), the
harness finds every negative eigenvalue and checks

  sum |negative eigenvalues|  <=  l_ratio * L_cl(1,1) * int V_-^(3/2) dx

with L_cl(1,1) = 2/(3 pi).  Negative eigenvalues are located by LDL^T pivot
passes, with no full diagonalization.  The count of negative pivots at a
shift equals the count of eigenvalues below it (Sturm), and every count
tightens the brackets of all eigenvalues.  The same pass carries
s = d/dx log|det(T - x)| (Wilkinson 1965; Li and Zeng 1994), so each
eigenvalue is refined by the Newton step x - 1/s while that step lands
inside its bracket and is at most half the move before last; otherwise the
bracket is bisected.  A step under half the tolerance is lengthened by a
quarter of it, so the next count closes the bracket from the far side.
Every eigenvalue ends in a Sturm-certified bracket of width at most
max(1e-10, 4 ulp(lower end of the spectrum)), and its midpoint is returned.
The potential integral is each kind's closed form, exact up to rounding.

Every potential kind is even and every grid is symmetric about 0, so the
n x n matrix commutes with the flip u_i -> u_(n-1-i) (it is centrosymmetric),
and its spectrum is exactly the union of the spectra of two tridiagonal
blocks of about n/2 rows each, one for even and one for odd eigenvectors
(Cantoni and Butler, Linear Algebra Appl. 13, 1976).  Only the left half of
the grid is built.  With e^2 = 1/h^4 the squared off-diagonal:

  odd n = 2m+1   even block: rows 0..m, last squared off-diagonal 2 e^2
                 (the centre row sees both equal neighbours); odd block:
                 rows 0..m-1 as they are (odd modes vanish at the centre)
  even n = 2m    both blocks rows 0..m-1, the neighbour across the centre
                 folded into the corner diagonal: 1/h^2 + V (even) and
                 3/h^2 + V (odd)

Each pivot pass therefore runs over one block, and sturm_count_below stays
a count on the full matrix.  The right half reuses the left half's V, so an
eigenvalue differs from that of the matrix on the full grid's own rounded
nodes by rounding only; the tests certify each one on that matrix.

Far from the well, 2/h^2 + V rounds to exactly c = 2/h^2: on a block's first
k such rows (its edge prefix, found once per block with numpy, at most all
rows but the last) the pass is a constant-coefficient recurrence with a
closed form.  With beta = 1/h^2 (c = 2 beta exactly) and 1 - x/(2 beta) =
cosh theta, the determinant of j prefix rows is beta^j U_j(cosh theta) =
beta^j sinh((j+1) theta)/sinh theta (Chebyshev U, second kind), so the pivot
after the prefix is q = beta sinh((k+1) theta)/sinh(k theta), beta (k+1)/k at
x = 0, and s and t = q'/q are d/dx log U_k and d/dx log q.  Every probe has
x <= 0, where each prefix pivot is at least beta and adds nothing to the
count, so each pass starts at row k from q, t and s.  The closed form is
within a few ulps of the exact pivot of the prefix with off-diagonal beta
(the tests find 1 ulp against 50-digit arithmetic), so the count is exact
for a matrix within a few ulps of the stored one: the grade of the loop's
own count (Demmel, Dhillon and Ren, ETNA 3, 1995).  Where k theta < 1e-3 the
slope's coth terms cancel, and that pass loops over the whole block.  The
shift-0 count of each block and sturm_count_below read no slope and run a
count-only loop.

Each search starts next to its root.  A grid of at least
_COARSEN * _COARSE_MIN = 400 nodes first solves the same well in the same
box on n // _COARSEN nodes, recursively, and the j-th eigenvalue of each
coarse parity block, counted from the bottom, is the first shift probed for
the j-th eigenvalue of the same block; smaller grids start from bracket
midpoints.  A start outside its eigenvalue's current bracket is replaced by
the midpoint.  Counts on the requested grid, with its own tolerance and
lower end, still close every bracket, so a wrong, missing or extra start
costs passes but never moves a result outside its bracket.  The coarse
levels are solved below the advisories, which fire for the requested grid
only.  SpectrumResult.sturm_passes counts the pivot passes on the requested
grid, and row_steps the rows that the passes' loops ran, summed over every
pass on every level; closed-form edge rows are not among them.

Discretization error in the eigenvalue sum scales as h^2 (the tests check
the 4x decay per grid doubling).  A GridTooCoarseWarning advisory fires when
the spacing h exceeds a quarter of the well width, when h sqrt(max|V|)
exceeds _RESOLUTION_LIMIT = 1 (the deepest states then vary on the grid
scale; a Gaussian's sum is 2 % off at 1 and 19 % at 2.25), and when |V| at
the box edge exceeds 1e-12.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import l_cl
from .functionals import ProblemSpec
from .trial import spec_from_json, spec_to_json

__all__ = [
    "GridTooCoarseWarning",
    "PotentialSpec",
    "GridSpec",
    "SpectrumResult",
    "InequalityCheck",
    "potential_values",
    "potential_integral",
    "sturm_count_below",
    "discretize_and_solve",
    "check_inequality",
    "default_suite",
    "potential_from_json",
    "grid_from_json",
]

# each kind and the fields it takes; PotentialSpec and potential_from_json read it
POTENTIAL_KINDS = {"poschl_teller": ("nu", "width"), "gaussian_well": ("depth", "width"),
                   "square_well": ("depth", "width")}

_L_CL_1D = l_cl(ProblemSpec(d=1, sigma=1.0))  # 2/(3 pi)
_SAFE_MIN = 2.2250738585072014e-308  # smallest normal float64
_BISECT_TOL = 1e-10
_RESOLUTION_LIMIT = 1.0  # h sqrt(max|V|) above this warns: the deepest states vary on the grid scale
_EDGE_SLOPE_MIN = 1e-3  # below this k theta the edge's slope comes from the loop: its coth terms cancel
MAX_GRID_POINTS = 10**7  # about 80 MB per float array; the largest grid in use has 16,001 nodes
_COARSEN = 4  # each coarser level that supplies starts has n_points // _COARSEN nodes
_COARSE_MIN = 100  # no coarser level below this many nodes: grids under 400 nodes start cold


class GridTooCoarseWarning(UserWarning):
    """The grid spacing exceeds a quarter of the well width or 1/sqrt(max|V|),
    or the box edge cuts off more than 1e-12 of |V|."""


@dataclass(frozen=True)
class PotentialSpec:
    """One attractive potential.  Fields by kind:

    poschl_teller  V(x) = -nu(nu+1)/width^2 * sech^2(x/width); integer nu
                   gives the exactly solvable spectrum -(nu-k)^2/width^2
    gaussian_well  V(x) = -depth * exp(-(x/width)^2)
    square_well    V(x) = -depth on |x| <= width/2, else 0
    """

    kind: str
    nu: float | None = None
    depth: float | None = None
    width: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if not (0.0 < self.width < math.inf):
            raise ValueError(f"width must be positive and finite, got {self.width!r}")
        for name in ("nu", "depth"):
            if name not in POTENTIAL_KINDS[self.kind] and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} takes {'/'.join(POTENTIAL_KINDS[self.kind])}, not {name}")
        if self.kind == "poschl_teller":
            if self.nu is None or not (0.0 < self.nu < math.inf):
                raise ValueError(f"poschl_teller requires finite nu > 0, got {self.nu!r}")
        elif self.depth is None or not (0.0 <= self.depth < math.inf):
            raise ValueError(f"{self.kind} requires finite depth >= 0, got {self.depth!r}")
        try:
            integral = potential_integral(self)
        except (OverflowError, ZeroDivisionError):
            integral = math.inf
        if not math.isfinite(integral):
            raise ValueError(f"int V_-^(3/2) of this {self.kind} must be finite, got {integral!r}")

    to_json = spec_to_json


@dataclass(frozen=True)
class GridSpec:
    """Dirichlet box [-half_width, half_width] with n_points interior nodes,
    3 <= n_points <= MAX_GRID_POINTS."""

    half_width: float
    n_points: int

    def __post_init__(self):
        if not (0.0 < self.half_width < math.inf):
            raise ValueError(f"half_width must be positive and finite, got {self.half_width!r}")
        if not (3 <= self.n_points <= MAX_GRID_POINTS) or int(self.n_points) != self.n_points:
            raise ValueError(f"n_points must be an integer in [3, {MAX_GRID_POINTS}], got {self.n_points!r}")
        object.__setattr__(self, "n_points", int(self.n_points))
        h = 2.0 * self.half_width / (self.n_points + 1)
        try:  # the parity blocks' squared off-diagonals are (1/h^2)^2 and 2/h^4
            off2 = (1.0 / h**2) ** 2
        except (OverflowError, ZeroDivisionError):
            off2 = math.inf
        if not (sys.float_info.min <= off2 and 2.0 * off2 < math.inf):
            raise ValueError(f"grid spacing {h!r} must have finite, nonzero h^2, "
                             "a normal (1/h^2)^2 and a finite 2/h^4")

    to_json = spec_to_json


@dataclass(frozen=True)
class SpectrumResult:
    potential: PotentialSpec
    grid: GridSpec
    negative_eigenvalues: tuple[float, ...]  # descending, closest to 0 first
    sum_negative: float
    potential_integral: float
    sturm_passes: int  # LDL^T pivot passes on this grid, each over one parity block of ceil(n/2) or floor(n/2) rows
    row_steps: int  # rows the pivot loops ran over every pass, on this grid and each coarser level

    def to_json(self) -> dict:
        return {
            "potential": self.potential.to_json(),
            "grid": self.grid.to_json(),
            "negative_eigenvalues": list(self.negative_eigenvalues),
            "sum_negative": self.sum_negative,
            "potential_integral": self.potential_integral,
        }


class InequalityCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool
    margin: float


def potential_values(pot: PotentialSpec, x):
    """V(x) on an ndarray of positions."""
    x = np.asarray(x, dtype=float)
    if pot.kind == "poschl_teller":
        with np.errstate(over="ignore"):
            sech = 1.0 / np.cosh(x / pot.width)
        return -pot.nu * (pot.nu + 1.0) / pot.width**2 * sech * sech
    if pot.kind == "gaussian_well":
        return -pot.depth * np.exp(-((x / pot.width) ** 2))
    return np.where(np.abs(x) <= 0.5 * pot.width, -pot.depth, 0.0)


def _max_depth(pot: PotentialSpec) -> float:
    """max |V| in closed form: nu(nu+1)/width^2 for poschl_teller, else depth."""
    if pot.kind == "poschl_teller":
        return pot.nu * (pot.nu + 1.0) / pot.width**2
    return pot.depth


def potential_integral(pot: PotentialSpec) -> float:
    """int_R V_-(x)^(3/2) dx in closed form:

    poschl_teller  (nu(nu+1))^(3/2) pi / (2 width^2), from int sech^3 = pi/2
    gaussian_well  depth^(3/2) width sqrt(pi/1.5)
    square_well    depth^(3/2) width
    """
    if pot.kind == "poschl_teller":
        return (pot.nu * (pot.nu + 1.0)) ** 1.5 * math.pi / (2.0 * pot.width**2)
    if pot.kind == "gaussian_well":
        return pot.depth**1.5 * pot.width * math.sqrt(math.pi / 1.5)
    return pot.depth**1.5 * pot.width


def sturm_count_below(diag, off, shift: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal matrix below shift.

    diag is the diagonal, off the (constant or per-entry) off-diagonal.
    Counts negative pivots of the shifted LDL^T factorization with the
    standard tiny-pivot replacement, which is an exact eigenvalue count in
    floating point.
    """
    if math.isnan(shift):
        raise ValueError("shift must not be nan")
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    # one power of two brings the largest magnitude into [0.5, 1): off^2 cannot underflow
    top = max(float(np.abs(diag).max(initial=0.0)), float(np.abs(off).max(initial=0.0)), abs(shift))
    if 0.0 < top < math.inf:
        exponent = -math.frexp(top)[1]
        diag, off, shift = np.ldexp(diag, exponent), np.ldexp(off, exponent), math.ldexp(shift, exponent)
    off2 = np.square(off)
    if off2.ndim == 0:
        off2 = np.full(diag.size - 1, float(off2))
    if off2.size != diag.size - 1:
        raise ValueError(f"off-diagonal length {off2.size} does not match diagonal length {diag.size}")
    return _count(diag.tolist(), [0.0, *off2.tolist()], float(shift), _SAFE_MIN, math.inf)  # max off^2 <= 1


# Two loops run an LDL^T pivot pass of T - shift from row 0 of the lists on,
# given the pivot q of the row before (inf before a matrix's first row, whose
# off2[0] is 0): off2[i] couples row i to the row before it.  A pivot in
# (-pivmin, pivmin) is replaced by -pivmin and counted.

def _count(diag: list, off2: list, shift: float, pivmin: float, q: float) -> int:
    """The count of negative pivots q_i, for passes that need no slope."""
    count = 0
    for d, e2 in zip(diag, off2):
        q = d - shift - e2 / q
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
    return count


def _pivots(diag: list, off2: list, shift: float, pivmin: float,
            q: float = math.inf, t: float = 0.0, s: float = -0.0) -> tuple[int, float]:
    """The count of negative pivots q_i, and s = sum q_i'/q_i = d/dshift
    log|det(T - shift)|, carried as t_i = q_i'/q_i; t and s enter as those of
    the rows before (0 and -0, which adds to any t exactly, before row 0)."""
    count = 0
    for d, e2 in zip(diag, off2):
        r = e2 / q
        q = d - shift - r
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
        t = (r * t - 1.0) / q
        s += t
    return count, s


def _edge(k: int, beta: float, x: float, slope: bool) -> tuple[float, float, float] | None:
    """The last LDL^T pivot q of k >= 1 rows with diagonal 2 beta - x,
    off-diagonal beta and x <= 0, in closed form, and with slope its
    t = q'/q and the rows' s = d/dx log det; None for the slope where
    k theta < _EDGE_SLOPE_MIN, whose differences of coth terms cancel.

    With 1 - x/(2 beta) = cosh theta the determinant of j such rows is
    beta^j U_j = beta^j sinh((j+1) theta)/sinh theta (Chebyshev), so
    q = beta sinh((k+1) theta)/sinh(k theta) = beta (cosh theta + sinh theta
    coth(k theta)), a sum of two positive terms; it is beta (k+1)/k at x = 0
    and at least beta for every x <= 0."""
    delta = -x / (2.0 * beta)
    sinh = math.sqrt(delta * (2.0 + delta))
    theta = math.log1p(delta + sinh)
    if theta == 0.0:
        q = beta * (k + 1) / k
    else:
        q = 0.5 * (2.0 * beta - x) + beta * sinh / math.tanh(k * theta)
    if not slope:
        return q, math.nan, math.nan
    if k * theta < _EDGE_SLOPE_MIN:
        return None
    # d/dx = -1/(2 beta sinh theta) d/dtheta, and d/dtheta log U_k = (k+1) coth((k+1) theta) - coth theta;
    # d/dtheta log q = (sinh(m theta) - m sinh theta) / (2 sinh(k theta) sinh((k+1) theta)), m = 2k+1,
    # scaled by e^(-m theta) so that it neither overflows nor cancels more than its leading term
    scale = -1.0 / (2.0 * beta * sinh)
    s = scale * ((k + 1) / math.tanh((k + 1) * theta) - (1.0 + delta) / sinh)
    m = 2 * k + 1
    dlog_q = ((-math.expm1(-2.0 * m * theta) - 2.0 * m * sinh * math.exp(-m * theta))
              / (math.expm1(-2.0 * k * theta) * math.expm1(-2.0 * (k + 1) * theta)))
    return q, scale * dlog_q, s


class _Block(NamedTuple):
    """A symmetric tridiagonal block: diag, off2 with off2[0] = 0, and its
    edge prefix, the first `edge` rows (0 for none), whose diagonal is
    2 beta and whose off-diagonal is beta; rest holds diag and off2 after it."""

    diag: list
    off2: list
    edge: int
    beta: float
    rest: tuple[list, list]

    def start(self, x: float, slope: bool) -> tuple[list, list, float, float, float]:
        """The rows a pass at shift x loops over, and the q, t and s it starts
        from: after the edge prefix where x <= 0, else from row 0."""
        if self.edge and x <= 0.0:
            state = _edge(self.edge, self.beta, x, slope)
            if state is not None:
                return *self.rest, *state
        return self.diag, self.off2, math.inf, 0.0, -0.0


def _edge_rows(diag: np.ndarray, c: float) -> int:
    """The number of leading entries of diag equal to c."""
    unequal = np.flatnonzero(diag != c)
    return int(unequal[0]) if unequal.size else diag.size


def _block(diag: list, off2: list, edge: int) -> _Block:
    """The block with diagonal diag and squared off-diagonal off2, one entry
    shorter, whose first `edge` rows have diagonal exactly 2 beta = diag[0],
    beta > 0 with a normal beta^2, and squared off-diagonal exactly beta^2
    among them.  The prefix is capped at all rows but the last and used from
    2 rows on."""
    edge = min(edge, len(diag) - 1)
    edge = edge if edge >= 2 else 0
    off2 = [0.0, *off2]
    return _Block(diag, off2, edge, 0.5 * diag[0], (diag[edge:], off2[edge:]))


def _negative_eigenvalues(block: _Block, lower: float, starts) -> tuple[list, int, int]:
    """All eigenvalues in [lower, 0) of the block, ascending, the pivot passes
    spent and the rows they looped over.  The search for eigenvalue j first
    probes starts[j] if it lies strictly inside that eigenvalue's bracket,
    else the bracket's midpoint.  Counts alone close every bracket, so a start
    changes the passes spent, never what is certified."""
    tol = max(_BISECT_TOL, 4.0 * math.ulp(lower))  # from |lower| = 2^19 on, ulp(lower) > _BISECT_TOL
    pivmin = _SAFE_MIN * max(1.0, max(block.off2))
    diag, off2, q, _, _ = block.start(0.0, slope=False)
    m = _count(diag, off2, 0.0, pivmin, q)
    passes, rows = 1, len(diag)
    lo = [lower] * m
    hi = [0.0] * m
    for j in range(m):
        x = starts[j] if j < len(starts) and lo[j] < starts[j] < hi[j] else 0.5 * (lo[j] + hi[j])
        moved = older = hi[j] - lo[j]
        while hi[j] - lo[j] > tol:
            diag, off2, q, t, s = block.start(x, slope=True)
            count, s = _pivots(diag, off2, x, pivmin, q, t, s)
            passes += 1
            rows += len(diag)
            for k in range(m):  # every count tightens every bracket
                if count > k:
                    hi[k] = min(hi[k], x)
                else:
                    lo[k] = max(lo[k], x)
            step = -1.0 / s if s else math.inf
            if abs(step) < 0.5 * tol:  # converged: probe just past the root
                step += math.copysign(0.25 * tol, step)
            y = x + step
            if not (lo[j] < y < hi[j] and abs(step) <= 0.5 * max(older, tol)):
                y = 0.5 * (lo[j] + hi[j])
            x, moved, older = y, abs(y - x), moved
    return [0.5 * (lo[k] + hi[k]) for k in range(m)], passes, rows


def _coarser(grid: GridSpec) -> GridSpec | None:
    """The same box with n_points // _COARSEN nodes, or None below _COARSE_MIN
    nodes or where GridSpec rejects that spacing."""
    n = grid.n_points // _COARSEN
    if n < _COARSE_MIN:
        return None
    try:
        return GridSpec(grid.half_width, n)
    except ValueError:
        return None


def _parity_spectra(pot: PotentialSpec, grid: GridSpec) -> tuple[list, int, int]:
    """The ascending negative eigenvalues of the even and the odd parity block,
    the pivot passes on this grid, and the pivot row-steps on it and on every
    coarser level.  Each block's first probes are the eigenvalues of the
    coarser grid, matched from the bottom; a grid with no coarser level
    starts cold."""
    coarse = _coarser(grid)
    starts, row_steps = ([], []), 0
    if coarse is not None:
        starts, _, row_steps = _parity_spectra(pot, coarse)
    n, L = grid.n_points, grid.half_width
    h = 2.0 * L / (n + 1)
    m = n // 2
    x = -L + h * np.arange(1, n - m + 1)  # the left half, and the centre node for odd n
    V = potential_values(pot, x)
    diag = 2.0 / h**2 + V
    edge = _edge_rows(diag, 2.0 / h**2)  # leading rows where V rounds away against 2/h^2
    diag = diag.tolist()
    e2 = (1.0 / h**2) ** 2
    off2 = [e2] * (m - 1)
    if n % 2:  # even modes see the centre's two equal neighbours, odd modes vanish at the centre
        blocks = ((diag, off2 + [2.0 * e2]), (diag[:m], off2))
    else:  # the neighbour across the centre is +-u, folded into the corner
        corner = float(V[-1])
        blocks = ((diag[:-1] + [1.0 / h**2 + corner], off2), (diag[:-1] + [3.0 / h**2 + corner], off2))
    lower = float(V.min()) - 1.0
    spectra, passes = [], 0
    for block, block_starts in zip(blocks, starts):
        block_eigs, block_passes, block_rows = _negative_eigenvalues(_block(*block, edge), lower, block_starts)
        spectra.append(block_eigs)
        passes += block_passes
        row_steps += block_rows
    return spectra, passes, row_steps


def discretize_and_solve(pot: PotentialSpec, grid: GridSpec) -> SpectrumResult:
    """Negative spectrum of -d^2/dx^2 + V on the Dirichlet grid, with the
    spacing, resolution and box-edge advisories (GridTooCoarseWarning)."""
    n, L = grid.n_points, grid.half_width
    h = 2.0 * L / (n + 1)
    if h > 0.25 * pot.width:
        warnings.warn(f"grid spacing {h:.3e} exceeds a quarter of the well width {pot.width!r}; "
                      "the grid does not resolve the well", GridTooCoarseWarning, stacklevel=2)
    resolution = h * math.sqrt(_max_depth(pot))
    if resolution > _RESOLUTION_LIMIT:
        warnings.warn(f"grid spacing times sqrt(max|V|) is {resolution:.3g}, above {_RESOLUTION_LIMIT}; "
                      "the grid does not resolve the deepest states", GridTooCoarseWarning, stacklevel=2)
    edge = abs(float(potential_values(pot, np.array([L]))[0]))
    if edge > 1e-12:
        warnings.warn(f"potential magnitude {edge:.3e} at the box edge; "
                      "half_width truncates the tail", GridTooCoarseWarning, stacklevel=2)
    spectra, passes, row_steps = _parity_spectra(pot, grid)
    eigs = sorted(spectra[0] + spectra[1])
    return SpectrumResult(potential=pot, grid=grid,
                          negative_eigenvalues=tuple(reversed(eigs)),
                          sum_negative=-float(sum(eigs)) + 0.0,
                          potential_integral=potential_integral(pot),
                          sturm_passes=passes, row_steps=row_steps)


def check_inequality(result: SpectrumResult, l_ratio: float) -> InequalityCheck:
    """Compare sum |E_i| against l_ratio * L_cl(1,1) * int V_-^(3/2)."""
    if not (l_ratio > 0.0 and math.isfinite(l_ratio)):
        raise ValueError(f"l_ratio must be positive and finite, got {l_ratio!r}")
    lhs = result.sum_negative
    rhs = l_ratio * (_L_CL_1D * result.potential_integral)  # l_ratio times the semiclassical sum
    return InequalityCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs, margin=rhs - lhs)


def default_suite() -> tuple[tuple[PotentialSpec, GridSpec], ...]:
    """Built-in potential/grid pairs covering all kinds, including the
    exactly solvable reflectionless wells."""
    return (
        (PotentialSpec(kind="poschl_teller", nu=1.0), GridSpec(20.0, 8001)),
        (PotentialSpec(kind="poschl_teller", nu=2.0), GridSpec(20.0, 8001)),
        (PotentialSpec(kind="gaussian_well", depth=5.0, width=2.0), GridSpec(14.0, 4001)),
        (PotentialSpec(kind="square_well", depth=3.0, width=2.0), GridSpec(10.0, 4001)),
    )


def potential_from_json(obj: dict) -> PotentialSpec:
    """Inverse of PotentialSpec.to_json; rejects unknown kinds and fields."""
    return spec_from_json(obj, PotentialSpec, "potential", POTENTIAL_KINDS)


def grid_from_json(obj: dict) -> GridSpec:
    """Inverse of GridSpec.to_json; rejects unknown and missing fields."""
    return spec_from_json(obj, GridSpec, "grid")
