import math
import re
import struct
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from ltbounds import verify
from ltbounds.constants import CONJECTURED_1D_L_RATIO, UNIVERSAL_L_RATIO

PT1 = verify.PotentialSpec(kind="poschl_teller", nu=1.0)
PT2 = verify.PotentialSpec(kind="poschl_teller", nu=2.0)
GRID = verify.GridSpec(half_width=20.0, n_points=4001)


def _tridiag(pot, grid):
    h = 2.0 * grid.half_width / (grid.n_points + 1)
    x = -grid.half_width + h * np.arange(1, grid.n_points + 1)
    V = verify.potential_values(pot, x)
    diag = 2.0 / h**2 + V
    off = np.full(grid.n_points - 1, -1.0 / h**2)
    return diag, off, float(V.min())


def _full_block(pot, grid):
    """The full matrix of _tridiag as one pivot block, with its edge prefix."""
    diag, off, _ = _tridiag(pot, grid)
    h = 2.0 * grid.half_width / (grid.n_points + 1)
    e2 = float(off[0]) ** 2
    return verify._block(diag.tolist(), e2, e2, verify._edge_rows(diag, 2.0 / h**2))


def test_potential_spec_validation():
    with pytest.raises(ValueError):
        verify.PotentialSpec(kind="poschl_teller", nu=-1.0)
    with pytest.raises(ValueError):
        verify.PotentialSpec(kind="poschl_teller", nu=1.0, depth=2.0)
    with pytest.raises(ValueError):
        verify.PotentialSpec(kind="square_well", nu=1.0)
    with pytest.raises(ValueError):
        verify.PotentialSpec(kind="gaussian_well", depth=-2.0)
    with pytest.raises(ValueError):
        verify.PotentialSpec(kind="morse", depth=1.0)
    with pytest.raises(ValueError):
        verify.GridSpec(half_width=0.0, n_points=101)
    with pytest.raises(ValueError):
        verify.GridSpec(half_width=5.0, n_points=2)


def test_potential_values_shapes():
    x = np.linspace(-3.0, 3.0, 7)
    pt = verify.potential_values(PT1, x)
    assert pt.shape == x.shape
    assert np.all(pt <= 0.0)
    np.testing.assert_allclose(pt[3], -2.0, rtol=1e-14)  # -nu(nu+1) sech^2(0)
    sq = verify.potential_values(verify.PotentialSpec(kind="square_well", depth=3.0, width=2.0), x)
    np.testing.assert_array_equal(sq, np.where(np.abs(x) <= 1.0, -3.0, 0.0))


def test_potential_integral_closed_forms():
    # int |V|^(3/2): sech gives (nu(nu+1))^(3/2) pi / (2 w^2)
    got = verify.potential_integral(PT2)
    np.testing.assert_allclose(got, 6.0**1.5 * math.pi / 2.0, rtol=1e-10)
    g = verify.PotentialSpec(kind="gaussian_well", depth=5.0, width=2.0)
    np.testing.assert_allclose(verify.potential_integral(g),
                               5.0**1.5 * 2.0 * math.sqrt(math.pi / 1.5), rtol=1e-10)
    s = verify.PotentialSpec(kind="square_well", depth=3.0, width=2.0)
    np.testing.assert_allclose(verify.potential_integral(s), 2.0 * 3.0**1.5, rtol=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(verify.POTENTIAL_KINDS)), st.floats(0.1, 20.0), st.floats(0.0, 1e4), st.floats(0.1, 10.0))
@example(kind="gaussian_well", nu=1.0, depth=8.771695823295842e-43, width=1.0)
def test_potential_integral_against_mpmath(kind, nu, depth, width):
    """The closed forms against 30-digit quadrature of |V|^(3/2) over the line.

    The well's scale |V(0)|^(3/2) is taken out of the integrand: mpmath's
    tolerance is absolute, and depth reaches down to subnormal numbers."""
    if kind == "poschl_teller":
        pot = verify.PotentialSpec(kind=kind, nu=nu, width=width)
        scale = mpmath.mpf(nu) * (nu + 1) / mpmath.mpf(width) ** 2
        shape = lambda x: mpmath.sech(x / width) ** 2
    else:
        pot = verify.PotentialSpec(kind=kind, depth=depth, width=width)
        scale = mpmath.mpf(depth)
        shape = lambda x: mpmath.exp(-((x / width) ** 2))
    with mpmath.workdps(30):
        if kind == "square_well":
            want = scale**1.5 * mpmath.quad(lambda x: 1, [-width / 2, width / 2])
        else:
            want = scale**1.5 * mpmath.quad(lambda x: shape(x) ** 1.5, [-mpmath.inf, -width, 0, width, mpmath.inf])
    # atol: an integral below the normal range keeps only an absolute precision of 2^-1074
    np.testing.assert_allclose(verify.potential_integral(pot), float(want), rtol=1e-13, atol=1e-300)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(verify.POTENTIAL_KINDS)), st.floats(0.1, 20.0), st.floats(0.1, 10.0),
       st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20))
def test_potential_values_are_even(kind, strength, width, xs):
    """discretize_and_solve solves the even and odd parity blocks of a grid symmetric about 0,
    which holds only for an even V."""
    if kind == "poschl_teller":
        pot = verify.PotentialSpec(kind=kind, nu=strength, width=width)
    else:
        pot = verify.PotentialSpec(kind=kind, depth=strength, width=width)
    x = np.array(xs)
    np.testing.assert_allclose(verify.potential_values(pot, -x), verify.potential_values(pot, x),
                               rtol=1e-15, atol=0.0,
                               err_msg=f"{kind} is not even: it needs the full-matrix solve")


def test_poschl_teller_exact_spectra():
    """nu = 1 binds exactly {-1}; nu = 2 binds {-4, -1}."""
    res1 = verify.discretize_and_solve(PT1, verify.GridSpec(half_width=20.0, n_points=8001))
    assert len(res1.negative_eigenvalues) == 1
    np.testing.assert_allclose(res1.negative_eigenvalues[0], -1.0, atol=1e-3)
    np.testing.assert_allclose(res1.sum_negative, 1.0, atol=1e-3)

    res2 = verify.discretize_and_solve(PT2, verify.GridSpec(half_width=20.0, n_points=8001))
    assert len(res2.negative_eigenvalues) == 2
    np.testing.assert_allclose(res2.negative_eigenvalues, (-1.0, -4.0), atol=1e-3)
    np.testing.assert_allclose(res2.sum_negative, 5.0, atol=1e-3)
    np.testing.assert_allclose(res2.sum_negative, -sum(res2.negative_eigenvalues), rtol=1e-15)


def test_eigenvalues_match_dense_solver():
    diag, off, vmin = _tridiag(PT2, GRID)
    dense = eigvalsh_tridiagonal(diag, off, select="v", select_range=(vmin - 1.0, 0.0))
    ours = verify.discretize_and_solve(PT2, GRID).negative_eigenvalues
    np.testing.assert_allclose(sorted(ours), np.sort(dense), atol=5e-9)


def test_sturm_count_against_dense_solver():
    diag, off, _ = _tridiag(PT2, GRID)
    all_eigs = eigvalsh_tridiagonal(diag, off)
    for shift in (-5.0, -3.9, -1.5, -0.5, 0.0, 1.0):
        want = int(np.sum(all_eigs < shift))
        assert verify.sturm_count_below(diag, off, shift) == want


def test_zero_potential_has_empty_spectrum():
    res = verify.discretize_and_solve(
        verify.PotentialSpec(kind="square_well", depth=0.0, width=1.0),
        verify.GridSpec(half_width=5.0, n_points=201))
    assert res.negative_eigenvalues == ()
    assert res.sum_negative == 0.0
    chk = verify.check_inequality(res, 1.456)
    assert chk.holds and chk.lhs == 0.0


def test_second_order_grid_convergence():
    sums = []
    for n in (1001, 2001, 4001):
        res = verify.discretize_and_solve(PT1, verify.GridSpec(half_width=20.0, n_points=n))
        sums.append(res.sum_negative)
    ratio = abs(sums[0] - sums[1]) / abs(sums[1] - sums[2])
    assert 3.5 < ratio < 4.5  # h^2 scheme halves h -> error / 4


def test_grid_warnings():
    # h sqrt(max|V|) = 2.66 as well: both advisories fire
    with pytest.warns(verify.GridTooCoarseWarning, match="quarter of the well width"), \
            pytest.warns(verify.GridTooCoarseWarning, match="does not resolve the deepest states"):
        verify.discretize_and_solve(
            verify.PotentialSpec(kind="poschl_teller", nu=3.0),
            verify.GridSpec(half_width=20.0, n_points=51))
    # tail truncation advisory: gaussian still sizable at the box edge
    with pytest.warns(verify.GridTooCoarseWarning, match="half_width truncates the tail"):
        verify.discretize_and_solve(
            verify.PotentialSpec(kind="gaussian_well", depth=5.0, width=3.0),
            verify.GridSpec(half_width=4.0, n_points=801))


def test_coarse_grid_advisory():
    # h = 33 puts one node in a well of width 1, which then reports E ~ V(0)
    # and a violated inequality
    for kind in ("square_well", "gaussian_well"):
        well = verify.PotentialSpec(kind=kind, depth=1.0, width=1.0)
        with pytest.warns(verify.GridTooCoarseWarning, match="quarter of the well width"), \
                pytest.warns(verify.GridTooCoarseWarning, match="does not resolve the deepest states"):
            res = verify.discretize_and_solve(well, verify.GridSpec(half_width=100.0, n_points=5))
        assert not verify.check_inequality(res, CONJECTURED_1D_L_RATIO).holds
    # silent where h <= width / 4 and h sqrt(max|V|) <= 1: the default suite (at most 0.016)
    with warnings.catch_warnings():
        warnings.simplefilter("error", verify.GridTooCoarseWarning)
        for pot, grid in verify.default_suite():
            verify.discretize_and_solve(pot, grid)
    # h = 0.196 is within a quarter of the width 2, but h sqrt(depth) = 145
    deep = verify.PotentialSpec(kind="square_well", depth=5.5e5, width=2.0)
    with pytest.warns(verify.GridTooCoarseWarning, match="does not resolve the deepest states"):
        verify.discretize_and_solve(deep, verify.GridSpec(10.0, 101))


def test_resolution_advisory_on_a_deep_narrow_well():
    """h = 0.04 is exactly a quarter of the width, so only the resolution advisory
    (h sqrt(depth) = 2.24) warns.  The verdict on this grid stays as it is: the
    601-node sum overshoots the 48,001-node 6059.03 and fails the inequality."""
    well = verify.PotentialSpec(kind="square_well", depth=3162.3, width=0.16)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = verify.discretize_and_solve(well, verify.GridSpec(12.0, 601))
    assert [str(w.message) for w in caught] == [
        "grid spacing times sqrt(max|V|) is 2.24, above 1.0; the grid does not resolve the deepest states"]
    chk = verify.check_inequality(res, UNIVERSAL_L_RATIO)
    assert not chk.holds
    np.testing.assert_allclose((chk.lhs, chk.rhs), (9782.19, 8791.13), rtol=1e-6)


def test_check_inequality_margins():
    res = verify.discretize_and_solve(PT2, GRID)
    ok = verify.check_inequality(res, 1.456)
    assert ok.holds and ok.margin > 0.0
    np.testing.assert_allclose(ok.rhs, 1.456 * 2.0 / (3.0 * math.pi) * res.potential_integral,
                               rtol=1e-14)
    bad = verify.check_inequality(res, 1.0)
    assert not bad.holds and bad.margin < 0.0
    # the conjectured sharp ratio still clears the sharpest test case
    sharp = verify.check_inequality(res, CONJECTURED_1D_L_RATIO)
    assert sharp.holds


def test_scaling_collapses_the_ratio():
    # V_lam(x) = lam^2 V(lam x) multiplies both sides by lam^2
    ratios = []
    for lam in (0.5, 1.0, 2.0):
        pot = verify.PotentialSpec(kind="gaussian_well", depth=2.0 * lam, width=1.0 / math.sqrt(lam))
        grid = verify.GridSpec(half_width=14.0 / math.sqrt(lam), n_points=6001)
        res = verify.discretize_and_solve(pot, grid)
        ratios.append(res.sum_negative / res.potential_integral)
    np.testing.assert_allclose(ratios, ratios[1], rtol=1e-7)


def test_default_suite_composition():
    suite = verify.default_suite()
    kinds = [pot.kind for pot, _ in suite]
    assert kinds.count("poschl_teller") == 2
    assert "gaussian_well" in kinds and "square_well" in kinds
    for pot, grid in suite:
        assert grid.n_points >= 4001
        chk = verify.check_inequality(verify.discretize_and_solve(pot, grid), 1.456)
        assert chk.holds


def test_json_round_trips():
    pot = verify.PotentialSpec(kind="gaussian_well", depth=5.0, width=2.0)
    assert verify.potential_from_json(pot.to_json()) == pot
    grid = verify.GridSpec(half_width=14.0, n_points=4001)
    assert verify.grid_from_json(grid.to_json()) == grid
    res = verify.discretize_and_solve(PT1, verify.GridSpec(half_width=16.0, n_points=301))
    blob = res.to_json()
    assert blob["potential"]["kind"] == "poschl_teller"
    assert blob["sum_negative"] == res.sum_negative
    with pytest.raises(ValueError):
        verify.grid_from_json({"half_width": 5.0, "n_points": 101, "spacing": 0.1})


@pytest.mark.parametrize("obj, message", [
    ({"kind": "morse", "depth": 1.0}, "potential: unknown kind 'morse'"),
    ({"kind": "gaussian_well", "width": 2.0}, "potential: missing fields ['depth'] for kind 'gaussian_well'"),
    ({"kind": "gaussian_well", "depth": "big"}, "potential: field 'depth' must be a number, got 'big'"),
    ({"kind": "poschl_teller", "nu": 1.0, "depth": 2.0},
     "potential: unknown fields ['depth'] for kind 'poschl_teller'"),
], ids=["unknown-kind", "missing-field", "non-number-field", "field-not-for-kind"])
def test_potential_from_json_rejects_malformed(obj, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        verify.potential_from_json(obj)


@pytest.mark.parametrize("kwargs", [
    {"kind": "poschl_teller", "nu": math.inf},
    {"kind": "poschl_teller", "nu": 1.0, "width": math.inf},
    {"kind": "gaussian_well", "depth": math.inf},
    {"kind": "gaussian_well", "depth": math.nan},
    {"kind": "square_well", "depth": 3.0, "width": math.nan},
    # finite fields whose int V_-^(3/2) is not
    {"kind": "square_well", "depth": 1e250},
    {"kind": "gaussian_well", "depth": 1e200, "width": 1e300},
    {"kind": "poschl_teller", "nu": 1e160},
    {"kind": "poschl_teller", "nu": 1.0, "width": 1e-200},
], ids=["nu-inf", "width-inf", "depth-inf", "depth-nan", "width-nan",
        "integral-depth", "integral-width", "integral-nu", "integral-width-squared"])
def test_potential_spec_rejects_non_finite(kwargs):
    with pytest.raises(ValueError, match="finite"):
        verify.PotentialSpec(**kwargs)


@pytest.mark.parametrize("half_width, n_points", [
    (math.inf, 101), (math.nan, 101), (5.0, math.inf), (5.0, math.nan), (5.0, 101.5),
    # h^2 underflows to 0, 1/h^4 overflows, h^2 overflows, 1/h^4 underflows to 0 or to a subnormal
    (1e-300, 5), (1e-150, 5), (1e300, 5), (1e156, 401), (1e80, 199),
])
def test_grid_spec_rejects_non_finite(half_width, n_points):
    with pytest.raises(ValueError):
        verify.GridSpec(half_width=half_width, n_points=n_points)
    with pytest.raises(ValueError):
        verify.grid_from_json({"half_width": half_width, "n_points": n_points})


def test_grid_spec_rejects_vanishing_off_diagonal():
    # 1/h^4 underflows to 0: the matrix would be diagonal, and each "eigenvalue" a node's V
    with pytest.raises(ValueError, match=r"a normal \(1/h\^2\)\^2"):
        verify.GridSpec(half_width=1e156, n_points=401)
    assert verify.GridSpec(half_width=1e77, n_points=401).n_points == 401  # 1/h^4 ~ 1.6e-299 is normal


def test_grid_spec_caps_n_points():
    assert verify.GridSpec(half_width=5.0, n_points=verify.MAX_GRID_POINTS).n_points == verify.MAX_GRID_POINTS
    for n_points in (verify.MAX_GRID_POINTS + 1, 1e9, 1e300):
        with pytest.raises(ValueError, match="n_points"):
            verify.GridSpec(half_width=5.0, n_points=n_points)


def test_sturm_count_rejects_nan_shift():
    diag, off, _ = _tridiag(PT1, verify.GridSpec(half_width=10.0, n_points=101))
    with pytest.raises(ValueError, match="nan"):
        verify.sturm_count_below(diag, off, math.nan)


def test_default_suite_pivot_passes():
    """Pivot passes per case stay below the bisection-only scan's 36 / 74 / 139 / 72, and the
    rows looped on every level, 84,472 with the edge prefixes skipped, extrapolated starts and
    coarse levels solved to start accuracy, near that count."""
    results = [verify.discretize_and_solve(pot, grid) for pot, grid in verify.default_suite()]
    passes = [res.sturm_passes for res in results]
    row_steps = [res.row_steps for res in results]
    assert all(p < bisection for p, bisection in zip(passes, (36, 74, 139, 72))), passes
    assert sum(passes) <= 190, passes
    assert sum(row_steps) <= 93_000, row_steps
    # the square well is 0 on 90 % of its box: whole blocks of 2,001 / 500 / 125 rows
    # would loop 34,256 rows over its passes
    assert results[3].potential.kind == "square_well" and row_steps[3] <= 4_000, row_steps
    again = [verify.discretize_and_solve(pot, grid) for pot, grid in verify.default_suite()]
    assert passes == [res.sturm_passes for res in again]
    assert row_steps == [res.row_steps for res in again]


# one well per family with 1, 4 and 8 bound states, then the default suite
ACCURACY_CASES = [
    *((verify.PotentialSpec(kind="poschl_teller", nu=float(k)), verify.GridSpec(20.0, 4001), k)
      for k in (1, 4, 8)),
    *((verify.PotentialSpec(kind="gaussian_well", depth=depth), verify.GridSpec(10.0, 4001), k)
      for depth, k in ((1.0, 1), (30.0, 4), (90.0, 8))),
    *((verify.PotentialSpec(kind="square_well", depth=depth, width=2.0), verify.GridSpec(6.0, 4001), k)
      for depth, k in ((1.0, 1), (30.0, 4), (140.0, 8))),
    *((pot, grid, None) for pot, grid in verify.default_suite()),
    # below E = -2^19 float spacing exceeds 1e-10, so brackets close at 4 ulp(lower)
    (verify.PotentialSpec(kind="square_well", depth=5.5e5, width=2.0), verify.GridSpec(10.0, 101), 11),
]


# every kind on odd and even grids down to the smallest: the parity blocks of
# an even grid fold the centre into their corners, a 3-node odd block has one row
PARITY_CASES = [
    (pot, verify.GridSpec(16.0, n), None)
    for pot in (verify.PotentialSpec(kind="poschl_teller", nu=2.0),
                verify.PotentialSpec(kind="gaussian_well", depth=30.0),
                verify.PotentialSpec(kind="square_well", depth=30.0, width=2.0))
    for n in (3, 4, 5, 6, 100, 4000)
]


# the grids of at most 101 nodes are coarse on purpose: their advisories are incidental
_COARSE = pytest.mark.filterwarnings("ignore::ltbounds.verify.GridTooCoarseWarning")


@pytest.mark.parametrize("pot, grid, states",
                         [pytest.param(*case, marks=_COARSE if case[1].n_points <= 101 else ())
                          for case in ACCURACY_CASES + PARITY_CASES],
                         ids=[f"{pot.kind}-{states or 'suite'}" for pot, _, states in ACCURACY_CASES]
                         + [f"{pot.kind}-n{grid.n_points}" for pot, grid, _ in PARITY_CASES])
def test_eigenvalues_certified_and_match_dense_solver(pot, grid, states):
    diag, off, vmin = _tridiag(pot, grid)
    ascending = sorted(verify.discretize_and_solve(pot, grid).negative_eigenvalues)
    if states is not None:
        assert len(ascending) == states
    tol = max(1e-10, 4.0 * math.ulp(vmin - 1.0))
    for j, lam in enumerate(ascending):
        assert verify.sturm_count_below(diag, off, lam - tol) <= j
        assert verify.sturm_count_below(diag, off, lam + tol) > j
    dense = eigvalsh_tridiagonal(diag, off, select="v", select_range=(vmin - 1.0, 0.0))
    np.testing.assert_allclose(ascending, np.sort(dense), rtol=0.0, atol=5e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(
           st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
           st.lists(st.floats(-10.0, 10.0), min_size=n - 1, max_size=n - 1))),
       st.floats(-30.0, 30.0))
@example(entries=([0.0, 3.1e-172], [3.1e-172]), shift=3.1e-172)  # off^2 underflows unless scaled
# eigvalsh puts the eigenvalue sqrt(2) at 1.41455 here, above the shift: a dense oracle would expect 4
@example(entries=([0.0, 0.0, 0.0, 0.0, 1e-160], [0.0, 0.0, 2.2227587494850775e-162, math.sqrt(2.0)]),
         shift=1.4144)
def test_sturm_count_matches_exact_pivot_count(entries, shift):
    diag, off = (np.array(v, dtype=float) for v in entries)
    eigs = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    assume(np.min(np.abs(eigs - shift)) > 1e-8 * np.max(np.abs(eigs)))
    assert verify.sturm_count_below(diag, off, shift) == _exact_count_below(entries[0], entries[1], shift)


def _exact_count_below(diag, off, shift):
    """Eigenvalues below shift of the tridiagonal (diag, off): the negative
    pivots of the LDL^T factorization of T - shift in Fraction arithmetic,
    which holds every float exactly, subnormals included.  A zero pivot before
    a nonzero off-diagonal is the limit of a tiny one: with the infinite pivot
    after it, it counts as one negative pivot, and the next row starts again at
    d - shift.  shift must not be an eigenvalue."""
    shift = Fraction(shift)
    count, q = 0, None  # q None: the row has no coupling to the one before
    for k, d in enumerate(diag):
        e2 = Fraction(off[k - 1]) ** 2 if k else 0
        if q is None or e2 == 0:
            q = Fraction(d) - shift
        elif q == 0:
            count, q = count + 1, None
            continue
        else:
            q = Fraction(d) - shift - e2 / q
        count += q < 0
    return count


@pytest.mark.parametrize("diag, off, shift, want", [
    ([0.0, 0.0], [1.0], 0.0, 1),  # a zero leading pivot: eigenvalues -1 and 1
    ([0.0, 0.0, 5.0], [1.0, 1.0], 0.5, 1),
    ([2.0, 0.0, 0.0], [0.0, 1.0], 0.0, 1),  # two blocks, the second with a zero leading pivot
    ([0.0, 0.0, 0.0, 0.0, 1e-160], [0.0, 0.0, 2.2227587494850775e-162, math.sqrt(2.0)], 1.4144, 5),
])
def test_exact_count_below(diag, off, shift, want):
    assert _exact_count_below(diag, off, shift) == want


def _pivots_before_folding(diag, off2, shift, pivmin):
    """_pivots as it stood with a separate tiny-pivot clamp and a diag[1:] copy."""
    q = diag[0] - shift
    if -pivmin < q < pivmin:
        q = -pivmin
    count = 1 if q < 0.0 else 0
    s = t = -1.0 / q
    for d, e2 in zip(diag[1:], off2):
        r = e2 / q
        q = d - shift - r
        if -pivmin < q < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
        t = (r * t - 1.0) / q
        s += t
    return count, s


def _pivots_by_row(diag, off2, shift, pivmin, q=math.inf, t=0.0, s=-0.0):
    """_pivots one row at a time, off2[i] coupling row i to the row before it:
    each call hands its q, t and s to the next, as a block's runs do."""
    count = 0
    for d, e2 in zip(diag, off2):
        row_count, q, t, s = verify._pivots([d], e2, shift, pivmin, q, t, s)
        count += row_count
    return count, q, t, s


TINY = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-160)


def _tridiagonals(entry, off2_entry):
    return st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.lists(entry, min_size=n, max_size=n), st.lists(off2_entry, min_size=n - 1, max_size=n - 1)))


@settings(max_examples=200, deadline=None)
@given(_tridiagonals(st.one_of(st.sampled_from(TINY), st.floats()), st.one_of(st.sampled_from(TINY), st.floats())),
       st.data())
def test_pivots_bit_identical_to_unfolded_loop(entries, data):
    """Same count and the same s, bit for bit, nan, infinities and signed zeros included."""
    diag, off2 = entries
    shift = data.draw(st.one_of(st.sampled_from(diag), st.floats()))
    pivmin = verify._SAFE_MIN * max(1.0, max(off2, default=0.0))
    count, _, _, s = _pivots_by_row(diag, [0.0, *off2], shift, pivmin)
    want_count, want_s = _pivots_before_folding(diag, off2, shift, pivmin)
    assert count == want_count
    assert struct.pack("<d", s) == struct.pack("<d", want_s)


@settings(max_examples=200, deadline=None)
@given(_tridiagonals(st.one_of(st.sampled_from(TINY), st.floats()), st.one_of(st.sampled_from(TINY), st.floats())),
       st.data())
def test_pivots_run_bit_identical_to_rows(entries, data):
    """One run with one squared off-diagonal e2 leaves the count, q, t and s of the same rows
    taken one at a time, bit for bit, from any state before row 0 that a pass can hold; from
    row 0 of a matrix (q = inf) every finite e2 acts as the 0 of its first row."""
    diag, _ = entries
    shift = data.draw(st.one_of(st.sampled_from(diag), st.floats()))
    e2 = data.draw(st.one_of(st.sampled_from(TINY), st.floats()))
    pivmin = verify._SAFE_MIN * max(1.0, e2)
    q = data.draw(st.one_of(st.just(math.inf), st.floats()))
    assume(not -pivmin < q < pivmin)
    t, s = data.draw(st.floats()), data.draw(st.floats())

    def bits(state):
        return state[0], struct.pack("<3d", *state[1:])

    run = verify._pivots(diag, e2, shift, pivmin, q, t, s)
    assert bits(run) == bits(_pivots_by_row(diag, [e2] * len(diag), shift, pivmin, q, t, s))
    if math.isfinite(e2):
        first = verify._pivots(diag, e2, shift, pivmin)
        assert bits(first) == bits(_pivots_by_row(diag, [0.0] + [e2] * (len(diag) - 1), shift, pivmin))


@settings(max_examples=200, deadline=None)
@given(_tridiagonals(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(-10.0, 10.0)),
                     st.one_of(st.just(0.0), st.floats(1e-6, 100.0))),
       st.data())
@example(entries=([0.0, 1.0], [1.0]), data=None)  # the first pivot is exactly zero
def test_pivots_match_dense_spectrum(entries, data):
    """The count of eigenvalues below the shift, and s = sum 1/(shift - lambda_i) where no
    pivot is tiny, against numpy's dense eigvalsh.  A shift on or next to a diagonal entry
    makes zero and tiny pivots.  Matrix entries stay away from the subnormal range, where
    eigvalsh itself loses digits (+-1.41455 for +-sqrt(2) with a 2.2e-162 off-diagonal)."""
    diag, off2 = entries
    shift = 0.0 if data is None else data.draw(st.one_of(
        st.builds(lambda d, nudge: d + nudge, st.sampled_from(diag), st.sampled_from((0.0, 1e-300, 1e-15, -1e-15))),
        st.floats(-30.0, 30.0)))
    dense = np.diag(diag) + np.diag(np.sqrt(off2), 1) + np.diag(np.sqrt(off2), -1)
    eigs = np.linalg.eigvalsh(dense)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    assume(np.min(np.abs(eigs - shift)) > 1e-8 * scale)
    pivmin = verify._SAFE_MIN * max(1.0, max(off2, default=0.0))
    count, _, _, s = _pivots_by_row(diag, [0.0, *off2], shift, pivmin)
    assert count == int(np.sum(eigs < shift))
    # every pivot is det(T_k - shift) / det(T_(k-1) - shift), so none is tiny when the shift keeps
    # away from the spectrum of every leading block T_k; 1e-5 * scale away from T's own, the
    # dense terms 1/(shift - lambda_i) carry at most about 2e-11 relative error
    if all(np.min(np.abs(np.linalg.eigvalsh(dense[:k, :k]) - shift)) > 1e-5 * scale
           for k in range(1, len(diag) + 1)):
        terms = 1.0 / (shift - eigs)
        assert abs(s - float(np.sum(terms))) <= 1e-9 * float(np.sum(np.abs(terms)))


@settings(max_examples=300, deadline=None)
@given(_tridiagonals(st.one_of(st.sampled_from(TINY), st.floats()), st.one_of(st.sampled_from(TINY), st.floats())),
       st.data())
def test_count_loop_matches_slope_loop(entries, data):
    """The count-only loop counts what the slope loop counts, from any pivot before row 0 that
    a pass can hold (none in (-pivmin, pivmin)), nan, infinities and signed zeros included."""
    diag, off2 = entries
    shift = data.draw(st.one_of(st.sampled_from(diag), st.floats()))
    pivmin = verify._SAFE_MIN * max(1.0, max(off2, default=0.0))
    q = data.draw(st.one_of(st.just(math.inf), st.floats()))
    assume(not -pivmin < q < pivmin)
    off2 = [data.draw(st.one_of(st.just(0.0), st.floats())), *off2]
    assert verify._count(diag, off2, shift, pivmin, q) == _pivots_by_row(diag, off2, shift, pivmin, q)[0]


def _edge_shifts():
    return st.one_of(st.just(0.0), st.floats(-12.0, 3.5).map(lambda u: -(10.0**u)), st.floats(-10.0**3.5, 0.0))


@settings(max_examples=80, deadline=None)
@given(h=st.floats(1e-3, 2.0), k=st.integers(2, 8000), x=_edge_shifts())
@example(h=0.005, k=8000, x=0.0)
@example(h=1.0, k=2, x=-(10.0**3.5))
def test_edge_pivot_against_mpmath(h, k, x):
    """The closed-form last pivot of k rows with diagonal 2 beta - x and off-diagonal beta,
    beta = 1/h^2 as the blocks store it, within 4 ulp of the pivot recurrence at 50 digits."""
    beta = 1.0 / h**2
    q = verify._edge(k, beta, x, slope=False)[0]
    with mpmath.workdps(50):
        b, diag = mpmath.mpf(beta), 2 * mpmath.mpf(beta) - mpmath.mpf(x)
        want = diag
        for _ in range(k - 1):
            want = diag - b * b / want
    assert abs(q - float(want)) <= 4.0 * math.ulp(float(want)), (q, float(want))
    assert q >= beta  # so the prefix counts no negative pivot


def _loop_edge(k, beta, x):
    """q, t and s after k rows of the constant block, from the float recurrence of _pivots."""
    q, t, s = math.inf, 0.0, -0.0
    for _ in range(k):
        r = beta * beta / q
        q = 2.0 * beta - x - r
        t = (r * t - 1.0) / q
        s += t
    return q, t, s


@settings(max_examples=80, deadline=None)
@given(h=st.floats(1e-3, 2.0), k=st.integers(2, 8000), x=_edge_shifts())
def test_edge_slope_matches_loop(h, k, x):
    """t = q'/q and s = d/dx log det of the edge agree with the float loop to 1e-6 relative
    where k theta >= _EDGE_SLOPE_MIN; below it the slope pass loops the full block."""
    beta = 1.0 / h**2
    edge = verify._edge(k, beta, x, slope=True)
    theta = math.acosh(1.0 - x / (2.0 * beta))
    if k * theta < 0.99 * verify._EDGE_SLOPE_MIN:
        assert edge is None
        return
    if edge is None:  # acosh and the library's log1p may round to either side of the threshold
        assert k * theta < 1.01 * verify._EDGE_SLOPE_MIN
        return
    q, t, s = edge
    want_q, want_t, want_s = _loop_edge(k, beta, x)
    np.testing.assert_allclose([t, s], [want_t, want_s], rtol=1e-6, atol=0.0)
    np.testing.assert_allclose(q, want_q, rtol=1e-11, atol=0.0)


def test_edge_prefix_keeps_every_probe_count(monkeypatch):
    """Every pass that the default suite runs, on every level, counts the same from after its
    block's edge prefix, with or without the slope, as over the whole block."""
    probes = []
    count, pivots = verify._Block.count, verify._Block.pivots

    def recording(method):
        def record(block, x):
            probes.append((block, x))
            return method(block, x)
        return record

    monkeypatch.setattr(verify._Block, "count", recording(count))
    monkeypatch.setattr(verify._Block, "pivots", recording(pivots))
    for pot, grid in verify.default_suite():
        verify.discretize_and_solve(pot, grid)
    assert len(probes) > 39 and all(block.edge >= 2 for block, _ in probes)  # 39 on the requested grids
    for block, x in probes:
        whole = verify._count(block.diag, block.off2, x, block.pivmin, math.inf)
        assert count(block, x) == (whole, len(block.diag) - block.edge)
        assert pivots(block, x)[0] == whole


WELL = verify.PotentialSpec(kind="gaussian_well", depth=30.0)


@pytest.mark.parametrize("make_starts", [
    lambda cold, lower: cold,
    lambda cold, lower: cold[::-1],
    lambda cold, lower: [cold[0]] * 2 * len(cold),
    lambda cold, lower: [lower - 5.0, lower, 0.0, 1.0, -0.0],
    lambda cold, lower: [math.nan, math.inf, -math.inf, math.nan],
    lambda cold, lower: cold[:1],
    lambda cold, lower: cold + [-0.5] * 10,
    lambda cold, lower: [cold[-1], math.nan, *cold[1:], -math.inf, cold[0]],
], ids=["exact", "reversed", "duplicates", "outside", "non-finite", "short", "long", "mixed"])
def test_starts_change_passes_never_results(make_starts):
    grid = verify.GridSpec(10.0, 301)
    diag, off, vmin = _tridiag(WELL, grid)
    lower = vmin - 1.0
    tol = max(1e-10, 4.0 * math.ulp(lower))
    block = _full_block(WELL, grid)
    assert block.edge > 0
    cold, cold_passes, _ = verify._negative_eigenvalues(block, lower, [])
    assert len(cold) == 4
    starts = make_starts(cold, lower)
    eigs, passes, _ = verify._negative_eigenvalues(block, lower, starts)
    assert len(eigs) == len(cold)
    np.testing.assert_allclose(eigs, cold, rtol=0.0, atol=tol)
    for j, lam in enumerate(eigs):
        assert verify.sturm_count_below(diag, off, lam - tol) <= j
        assert verify.sturm_count_below(diag, off, lam + tol) > j
    if starts == cold:
        assert passes < cold_passes


def _assert_certified(pot, grid, eigenvalues):
    """Each eigenvalue, j-th from the bottom, within the bracket tolerance of a shift with at
    most j and one with more than j eigenvalues of the full matrix below it."""
    diag, off, vmin = _tridiag(pot, grid)
    tol = max(1e-10, 4.0 * math.ulp(vmin - 1.0))
    for j, lam in enumerate(sorted(eigenvalues)):
        assert verify.sturm_count_below(diag, off, lam - tol) <= j < verify.sturm_count_below(diag, off, lam + tol)
    return tol


# a benchmark-sized well with three coarse levels of 4,015, 1,003 and 250 nodes
PT8 = verify.PotentialSpec(kind="poschl_teller", nu=8.0, width=1.31)
PT8_GRID = verify.GridSpec(23.6, 16061)


@pytest.mark.parametrize("perturb", [
    lambda eigs: [e + 1e-3 for e in eigs],
    lambda eigs: [e - 1e-3 for e in eigs],
    lambda eigs: eigs[:-1],
    lambda eigs: [(math.nan, math.inf, -math.inf)[k % 3] for k in range(len(eigs))],
], ids=["raised", "lowered", "shallowest-dropped", "non-finite"])
def test_coarse_levels_change_passes_never_results(monkeypatch, perturb):
    """The coarse levels only supply starts: wrong, missing or non-finite values there cost
    passes on the requested grid, but every eigenvalue stays certified on the full matrix and
    within the bracket tolerance of the unperturbed one."""
    base = verify.discretize_and_solve(PT8, PT8_GRID)
    tol = _assert_certified(PT8, PT8_GRID, base.negative_eigenvalues)
    assert len(base.negative_eigenvalues) == 8
    levels, level_spectra = [], verify._level_spectra

    def perturbed(pot, grid, starts, start_tol):
        levels.append(grid.n_points)
        spectra, passes, rows = level_spectra(pot, grid, starts, start_tol)
        if grid != PT8_GRID:
            spectra = [perturb(eigs) for eigs in spectra]
        return spectra, passes, rows

    monkeypatch.setattr(verify, "_level_spectra", perturbed)
    res = verify.discretize_and_solve(PT8, PT8_GRID)
    assert levels == [250, 1003, 4015, 16061]
    assert res.sturm_passes != base.sturm_passes
    np.testing.assert_allclose(res.negative_eigenvalues, base.negative_eigenvalues, rtol=0.0, atol=tol)
    _assert_certified(PT8, PT8_GRID, res.negative_eigenvalues)


# the default suite's eigenvalues, descending, as certified from unextrapolated starts
SUITE_EIGENVALUES = [
    [-1.0000009717520233],
    [-1.000009221699968, -4.000004759544051],
    [-0.02825555913260481, -0.7709907431659212, -2.140311328333098, -3.9763379676058612],
    [-0.06140272677179167, -2.0540354477768457],
]


def test_default_suite_eigenvalues_frozen():
    """A change of starts or of how a search ends moves no eigenvalue by more than the
    bracket tolerance: two certified brackets of that width share the eigenvalue."""
    for (pot, grid), want in zip(verify.default_suite(), SUITE_EIGENVALUES, strict=True):
        res = verify.discretize_and_solve(pot, grid)
        np.testing.assert_allclose(res.negative_eigenvalues, want, rtol=0.0, atol=verify._BISECT_TOL)


def test_advisories_fire_for_the_requested_grid_only():
    """The coarser levels that supply starts have wider spacing but never warn."""
    for pot, grid in ((verify.PotentialSpec(kind="square_well", depth=3.0, width=0.04), verify.GridSpec(10.0, 1601)),
                      (verify.PotentialSpec(kind="gaussian_well", depth=5.0, width=3.0), verify.GridSpec(4.0, 1601)),
                      (verify.PotentialSpec(kind="square_well", depth=3162.3, width=0.16), verify.GridSpec(12.0, 601))):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            verify.discretize_and_solve(pot, grid)
        assert len(caught) == 1 and caught[0].category is verify.GridTooCoarseWarning, caught


def test_no_coarse_level_where_its_spacing_is_rejected():
    """(1/h^2)^2 is normal on 401 nodes in [-1e79, 1e79], subnormal on the 100 nodes of its coarse level."""
    well = verify.PotentialSpec(kind="square_well", depth=3.0, width=2.0)
    with pytest.raises(ValueError, match="normal"):
        verify.GridSpec(1e79, 100)
    with pytest.warns(verify.GridTooCoarseWarning, match="quarter of the well width"), \
            pytest.warns(verify.GridTooCoarseWarning, match="does not resolve the deepest states"):
        res = verify.discretize_and_solve(well, verify.GridSpec(1e79, 401))
    assert len(res.negative_eigenvalues) == 1
    # V = 0 off the centre node, so each block's edge prefix is all but its last row and a
    # pass loops one row; a coarse level's passes would add rows but no sturm_passes
    assert res.row_steps == res.sturm_passes
