"""Magnitude solves, weightings, gradients, scale checks."""
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf, dpotrs

from magmetric.core import PointSet, RngState, pairwise_distances, sample_gaussian
from magmetric.distance import mag_distance
from magmetric.magnitude import (CholeskyFailure, CoincidentPoints, _gradient_rows,
                                 _inverse_distances, _solve_ones, magnitude,
                                 magnitude_gradient)

# the module itself: the package's `magnitude` attribute is the function
MAGNITUDE = importlib.import_module("magmetric.magnitude")


def two_point_closed_form(t: float, d: float) -> float:
    return 2.0 / (1.0 + math.exp(-t * d))


def test_two_point_closed_form_grid():
    for t in np.linspace(0.1, 10.0, 10):
        for d in np.linspace(0.1, 5.0, 10):
            pts = PointSet([[0.0], [d]])
            res = magnitude(pts, t)
            assert res.magnitude == pytest.approx(
                two_point_closed_form(t, d), abs=1e-12)


def test_empty_and_singleton():
    assert magnitude(PointSet.empty(2), 1.0).magnitude == 0.0
    res = magnitude(PointSet([[3.0, 4.0]]), 0.7)
    assert res.magnitude == pytest.approx(1.0, abs=1e-15)
    assert res.weights.tolist() == [1.0]
    empty = PointSet.empty(3)
    res = magnitude(empty, 0.7)
    assert (res.magnitude, res.scale, res.residual, res.condition_hint) == \
        (0.0, 0.7, 0.0, 1.0)
    assert res.points is empty and res.weights.shape == (0,)
    assert res.multiplicity.shape == (0,) and res.multiplicity.dtype == np.intp
    w, residual, hint, total = _solve_ones(np.zeros((0, 0)))  # the solve itself
    assert w.shape == (0,) and (residual, hint, total) == (0.0, 1.0, 0.0)
    assert magnitude_gradient(empty, 0.7).shape == (0, 3)
    # one distinct point, given three times
    single = PointSet([[3.0, -4.0]] * 3)
    res = magnitude(single, 0.7)
    assert (res.magnitude, res.residual, res.condition_hint) == (1.0, 0.0, 1.0)
    assert res.multiplicity.tolist() == [3] and res.multiplicity.dtype == np.intp
    assert res.points.coords.tolist() == [[3.0, -4.0]]
    assert np.array_equal(magnitude_gradient(single, 0.7), np.zeros((1, 2)))
    for fn in (magnitude, magnitude_gradient):
        for pts in (empty, single):
            with pytest.raises(ValueError, match="finite"):
                fn(pts, -1.0)


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        magnitude(PointSet([[0.0], [1.0]]), -1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, True, "1", 1 + 2j, None])
def test_scale_must_be_finite(t):
    # a scale that is not a real number is refused by name, not by a TypeError
    pts = PointSet([[0.0], [1.0]])
    for fn in (magnitude, magnitude_gradient):
        with pytest.raises(ValueError, match="finite"):
            fn(pts, t)
    with pytest.raises(ValueError, match="^scale t must be finite and positive$"):
        mag_distance(pts, pts, t)


def test_nan_matrix_fails_the_residual_gate():
    # LAPACK's factor passes NaN pivots through, so the gate must catch NaN
    with pytest.raises(CholeskyFailure, match="residual"):
        _solve_ones(np.full((2, 2), math.nan))


def test_duplicate_invariance_exact():
    pts = sample_gaussian(RngState(21), 12, 3)
    dup_rows = np.vstack([pts.coords, pts.coords[[2, 5, 5]]])
    a = magnitude(pts, 1.2).magnitude
    b = magnitude(PointSet(dup_rows), 1.2).magnitude
    assert a == b  # bitwise: duplicates are removed before the solve


def test_weighting_solves_system():
    pts = sample_gaussian(RngState(3), 25, 4)
    w = magnitude(pts, 0.8)
    zeta = np.exp(-0.8 * np.sqrt(
        ((pts.coords[:, None, :] - pts.coords[None, :, :]) ** 2).sum(-1)))
    resid = np.abs(zeta @ w.weights - 1.0).max()
    assert resid <= 1e-8
    assert w.residual <= 1e-8
    assert w.multiplicity.sum() == 25


@pytest.fixture()
def pdist_calls(monkeypatch):
    """The row count of each distance matrix magnitude.py builds."""
    calls = []
    real = MAGNITUDE.pairwise_distances

    def counting(X):
        calls.append(len(X))
        return real(X)

    monkeypatch.setattr(MAGNITUDE, "pairwise_distances", counting)
    return calls


def test_scale_loop_builds_one_geometry(pdist_calls):
    pts = sample_gaussian(RngState(5), 15, 3)
    pts = PointSet(np.vstack([pts.coords, pts.coords[[1, 4]]]))  # 2 duplicates
    with pytest.raises(ValueError, match="finite and positive"):
        magnitude(pts, -1.0)
    assert pdist_calls == []  # a bad scale is refused before the geometry
    results = [magnitude(pts, t) for t in (0.2, 1.0, 3.0)]
    assert pdist_calls == [15]
    for got in results:  # bitwise what a fresh copy of the set gives
        want = magnitude(PointSet(pts.coords), got.scale)
        assert (got.magnitude, got.scale, got.residual, got.condition_hint) == \
            (want.magnitude, want.scale, want.residual, want.condition_hint)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.points.coords.tobytes() == want.points.coords.tobytes()
        assert np.array_equal(got.multiplicity, want.multiplicity)
    assert pdist_calls == [15] * 4  # one more per fresh copy


def test_gradient_matches_finite_differences():
    rng = RngState(17)
    for k in range(5):
        pts = sample_gaussian(rng.derive(k), 7, 3)
        t = 0.5 + 0.4 * k
        grad = magnitude_gradient(pts, t)
        coords = pts.coords.copy()
        eps = 1e-6
        for (i, j) in [(0, 0), (3, 1), (6, 2)]:
            coords[i, j] += eps
            up = magnitude(PointSet(coords), t).magnitude
            coords[i, j] -= 2 * eps
            dn = magnitude(PointSet(coords), t).magnitude
            coords[i, j] += eps
            fd = (up - dn) / (2 * eps)
            assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_gradient_singleton_is_zero():
    g = magnitude_gradient(PointSet([[1.0, 2.0]]), 1.0)
    assert np.array_equal(g, np.zeros((1, 2)))


def test_gradient_rejects_coincident_points():
    pts = PointSet([[0.0, 0.0], [1e-12, 0.0], [1.0, 1.0]])
    with pytest.raises(CoincidentPoints) as err:
        magnitude_gradient(pts, 1.0)
    assert err.value.pair == (0, 1)
    assert err.value.distance < 1e-9


def test_gradient_takes_one_copy_of_the_distances():
    # the masked copy of the stored distances becomes 1 / d in place, so the
    # call holds four n x n arrays at most: that copy, zeta, its factor and
    # the gradient rows' buffer
    x = sample_gaussian(RngState(1), 400, 3)
    magnitude_gradient(x, 1.0)  # builds the stored geometry
    tracemalloc.start()
    try:
        magnitude_gradient(x, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 8 * 400**2


def test_cholesky_failure_reports_pivot():
    # the solver alone, handed a matrix that is not positive definite: the
    # factor fails at a pivot and, with no factor, has no condition estimate
    zeta = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(CholeskyFailure) as err:
        _solve_ones(zeta)
    assert err.value.pivot == 2
    assert "pivot" in str(err.value)
    assert err.value.condition_hint == math.inf
    assert "condition hint" not in str(err.value)


def test_near_singular_solve_passes_the_gate():
    # nearly coincident points: the plain solve is badly conditioned, and
    # the residual gate is what vouches for its answer
    res = magnitude(PointSet([[0.0], [1e-13], [1.0]]), 1.0)
    assert math.isfinite(res.magnitude)
    assert res.residual <= MAGNITUDE.SOLVER_RESIDUAL_TOL
    assert res.condition_hint > 1e12


def test_solve_returns_the_weighting_sum():
    pts = sample_gaussian(RngState(8), 9, 2)
    w, _, _, total = _solve_ones(np.exp(-0.6 * pairwise_distances(pts)))
    assert total == float(w.sum()) == magnitude(pts, 0.6).magnitude


def _copying_solve(zeta):
    # the reference solve: dpotrf on the C-ordered zeta, which f2py copies
    # transposed, with the factor's upper triangle zeroed, and the
    # refinement and residual gate in new arrays at every step
    n = zeta.shape[0]
    factor, info = dpotrf(np.ascontiguousarray(zeta), lower=1)
    assert info == 0
    diag = np.diag(factor)
    hint = float((diag.max() / diag.min()) ** 2)
    ones = np.ones((n, 1))
    w, _ = dpotrs(factor, ones, lower=1)
    dw, _ = dpotrs(factor, ones - zeta @ w, lower=1)
    w = w + dw
    residual = float(np.abs(zeta @ w - ones).max())
    w = w.ravel()
    return w, residual, hint, float(w.sum())


@pytest.mark.parametrize("n", [1, 2, 64, 128, 256, 400])
def test_factor_reads_zeta_in_place_layout(monkeypatch, n):
    # dpotrf gets the F-ordered view of zeta's own buffer, so no transposing
    # copy is made, and every output bit is the copying solve's
    zeta = np.exp(-1.0 * pairwise_distances(sample_gaussian(RngState(n), n, 5)))
    seen = []

    def recording(a, *args, **kwargs):
        seen.append(a)
        return dpotrf(a, *args, **kwargs)

    monkeypatch.setattr(MAGNITUDE, "dpotrf", recording)
    got = _solve_ones(zeta)
    assert len(seen) == 1
    assert seen[0].flags.f_contiguous and np.shares_memory(seen[0], zeta)
    want = _copying_solve(zeta)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]


def _copying_gradient_rows(coords, zeta, inv, w, t, rows):
    # the reference gradient rows, with a new array for every product
    m = zeta[rows, :] * (w[rows, None] * w[None, :]) * inv
    return 2.0 * t * (m.sum(axis=1)[:, None] * coords[rows] - m @ coords)


@pytest.mark.parametrize("n", [1, 2, 64, 128, 400])
def test_solve_and_gradient_rows_only_read_their_inputs(n):
    # both refine in buffers of their own: zeta and its blocks are read
    # again after the solves, so not one input bit may change
    pts = sample_gaussian(RngState(n + 1), n, 3)
    dists = pairwise_distances(pts)
    zeta = np.exp(-0.8 * dists)
    before = zeta.tobytes()
    w = _solve_ones(zeta)[0]
    assert zeta.tobytes() == before
    for rows in (np.arange(n), np.arange(n)[::-2]):
        inv = _inverse_distances(dists, rows)
        inputs = (pts.coords, zeta, inv, w, rows)
        saved = [a.tobytes() for a in inputs]
        got = _gradient_rows(pts.coords, zeta, inv, w, 0.8, rows)
        assert [a.tobytes() for a in inputs] == saved
        want = _copying_gradient_rows(pts.coords, zeta, inv, w, 0.8, rows)
        assert got.tobytes() == want.tobytes()


def test_magnitude_and_gradient_share_one_geometry(pdist_calls):
    pts = sample_gaussian(RngState(6), 12, 2)
    results = [magnitude(pts, t) for t in (0.3, 1.0, 2.5)]
    grad = magnitude_gradient(pts, 1.0)
    assert pdist_calls == [12]
    # a copy of the set is a new object, so it builds its own geometry
    copy = PointSet(pts.coords)
    again = magnitude(copy, 1.0)
    assert again.magnitude == results[1].magnitude
    assert again.weights.tobytes() == results[1].weights.tobytes()
    assert magnitude_gradient(copy, 1.0).tobytes() == grad.tobytes()
    assert pdist_calls == [12, 12]


def test_stored_geometry_is_read_only():
    pts = PointSet(np.vstack([np.eye(3), np.eye(3)[:1]]))  # one duplicate
    res = magnitude(pts, 0.8)
    dists = MAGNITUDE._geometry(pts)[2]
    assert res.multiplicity.tolist() == [2, 1, 1]
    for arr in (res.multiplicity, dists):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]


# ------------------------------------------- exact oracles on the line


def _line_oracle(coords: np.ndarray, t: float):
    """(x, Mag, grad) for a set on the line (Leinster, Doc. Math. 2013): x its
    distinct points sorted, Mag = 1 + sum tanh(t g / 2) over the gaps g
    between neighbours, and d Mag / d x_k = (t/2) (sech^2(t g_left / 2) -
    sech^2(t g_right / 2)), a missing neighbour contributing 0."""
    x = np.unique(coords)  # 0.0 and -0.0 are one point
    half = 0.5 * t * np.diff(x)
    e = np.exp(-2.0 * half)
    sech2 = 4.0 * e / (1.0 + e) ** 2  # sech^2 without overflowing cosh
    grad = np.zeros(len(x))
    grad[1:] += sech2
    grad[:-1] -= sech2
    return x, 1.0 + np.tanh(half).sum(), 0.5 * t * grad


# Worst errors measured for t in 1e-3 .. 10, n up to 2000: magnitude 6.6e-16
# relative, gradient 5.6e-12 absolute at t = 10, where |grad| <= 5. Each
# gradient term carries a factor t, so its tolerance scales with t. Both
# tolerances leave a margin of about 15x.
LINE_MAG_RTOL = 1e-14
LINE_GRAD_ATOL_PER_T = 1e-11


def _check_line_oracle(coords: np.ndarray, t: float) -> None:
    pts = PointSet(coords[:, None])
    x, mag, grad = _line_oracle(coords, t)
    res = magnitude(pts, t)
    assert abs(res.magnitude - mag) <= LINE_MAG_RTOL * mag
    # magnitude_gradient has one row per representative, in first-occurrence order
    want = grad[np.searchsorted(x, res.points.coords[:, 0])]
    got = magnitude_gradient(pts, t)
    assert got.shape == (len(x), 1)
    assert np.abs(got[:, 0] - want).max() <= LINE_GRAD_ATOL_PER_T * t


@st.composite
def line_sets(draw):
    """Unsorted points on a grid of spacing 1e-2 .. 10, duplicates and signed
    zeros included: every distinct gap is at least one spacing."""
    spacing = 10.0 ** draw(st.floats(-2.0, 1.0))
    ks = draw(st.lists(st.integers(-100, 100), min_size=1, max_size=60))
    coords = np.array(ks, dtype=np.float64) * spacing
    return np.where(coords == 0.0, draw(st.sampled_from((0.0, -0.0))), coords)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(line_sets(), st.sampled_from((1e-3, 1e-2, 0.1, 1.0, 3.0, 10.0)))
def test_line_magnitude_and_gradient_match_exact_oracle(coords, t):
    _check_line_oracle(coords, t)


@pytest.mark.parametrize("t", [1e-3, 10.0])
def test_line_oracle_at_two_thousand_points(t):
    # 2,000 distinct points in shuffled order, 200 of them repeated; the
    # spacing keeps t * d <= 200, clear of subnormal zeta entries (t * d
    # above about 708), which slow the factor about 20x
    coords = 0.01 * np.arange(2000.0)[RngState(29).permutation(2000)]
    _check_line_oracle(np.concatenate([coords, coords[:200]]), t)
