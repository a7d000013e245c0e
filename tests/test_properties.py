"""Bitwise invariants of the shared union core, on random sets with injected
duplicates and signed zeros (hypothesis, derandomized)."""
import importlib
from dataclasses import astuple
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from magmetric.baselines import mmd_squared
from magmetric.core import (PointSet, RngState, _block, dedupe, pairwise_distances,
                            sample_gaussian)
from magmetric.distance import _union_geometry, _value_and_gradient, mag_distance
from magmetric.magnitude import _similarity, magnitude, magnitude_gradient

DISTANCE = importlib.import_module("magmetric.distance")
MAGNITUDE = importlib.import_module("magmetric.magnitude")

SCALES = st.sampled_from((0.1, 0.7, 3.0))
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def _flip_zeros(row):
    # the same point with the sign of every zero coordinate flipped
    return np.where(row == 0.0, -row, row)


@st.composite
def pairs(draw, training=False, wide=False):
    """(X, Y, X', Y'): X' and Y' are X and Y without their injected copies.

    Y' may share points with X'. Copies repeat a set's own points, with the
    sign of zero coordinates flipped. With training=True, Y' shares nothing
    with X', and only X gets copies and zeroed coordinates, so Y stays
    duplicate-free and apart from X. With wide=True, sets have up to 40
    points in up to 300 dimensions, scaled by 1e-3 to 1e3.
    """
    dim = draw(st.integers(1, 300 if wide else 4))
    n_max = 40 if wide else 7
    n_x, n_y = draw(st.integers(1, n_max)), draw(st.integers(1, n_max))
    pts = sample_gaussian(RngState(draw(st.integers(0, 2**32))), n_x + n_y, dim)
    pts = pts.coords.copy()
    if wide:
        pts *= 10.0 ** draw(st.floats(-3.0, 3.0))
    for i in draw(st.lists(st.integers(0, n_x + n_y - 1), max_size=4)):
        if not (training and i >= n_x):  # a zeroed Y row could meet X's in 1-D
            pts[i, 0] = 0.0
    base_x, base_y = pts[:n_x], pts[n_x:]
    if not training:
        shared = draw(st.lists(st.integers(0, n_x - 1), max_size=3))
        base_y = np.vstack([base_y] + [_flip_zeros(base_x[i]) for i in shared])
    x, y = [base_x], [base_y]
    for i, into_x in draw(st.lists(st.tuples(st.integers(0, 20),
                                             st.just(True) if training
                                             else st.booleans()), max_size=5)):
        base, out = (base_x, x) if into_x else (base_y, y)
        out.append(_flip_zeros(base[i % len(base)])[None, :])
    return (PointSet(np.vstack(x)), PointSet(np.vstack(y)),
            PointSet(base_x), PointSet(base_y))


def _bits(*values):
    return [np.float64(v).tobytes() for v in values]


def _fields(rep):
    return _bits(rep.distance, rep.normalized, rep.mag_union)


@SETTINGS
@given(pairs(), SCALES)
def test_distance_symmetric_bitwise(sets, t):
    x, y, _, _ = sets
    xy, yx = mag_distance(x, y, t), mag_distance(y, x, t)
    assert _fields(xy) == _fields(yx)
    assert _bits(xy.mag_x, xy.mag_y) == _bits(yx.mag_y, yx.mag_x)


@SETTINGS
@given(pairs(), SCALES)
def test_component_magnitudes_are_magnitude(sets, t):
    x, y, base_x, base_y = sets
    rep = mag_distance(x, y, t)
    assert _bits(rep.mag_x, rep.mag_y) == _bits(magnitude(x, t).magnitude,
                                                 magnitude(y, t).magnitude)
    # duplicates change nothing, bit for bit
    assert _fields(rep) == _fields(mag_distance(base_x, base_y, t))


def _report_bits(rep):
    # every DistanceReport field, floats as their bytes
    return [v if isinstance(v, tuple) else _bits(v) for v in astuple(rep)]


@SETTINGS
@given(pairs(), SCALES, SCALES)
def test_stored_solves_change_no_bit(sets, t, s):
    # X in three pairs, each asked at t, s and t again: the later calls read
    # the solves the earlier ones stored
    x, y, _, base_y = sets
    calls = [(p, scale) for p in (y, base_y, PointSet(y.coords[::-1]))
             for scale in (t, s, t)]
    reports = [mag_distance(x, p, scale) for p, scale in calls]
    for (p, scale), rep in zip(calls, reports):
        fresh = mag_distance(PointSet(x.coords), PointSet(p.coords), scale)
        assert _report_bits(rep) == _report_bits(fresh)
        swapped = mag_distance(p, x, scale)
        assert _fields(rep) == _fields(swapped)
        assert _bits(rep.mag_x, rep.mag_y) == _bits(swapped.mag_y, swapped.mag_x)
        assert _bits(rep.mag_x) == _bits(magnitude(x, scale).magnitude)


@SETTINGS
@given(pairs(training=True), SCALES)
def test_training_value_is_mag_distance(sets, t):
    x, y, _, _ = sets
    rep = mag_distance(x, y, t)
    assert _bits(_value_and_gradient(x, y, t, True)[0]) == _bits(rep.normalized)
    assert _bits(_value_and_gradient(x, y, t, False)[0]) == _bits(rep.distance)


@SETTINGS
@given(pairs(wide=True))
def test_distance_matrices_are_cdist_bitwise(sets):
    x, y, _, _ = sets
    union, dists, x_rows, y_rows, _, _, _ = _union_geometry(x, y)
    assert dists.tobytes() == cdist(union, union).tobytes()
    # gathered through the union rows, duplicates and signed zeros included
    both = np.concatenate([x.coords, y.coords])
    rows = np.concatenate([x_rows, y_rows])
    assert dists[np.ix_(rows, rows)].tobytes() == cdist(both, both).tobytes()
    for s in (x, y):
        assert pairwise_distances(s).tobytes() == cdist(s.coords, s.coords).tobytes()


@SETTINGS
@given(pairs(wide=True), st.sampled_from((1e-6, 0.1, 1.0, 1e3)))
def test_zeta_in_one_buffer_is_exp_of_distances(sets, t):
    x, y, _, _ = sets
    union, dists = _union_geometry(x, y)[:2]
    d = cdist(union, union)
    assert _similarity(dists, t).tobytes() == np.exp(-t * d).tobytes()
    assert dists.tobytes() == d.tobytes()  # the stored distances are only read


def _solver_inputs(module, fn, *args):
    # every zeta that fn hands to module's _solve_ones, with the solve faked
    seen = []

    def record(zeta):
        seen.append(zeta)
        return np.zeros(len(zeta)), 0.0, 1.0, 0.0

    with mock.patch.object(module, "_solve_ones", record):
        fn(*args)
    return seen


@SETTINGS
@given(pairs(wide=True), SCALES)
def test_solved_zetas_are_bitwise_symmetric(sets, t):
    # the factor reads zeta's upper triangle through zeta.T, which is the
    # lower one only if every solved zeta equals its transpose bit for bit
    x, y, _, _ = sets
    union, _, _, _, x_block, y_block, _ = _union_geometry(x, y)
    zeta = np.exp(-t * cdist(union, union))
    blocks = [_block(zeta, b, b) for b in (x_block, y_block)]
    assert [z.tobytes() for z in _solver_inputs(DISTANCE, mag_distance, x, y, t)] == \
        [z.tobytes() for z in [zeta, *blocks]]
    solved = [zeta, *blocks] + [_solver_inputs(MAGNITUDE, magnitude, s, t)[0]
                                for s in (x, y)]
    for z in solved:
        assert np.array_equal(z, z.T)


@SETTINGS
@given(pairs(training=True), SCALES)
def test_gradient_zetas_come_from_the_one_builder(sets, t):
    # the gradients solve zeta built from the plain distances they keep:
    # each is bitwise np.exp(-t * d) of its own distances, and symmetric
    x, y, _, _ = sets
    union, _, _, _, x_block, y_block, _ = _union_geometry(x, y)
    d = cdist(union, union)
    dists = [d] + [d[np.ix_(b, b)] for b in (x_block, y_block)]
    solved = _solver_inputs(DISTANCE, _value_and_gradient, x, y, t, False)
    for s in (x, y):
        reps = dedupe(s)[0].coords
        if len(reps) > 1:  # a singleton's gradient is 0 with no solve
            dists.append(cdist(reps, reps))
        solved += _solver_inputs(MAGNITUDE, magnitude_gradient, s, t)
    assert [z.tobytes() for z in solved] == [np.exp(-t * a).tobytes() for a in dists]
    for z in solved:
        assert np.array_equal(z, z.T)


@SETTINGS
@given(pairs(wide=True), st.sampled_from((0.3, 1.0, 3.0)))
def test_mmd_is_three_cdist_reference(sets, width):
    x, y, _, _ = sets
    xs, ys = x.coords, y.coords
    sigma = width * (float(cdist(xs, ys).max()) or 1.0)

    def mean_gram(a, b):
        return np.exp(-cdist(a, b)**2 / (2.0 * sigma**2)).mean()

    want = float(mean_gram(xs, xs) + mean_gram(ys, ys) - 2.0 * mean_gram(xs, ys))
    assert _bits(mmd_squared(x, y, sigma)) == _bits(want)
    assert mmd_squared(x, x, sigma) == 0.0
    assert mmd_squared(y, y, sigma) == 0.0
