"""Magnitude distance: reports, schedules, gradients, the triangle story."""
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import magmetric.distance
import magmetric.maggn
from magmetric.core import (DimensionMismatch, PointSet, RngState, _block,
                            sample_gaussian, union_sets)
from magmetric.distance import (ScaleSchedule, bound_check, check_triangle,
                                cross_polytope_counterexample, limit_probe,
                                mag_distance, mag_distance_gradient,
                                _gradient_geometry, _union_geometry,
                                _value_and_gradient)
from magmetric.maggn import TrainConfig, init_generator, multiscale_loss, train
from magmetric.magnitude import (CholeskyFailure, CoincidentPoints, _inverse_distances,
                                 magnitude)


def _pair(seed, n=15, dim=3, shift=1.0):
    rng = RngState(seed)
    x = sample_gaussian(rng.derive(0), n, dim)
    y = sample_gaussian(rng.derive(1), n, dim, mean=shift)
    return x, y


def test_report_fields_consistent():
    x, y = _pair(1)
    rep = mag_distance(x, y, 0.7)
    assert rep.t == 0.7
    assert rep.distance == pytest.approx(
        2 * rep.mag_union - rep.mag_x - rep.mag_y, abs=1e-12)
    assert rep.normalized == pytest.approx(rep.distance / rep.mag_union,
                                           abs=1e-12)
    assert rep.bound_2card == 2 * len(union_sets(x, y))
    assert rep.mag_x == pytest.approx(magnitude(x, 0.7).magnitude, abs=1e-12)


def test_symmetry_is_exact():
    for seed in range(10):
        x, y = _pair(seed, n=12, dim=4)
        for t in (0.1, 1.0, 10.0):
            assert mag_distance(x, y, t).distance == mag_distance(y, x, t).distance


def test_nonnegative_in_practice():
    for seed in range(10):
        x, y = _pair(seed, n=10, dim=2)
        assert mag_distance(x, y, 1.0).distance >= -1e-9


def test_identical_sets_zero():
    x, _ = _pair(5)
    rep = mag_distance(x, x, 1.0)
    assert rep.distance == pytest.approx(0.0, abs=1e-10)


def test_small_t_limit_and_large_t_limit():
    x = PointSet([[0.0], [2.0]])
    y = PointSet([[0.0], [3.0]])
    probe = limit_probe(x, y, t_small=1e-4, t_large=40.0)
    assert probe.sym_diff == 2
    assert probe.distance_small < 1e-2
    assert abs(probe.distance_large - probe.sym_diff) < 1e-3


def _far_point_rise(x, y, t, radius):
    far = np.zeros((1, y.coords.shape[1]))
    far[0, 0] = radius
    grown = PointSet(np.vstack([y.coords, far]))
    return mag_distance(x, grown, t).distance - mag_distance(x, y, t).distance


def test_far_point_adds_exactly_one():
    # A point at distance ~R from both sets is its own component once
    # t*R >> 1: it adds 1 to Mag(X u Y) and to Mag(Y), hence 1 to d_t(X, Y).
    # Criterion 10's outlier plateau rests on this limit.
    for seed in range(6):
        x, y = _pair(seed, n=8, dim=3)
        for t, radius in ((1.0, 100.0), (1.0, 1000.0), (0.1, 1000.0)):
            assert abs(_far_point_rise(x, y, t, radius) - 1.0) <= 1e-12
        # at t*R = 1 the point still overlaps the bulk
        assert _far_point_rise(x, y, 1.0, 1.0) < 0.5


def test_empty_operands():
    x = PointSet([[0.0], [1.0]])
    e = PointSet.empty(1)
    rep = mag_distance(x, e, 1.0)
    assert rep.distance == pytest.approx(magnitude(x, 1.0).magnitude, abs=1e-12)
    both = mag_distance(e, e, 1.0)
    assert both.distance == 0.0 and both.normalized == 0.0


def test_schedule_parse_and_active():
    s = ScaleSchedule.parse("0.5@1,1.5@100,3.0@200")
    assert s.last_epoch == 200
    assert s.scales_nondecreasing
    assert list(s.active(1)) == [0.5]
    assert list(s.active(99)) == [0.5]
    assert list(s.active(100)) == [0.5, 1.5]
    assert list(s.active(300)) == [0.5, 1.5, 3.0]
    assert list(ScaleSchedule.parse("2.0@5").active(4)) == []
    # decreasing scales are allowed, only flagged
    s = ScaleSchedule.parse("3.0@1,0.5@10")
    assert not s.scales_nondecreasing


def test_schedule_validation():
    with pytest.raises(ValueError):
        ScaleSchedule.parse("0.5@1,1.5@1")  # epochs must strictly increase
    with pytest.raises(ValueError):
        ScaleSchedule.parse("-0.5@1")
    with pytest.raises(ValueError):
        ScaleSchedule.parse("0.5@0")
    for text in ("nan@1", "inf@1", "0.5@1,nan@2"):
        with pytest.raises(ValueError, match="finite"):
            ScaleSchedule.parse(text)
    with pytest.raises(ValueError):
        ScaleSchedule.parse("junk")
    # a repeated scale would count twice in the training loss
    for text, value in (("0.5@1,0.5@2", "0.5"), ("1@1,2@2,1.0@3", "1.0"),
                        ("0.25@1,3@5,0.25@9", "0.25")):
        with pytest.raises(ValueError, match=f"must not repeat a value, got {value} "):
            ScaleSchedule.parse(text)
    with pytest.raises(ValueError, match="must not repeat"):
        ScaleSchedule(((2.0, 1), (2, 4)))
    # an epoch is a whole number; 1.7 is not silently epoch 1
    for entries in (((0.5, 1.7),), ((0.5, 1), (1.5, 2.5))):
        with pytest.raises(ValueError, match="epochs must be whole numbers"):
            ScaleSchedule(entries)
    assert ScaleSchedule(((0.5, 2.0), (1.5, np.int64(3)))).entries == ((0.5, 2), (1.5, 3))


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0])
def test_distance_rejects_bad_scale(t):
    x, y = _pair(3)
    with pytest.raises(ValueError):
        mag_distance(x, y, t)
    with pytest.raises(ValueError):
        _value_and_gradient(x, y, t, normalized=True)
    with pytest.raises(ValueError):
        cross_polytope_counterexample(3, t)


def test_multiscale_loss_accumulates():
    x, y = _pair(9, n=10, dim=2)
    s = ScaleSchedule.parse("1.5@1,0.5@3,3.0@5")
    for epoch in (1, 3, 5):
        scales = s.active(epoch)
        loss, grad = multiscale_loss(x, y, scales)
        # bitwise the mean of the per-scale values, summed in schedule order
        total = 0.0
        for t in scales:
            total += mag_distance(x, y, t).normalized
        assert loss == total / len(scales)
        want = sum(mag_distance_gradient(x, y, t, normalized=True)
                   for t in scales) / len(scales)
        assert grad.shape == y.coords.shape and np.array_equal(grad, want)
    for empty in ([], (), s.active(0)):
        with pytest.raises(ValueError, match="at least one scale"):
            multiscale_loss(x, y, empty)


def _fd_grad(x, y, t, normalized, eps=1e-6):
    coords = y.coords.copy()
    g = np.zeros_like(coords)
    for i in range(coords.shape[0]):
        for j in range(coords.shape[1]):
            coords[i, j] += eps
            rep = mag_distance(x, PointSet(coords), t)
            up = rep.normalized if normalized else rep.distance
            coords[i, j] -= 2 * eps
            rep = mag_distance(x, PointSet(coords), t)
            dn = rep.normalized if normalized else rep.distance
            coords[i, j] += eps
            g[i, j] = (up - dn) / (2 * eps)
    return g


@pytest.mark.parametrize("normalized", [False, True])
def test_distance_gradient_matches_fd(normalized):
    for seed in (0, 1, 2):
        rng = RngState(100 + seed)
        x = sample_gaussian(rng.derive(0), 8, 2)
        y = sample_gaussian(rng.derive(1), 6, 2, mean=0.5)
        t = 0.8
        val, grad = _value_and_gradient(x, y, t, normalized)
        rep = mag_distance(x, y, t)
        want = rep.normalized if normalized else rep.distance
        assert val == pytest.approx(want, abs=1e-10)
        fd = _fd_grad(x, y, t, normalized)
        assert np.max(np.abs(grad - fd)) < 1e-5 * max(1.0, np.abs(fd).max())


@pytest.mark.parametrize("y_rows, pair", [
    ([[2.0, 2.0], [1.0, 0.0]], (4, 1)),              # y_1 equals data point 1
    ([[2.0, 2.0], [3.0, 1.0], [2.0, 2.0]], (3, 5)),  # y_0 equals y_2
    ([[2.0, 2.0], [1e-12, 1.0]], (4, 2)),            # y_1 is 1e-12 from data point 2
])
def test_training_path_coincidence_errors(y_rows, pair):
    # X is duplicate-free, so a pair indexes the stack [X; Y] directly
    x = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for normalized in (True, False):
        with pytest.raises(CoincidentPoints, match="separation floor") as info:
            _value_and_gradient(x, PointSet(y_rows), 0.9, normalized)
        assert info.value.pair == pair
        assert info.value.distance < 1e-11


def test_public_gradient_wrapper():
    x, y = _pair(3, n=6, dim=2)
    grad = mag_distance_gradient(x, y, 0.5)
    assert grad.shape == y.coords.shape
    fd = _fd_grad(x, y, 0.5, normalized=False)
    assert np.max(np.abs(grad - fd)) < 1e-5 * max(1.0, np.abs(fd).max())


def test_gradient_singleton_closed_form():
    # one point each in the line: d = 2*(2/(1+e^{-t g})) - 2 for gap g > 0
    t, g = 1.3, 0.9
    x = PointSet([[0.0]])
    y = PointSet([[g]])
    grad = mag_distance_gradient(x, y, t)
    e = math.exp(-t * g)
    want = 4 * t * e / (1 + e) ** 2
    assert grad[0, 0] == pytest.approx(want, rel=1e-10)


def test_gradient_plateaus_at_large_t():
    x = PointSet([[0.0, 0.0], [1.0, 0.0]])
    y = PointSet([[10.0, 10.0], [12.0, 10.0]])
    grad = mag_distance_gradient(x, y, 50.0)
    assert np.abs(grad).max() < 1e-6


def test_triangle_holds_in_1d():
    rng = RngState(55)
    for k in range(100):
        r = rng.derive(k)
        x = sample_gaussian(r.derive(0), 6, 1)
        y = sample_gaussian(r.derive(1), 6, 1)
        z = sample_gaussian(r.derive(2), 6, 1)
        for t in (0.2, 1.0, 5.0):
            assert check_triangle(x, y, z, t) >= -1e-9


def test_cross_polytope_reduced_matches_dense():
    for dim in (2, 10, 20, 50):
        res = cross_polytope_counterexample(dim, 5.0, full_verify=True)
        assert res.dense_gap == pytest.approx(res.gap, abs=1e-9)
    tiny = cross_polytope_counterexample(1, 5.0)
    assert tiny.slack >= 0  # no violation in one dimension


@pytest.mark.parametrize("t", [1e-300, 1e-20, 1e-17, 1e-8, 1e300])
@pytest.mark.parametrize("dim", [1, 2, 3, 500])
def test_cross_polytope_extreme_scales(dim, t):
    # the closed form must not cancel to 0 / 0 at small t nor reach 0 * inf at
    # large t: gap -> 0 as t -> 0 and gap -> 1 as t -> inf
    res = cross_polytope_counterexample(dim, t)
    assert math.isfinite(res.gap) and res.slack == 2.0 * (1.0 - res.gap)
    assert res.gap == pytest.approx(1.0 if t > 1.0 else 0.0, abs=1e-6)


def test_cross_polytope_high_dim_violation():
    res = cross_polytope_counterexample(500, 5.0)
    assert res.gap == pytest.approx(7.18, abs=0.05)
    assert res.slack < 0


def test_cross_polytope_closed_form_builds_no_point_sets():
    # without full_verify the answer is closed-form: no 2*dim x dim array
    tracemalloc.start()
    try:
        res = cross_polytope_counterexample(2000, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.slack < 0 and res.dense_gap is None
    assert peak < 2**20


def test_bound_check_1d_and_separated():
    x = PointSet([[0.0], [1.0], [2.0]])
    y = PointSet([[0.5], [3.0]])
    for t in (0.1, 1.0, 10.0):
        chk = bound_check(mag_distance(x, y, t))
        assert chk.holds
    # far separated points in the plane: all weightings nonnegative at t=5
    x2 = PointSet([[0.0, 0.0], [10.0, 0.0]])
    y2 = PointSet([[0.0, 10.0], [10.0, 10.0]])
    chk = bound_check(mag_distance(x2, y2, 5.0))
    assert chk.applicable and chk.holds
    # tiny t in higher dim usually has negative weights -> not applicable
    x3, y3 = _pair(2, n=20, dim=5)
    chk3 = bound_check(mag_distance(x3, y3, 0.01))
    assert not chk3.applicable


# ------------------------------------------- one union geometry per pair


@pytest.fixture
def separation_checks(monkeypatch):
    """One entry per separation check run on the training path."""
    calls = []
    real = magmetric.distance._separation_check

    def counting(dists, x_block, y_rows):
        calls.append(len(y_rows))
        return real(dists, x_block, y_rows)

    monkeypatch.setattr(magmetric.distance, "_separation_check", counting)
    return calls


def _fresh(p: PointSet) -> PointSet:
    return PointSet(p.coords)


def test_scales_share_one_geometry(sq_calls):
    x, y = _pair(21, n=20, dim=5)
    scales = (0.01, 0.1, 0.5, 2.0)
    reports = [mag_distance(x, y, t) for t in scales]
    assert len(sq_calls) == 1
    for t, rep in zip(scales, reports):
        assert rep == mag_distance(_fresh(x), _fresh(y), t)
    assert len(sq_calls) == 1 + len(scales)


def test_multiscale_loss_builds_one_geometry(sq_calls, separation_checks):
    x, y = _pair(22, n=12, dim=3)
    scales = ScaleSchedule.parse("0.5@1,1.0@2,1.5@3").active(3)
    loss, grad = multiscale_loss(x, y, scales)
    assert len(sq_calls) == len(separation_checks) == 1
    # every scale and form on the stored geometry, then on fresh objects
    stored = [_value_and_gradient(x, y, t, normalized)
              for t in scales for normalized in (True, False)]
    assert len(sq_calls) == len(separation_checks) == 1
    fresh = [_value_and_gradient(_fresh(x), _fresh(y), t, normalized)
             for t in scales for normalized in (True, False)]
    assert len(sq_calls) == len(separation_checks) == 1 + len(fresh)
    for (val, g), (fresh_val, fresh_g) in zip(stored, fresh):
        assert val == fresh_val and g.tobytes() == fresh_g.tobytes()
    # fresh objects build their own geometry and give the same bytes
    fresh_loss, fresh_grad = multiscale_loss(_fresh(x), _fresh(y), scales)
    assert len(sq_calls) == len(separation_checks) == 2 + len(fresh)
    assert fresh_loss == loss and fresh_grad.tobytes() == grad.tobytes()


def test_train_builds_one_geometry_per_attempt(sq_calls, monkeypatch):
    pairs = []
    real = magmetric.maggn._value_and_gradient

    def recording(x, y, t, normalized):
        pairs.append((x, y))  # held, so no id is reused within the test
        return real(x, y, t, normalized=normalized)

    monkeypatch.setattr(magmetric.maggn, "_value_and_gradient", recording)
    data = sample_gaussian(RngState(23), 40, 2, mean=(3.0, 2.0), std=0.5)
    cfg = TrainConfig(schedule=ScaleSchedule.parse("0.5@1,1.0@2,1.5@3"),
                      epochs=3, batch_real=16, batch_gen=16,
                      learning_rate=0.01, seed=5)
    _, log = train(init_generator(RngState(4), (2, 8, 2)), data, cfg)
    assert [(r.active_scales, r.error) for r in log.rows] == \
        [(1, ""), (2, ""), (3, "")]
    assert len(pairs) == 6
    assert len(sq_calls) == len({(id(x), id(y)) for x, y in pairs}) == 3


def test_geometry_is_read_only():
    x, y = _pair(24, n=6, dim=2)
    union, dists, x_rows, y_rows, x_block, y_block, _ = _union_geometry(x, y)
    inv_u, inv_y = _gradient_geometry(x, y)
    for arr in (union, dists, x_rows, y_rows, x_block, y_block, inv_u, inv_y):
        assert arr.size
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]


def test_distance_pair_takes_one_root(roots):
    # the pair stores its plain distances, so no scale takes another root
    x, y = _pair(28, n=9, dim=2)
    for t in (0.1, 0.5, 1.5, 3.0):
        mag_distance(x, y, t)
    assert roots == [(len(union_sets(x, y)),) * 2]


def test_training_pair_takes_one_root_and_gathers_y_once_per_scale(roots, blocks):
    # the gradient path reads the pair's stored distances and builds every
    # scale's zeta from them; each zeta block it solves is the one it reads
    x, y = _pair(26, n=9, dim=2)
    scales = (0.5, 1.5, 3.0)
    multiscale_loss(x, y, scales)
    n = len(union_sets(x, y))
    assert roots == [(n, n)]
    y_block = _union_geometry(x, y)[5]
    assert sum(rows is y_block for _, rows, _ in blocks) == len(scales)
    assert len(blocks) == 1 + 2 * len(scales)  # the separation check, X's and Y's blocks


def test_inverse_distances_to_y_are_a_column_gather():
    # inv_y is inv_u's columns y_rows, bitwise the inverse of Y's own block
    # of plain distances, with or without repeated points in X
    rng = RngState(27)
    x = sample_gaussian(rng.derive(0), 8, 3)
    y = sample_gaussian(rng.derive(1), 6, 3, mean=0.5)
    x_dup = PointSet(np.vstack([x.coords, x.coords[[5, 0, 5]]]))
    for data in (x, x_dup):
        union, _, _, y_rows, _, y_block, _ = _union_geometry(data, y)
        inv_u, inv_y = _gradient_geometry(data, y)
        d = cdist(union, union)
        assert y_block.tobytes() == y_rows.tobytes()
        want = _inverse_distances(_block(d, y_block, y_block), np.arange(len(y)))
        assert inv_y.tobytes() == want.tobytes()
        assert inv_u.tobytes() == _inverse_distances(d, y_rows).tobytes()
        assert np.all(np.diag(inv_y) == 0.0)


def test_pair_geometry_holds_one_square_matrix():
    # only the plain distances are stored, and training keeps no other copy
    x, y = _pair(25, n=7, dim=3)
    multiscale_loss(x, y, (0.5, 1.0, 1.5))
    geometry = _union_geometry(x, y)
    n = len(union_sets(x, y))
    held = [a for a in (*geometry, *_gradient_geometry(x, y)) if isinstance(a, np.ndarray)]
    square = [a for a in held if a.shape == (n, n)]
    assert len(square) == 1 and square[0].dtype == np.float64
    assert square[0] is geometry[1]


def test_geometry_recomputed_after_errors(sq_calls, separation_checks):
    x = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    y = PointSet([[2.0, 2.0], [3.0, 1.0]])
    clash = PointSet([[2.0, 2.0], [1.0, 0.0]])  # its second point is x's second
    want = mag_distance(_fresh(x), _fresh(y), 0.9)
    n_calls = len(sq_calls)
    assert mag_distance(x, y, 0.9) == want
    with pytest.raises(DimensionMismatch):
        mag_distance(x, PointSet([[1.0, 2.0, 3.0]]), 0.9)
    assert mag_distance(x, y, 0.9) == want
    for normalized in (True, False):  # a failed check stores nothing
        with pytest.raises(CoincidentPoints):
            _value_and_gradient(x, clash, 0.9, normalized)
    assert len(separation_checks) == 2
    # the failed pair's geometry is still right for a plain distance
    assert mag_distance(x, clash, 0.9) == mag_distance(_fresh(x), _fresh(clash), 0.9)
    assert mag_distance(x, y, 0.9) == want
    # x,y  x,y(after mismatch)  x,clash  fresh clash  x,y
    assert len(sq_calls) - n_calls == 5


# ------------------------------------------- one solve per set and scale


def test_triangle_solves_each_set_once(solves):
    x, y = _pair(40, n=9, dim=2)
    z = sample_gaussian(RngState(41), 7, 2, mean=-1.0)
    check_triangle(x, y, z, 0.8)
    # X u Y, X, Y; Y u Z, Z; X u Z
    assert solves == [18, 9, 9, 16, 7, 16]


def test_repeated_call_solves_nothing(solves):
    x, y = _pair(42, n=8, dim=3)
    first = mag_distance(x, y, 0.6)
    assert solves == [16, 8, 8]
    assert mag_distance(x, y, 0.6) == first
    assert solves == [16, 8, 8]


def test_shared_set_solved_once_per_scale(solves):
    x = sample_gaussian(RngState(43), 10, 2)
    ys = [sample_gaussian(RngState(44 + k), n, 2, mean=1.0) for k, n in enumerate((7, 8, 9))]
    reports = [(y, t, mag_distance(x, y, t)) for y in ys for t in (0.3, 1.2)]
    # x is solved at its first pair's two scales, each union and each y at both
    assert solves == [17, 10, 7, 17, 10, 7, 18, 8, 18, 8, 19, 9, 19, 9]
    for y, t, rep in reports:
        assert rep == mag_distance(_fresh(x), _fresh(y), t)


def test_failed_union_solve_stores_nothing(solves):
    x = PointSet([[0.0], [1.0]])
    y = PointSet([[1e-14], [2.0]])  # the union is not numerically positive definite
    for _ in range(3):
        with pytest.raises(CholeskyFailure, match="union solve failed"):
            mag_distance(x, y, 1e-3)
    assert solves == [4, 4, 4]
    assert _union_geometry(x, y)[-1] == {}
    assert x._magnitudes == y._magnitudes == {}


def _distance_of(x, y):
    return mag_distance(x, y, 0.7)


def _magnitude_of(x, _):
    res = magnitude(x, 0.7)
    return res.magnitude, res.weights.tobytes()


@pytest.mark.parametrize("compute", [_distance_of, _magnitude_of],
                         ids=["mag_distance", "magnitude"])
def test_each_thread_keeps_its_own_geometry(compute):
    pairs = [_pair(30 + k, n=8, dim=3) for k in range(6)]
    want = [compute(_fresh(x), _fresh(y)) for x, y in pairs]
    wrong = []

    def worker(k):
        x, y = pairs[k]
        try:
            for _ in range(200):
                if compute(x, y) != want[k]:
                    wrong.append(k)
        except Exception as exc:  # a thread's exception would be lost
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(len(pairs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []
