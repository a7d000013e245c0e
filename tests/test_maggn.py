"""Generator init, forward/backward, training loop, checkpoints."""
import json
import math
import os

import numpy as np
import pytest

from magmetric.core import DimensionMismatch, PointSet, RngState, sample_gaussian
from magmetric.distance import ScaleSchedule, multiscale_loss
from magmetric.maggn import (TRAIN_LOG_HEADER, Generator, TrainConfig,
                             TrainLog, forward, init_generator,
                             load_checkpoint, sample, save_checkpoint, train)


def small_schedule():
    return ScaleSchedule.parse("0.5@1,1.5@3")


def test_init_deterministic_and_glorot_bounded():
    dims = (2, 16, 3)
    g1 = init_generator(RngState(5), dims)
    g2 = init_generator(RngState(5), dims)
    for w1, w2 in zip(g1.weights, g2.weights):
        assert np.array_equal(w1, w2)
    for l, (fi, fo) in enumerate(zip(dims[:-1], dims[1:])):
        lim = math.sqrt(6.0 / (fi + fo))
        w = g1.weights[l]
        assert w.shape == (fi, fo)
        assert np.abs(w).max() <= lim
        assert np.abs(w).max() > 0.5 * lim  # actually spread out, not tiny
        assert np.array_equal(g1.biases[l], np.zeros(fo))
    assert g1.z_dim == 2 and g1.data_dim == 3


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        init_generator(RngState(1), (4,))
    with pytest.raises(ValueError):
        init_generator(RngState(1), (4, 0, 2))


def test_forward_linear_output_layer():
    # single layer network is affine: out = z W + b, no activation on output
    gen = Generator(layer_dims=(2, 2),
                    weights=[np.array([[1.0, 2.0], [3.0, 4.0]])],
                    biases=[np.array([0.5, -0.5])])
    out = forward(gen, PointSet([[1.0, 1.0]]))
    assert np.allclose(out.coords, [[4.5, 5.5]], atol=1e-15)


def test_forward_hidden_tanh():
    gen = Generator(layer_dims=(1, 1, 1),
                    weights=[np.array([[2.0]]), np.array([[3.0]])],
                    biases=[np.array([0.0]), np.array([1.0])])
    out = forward(gen, PointSet([[0.5]]))
    assert out.coords[0, 0] == pytest.approx(3.0 * math.tanh(1.0) + 1.0,
                                             rel=1e-14)


def test_forward_zero_parameters_zero_output():
    gen = Generator(layer_dims=(3, 4, 2),
                    weights=[np.zeros((3, 4)), np.zeros((4, 2))],
                    biases=[np.zeros(4), np.zeros(2)])
    out = forward(gen, PointSet(np.ones((5, 3))))
    assert np.array_equal(out.coords, np.zeros((5, 2)))


def test_forward_matches_manual_reimplementation():
    gen = init_generator(RngState(44), (3, 7, 5, 2))
    zs = RngState(45).normals(6 * 3).reshape(6, 3)
    h = zs
    for l, (w, b) in enumerate(zip(gen.weights, gen.biases)):
        h = h @ w + b
        if l < len(gen.weights) - 1:
            h = np.tanh(h)
    out = forward(gen, PointSet(zs))
    assert np.max(np.abs(out.coords - h)) < 1e-12


def test_forward_shape_mismatch():
    gen = init_generator(RngState(0), (3, 2))
    with pytest.raises(DimensionMismatch):
        forward(gen, PointSet(np.ones((4, 2))))


def _data(seed=8, n=48):
    return sample_gaussian(RngState(seed), n, 2, mean=1.0, std=0.4)


def test_train_config_validation():
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainConfig(schedule=small_schedule(), learning_rate=bad)
    with pytest.raises(ValueError, match="batch sizes"):
        TrainConfig(schedule=small_schedule(), batch_gen=0)


def test_zero_learning_rate_freezes_parameters():
    data = _data()
    gen = init_generator(RngState(3), (2, 8, 2))
    before_w = [w.copy() for w in gen.weights]
    before_b = [b.copy() for b in gen.biases]
    cfg = TrainConfig(schedule=small_schedule(), epochs=5, batch_real=16,
                      batch_gen=16, learning_rate=0.0, seed=11)
    gen, log = train(gen, data, cfg)
    for w, w0 in zip(gen.weights, before_w):
        assert np.array_equal(w, w0)
    for b, b0 in zip(gen.biases, before_b):
        assert np.array_equal(b, b0)
    assert len(log.rows) == 5


def test_train_deterministic_and_logged():
    data = _data()
    cfg = TrainConfig(schedule=small_schedule(), epochs=6, batch_real=24,
                      batch_gen=24, learning_rate=0.01, seed=7)
    g1, log1 = train(init_generator(RngState(2), (2, 8, 2)), data, cfg)
    g2, log2 = train(init_generator(RngState(2), (2, 8, 2)), data, cfg)
    for w1, w2 in zip(g1.weights, g2.weights):
        assert np.array_equal(w1, w2)
    assert [r.loss for r in log1.rows] == [r.loss for r in log2.rows]
    assert [r.epoch for r in log1.rows] == list(range(1, 7))
    # active scale count steps up at epoch 3 and never decreases
    active = [r.active_scales for r in log1.rows]
    assert active == sorted(active)
    assert active[0] == 1 and active[-1] == 2


def test_train_loss_matches_multiscale_loss():
    # with lr=0 the generator never moves, so the logged loss must equal
    # the loss recomputed from the frozen generator's own samples
    data = _data(n=32)
    gen = init_generator(RngState(4), (2, 6, 2))
    cfg = TrainConfig(schedule=small_schedule(), epochs=1, batch_real=32,
                      batch_gen=16, learning_rate=0.0, seed=9,
                      normalized_loss=True)
    trained, log = train(gen, data, cfg)
    z = RngState(9).derive(1)  # training stream
    picks = z.permutation(len(data))[:32]
    real = PointSet(data.coords[picks])
    zs = z.normals(16 * 2).reshape(16, 2)
    out = forward(trained, PointSet(zs))
    want = multiscale_loss(real, out, small_schedule(), 1, normalized_loss=True)
    assert log.rows[0].loss == want


def test_end_to_end_gradient_micro_net():
    # micro net: 1 -> 1 affine (2 parameters). finite-difference the logged
    # training objective wrt each parameter against the applied Adam step
    # direction at step one: Adam normalizes, so instead check the raw
    # gradient via a manual replay of the forward/backward path.
    from magmetric.distance import _value_and_gradient
    from magmetric.maggn import _forward, _backward

    data = PointSet([[0.0], [0.6], [1.2]])
    gen = Generator(layer_dims=(1, 1),
                    weights=[np.array([[0.8]])],
                    biases=[np.array([0.1])])
    zs = RngState(3).normals(4).reshape(4, 1)
    t = 0.9

    out, acts = _forward(gen, zs)
    val, dY = _value_and_gradient(data, PointSet(out), t, True, 1e-9)
    g_w, g_b = _backward(gen, acts, dY)

    eps = 1e-6
    for arr, g, idx in ((gen.weights[0], g_w[0], (0, 0)),
                        (gen.biases[0], g_b[0], (0,))):
        arr[idx] += eps
        up, _ = _value_and_gradient(
            data, forward(gen, PointSet(zs)), t, True, 1e-9)
        arr[idx] -= 2 * eps
        dn, _ = _value_and_gradient(
            data, forward(gen, PointSet(zs)), t, True, 1e-9)
        arr[idx] += eps
        fd = (up - dn) / (2 * eps)
        assert g[idx] == pytest.approx(fd, rel=1e-4)


def test_train_log_csv_format(tmp_path):
    data = _data(n=24)
    cfg = TrainConfig(schedule=small_schedule(), epochs=3, batch_real=12,
                      batch_gen=12, learning_rate=0.01, seed=1)
    _, log = train(init_generator(RngState(1), (2, 4, 2)), data, cfg)
    path = str(tmp_path / "log.csv")
    log.to_csv(path)
    lines = open(path).read().splitlines()
    assert lines[0] == TRAIN_LOG_HEADER
    assert TRAIN_LOG_HEADER == "epoch,active_scales,loss,grad_norm,seconds"
    assert len(lines) == 4
    fields = lines[1].split(",")
    assert int(fields[0]) == 1 and int(fields[1]) == 1
    float(fields[2]); float(fields[3]); float(fields[4])


def test_checkpoint_round_trip(tmp_path):
    gen = init_generator(RngState(77), (2, 5, 3))
    p1 = str(tmp_path / "a.json")
    p2 = str(tmp_path / "b.json")
    save_checkpoint(gen, p1)
    back = load_checkpoint(p1)
    assert back.layer_dims == gen.layer_dims
    for w1, w2 in zip(back.weights, gen.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(back.biases, gen.biases):
        assert np.array_equal(b1, b2)
    save_checkpoint(back, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    blob = json.load(open(p1))
    assert blob["format_version"] == 1


def test_checkpoint_rejects_bad_blobs(tmp_path):
    path = str(tmp_path / "bad.json")
    gen = init_generator(RngState(1), (2, 3, 2))
    save_checkpoint(gen, path)
    blob = json.load(open(path))
    blob["format_version"] = 99
    json.dump(blob, open(path, "w"))
    with pytest.raises(ValueError):
        load_checkpoint(path)
    blob["format_version"] = 1
    blob["layers"][0]["weights"] = [1.0, 2.0]  # wrong length
    json.dump(blob, open(path, "w"))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_sample_shape_and_determinism():
    gen = init_generator(RngState(6), (3, 4, 2))
    pts = sample(gen, RngState(10), 25)
    assert pts.coords.shape == (25, 2)
    again = sample(gen, RngState(10), 25)
    assert np.array_equal(pts.coords, again.coords)


def test_decreasing_schedule_warns():
    data = _data(n=16)
    cfg = TrainConfig(schedule=ScaleSchedule.parse("2.0@1,0.5@2"), epochs=2,
                      batch_real=8, batch_gen=8, learning_rate=0.01, seed=2)
    with pytest.warns(RuntimeWarning):
        train(init_generator(RngState(3), (2, 4, 2)), data, cfg)


def test_train_rejects_wrong_data_dim():
    data = _data(n=16)  # 2-d data
    gen = init_generator(RngState(3), (2, 4, 3))  # 3-d output
    cfg = TrainConfig(schedule=small_schedule(), epochs=1, batch_real=8,
                      batch_gen=8, learning_rate=0.01, seed=2)
    with pytest.raises(DimensionMismatch):
        train(gen, data, cfg)
