"""Generator init, forward/backward, training loop, checkpoints."""
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import magmetric.maggn
from magmetric.cli import main
from magmetric.core import (DimensionMismatch, PointSet, RngState, sample_gaussian,
                            write_point_csv)
from magmetric.distance import ScaleSchedule
from magmetric.maggn import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, TRAIN_LOG_HEADER,
                             Generator, TrainConfig, TrainLog, TrainLogRow, _backward,
                             _forward, forward, init_generator, load_checkpoint,
                             multiscale_loss, sample, save_checkpoint, train)
from magmetric.magnitude import CoincidentPoints


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
    # a size is not truncated or read from a bool: (2, 32.7, 2) is not (2, 32, 2)
    for dims in ((2, 32.7, 2), (2, True, 2), (2.0, 4, 2), (2, "4", 2)):
        with pytest.raises(ValueError, match="layer_dims must be an integer"):
            init_generator(RngState(1), dims)
    assert init_generator(RngState(1), (np.int64(2), 4, 2)).layer_dims == (2, 4, 2)


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
    for bad in (-0.1, math.nan, math.inf, True, "0.1", 1 + 2j, None):
        with pytest.raises(ValueError, match="learning_rate must be finite and not negative"):
            TrainConfig(schedule=small_schedule(), learning_rate=bad)
    for good in (np.float32(0.5), np.int64(0)):
        assert TrainConfig(schedule=small_schedule(), learning_rate=good).learning_rate == good
    with pytest.raises(ValueError, match="batch_gen must be >= 1"):
        TrainConfig(schedule=small_schedule(), batch_gen=0)
    # a schedule that starts after the last epoch would train nothing
    with pytest.raises(ValueError, match="^schedule starts at epoch 3, after epochs 2: "
                                         "no scale would ever train$"):
        TrainConfig(schedule=ScaleSchedule.parse("0.5@3"), epochs=2)
    assert TrainConfig(schedule=ScaleSchedule.parse("0.5@2,1.5@9"), epochs=2).epochs == 2
    # counts and the seed are integers: bools and floats are refused at
    # construction, numpy integers are kept
    for name in ("epochs", "batch_real", "batch_gen", "seed"):
        for bad in (True, False, 2.5, 2.0, "2", None):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                TrainConfig(schedule=small_schedule(), **{name: bad})
        assert getattr(TrainConfig(schedule=small_schedule(), **{name: np.int64(3)}),
                       name) == 3


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
    # with lr=0 the generator never moves, so every logged loss and gradient
    # norm must equal the ones recomputed from the frozen generator's own
    # samples, as the active scales grow from one to two
    data = _data(n=32)
    gen = init_generator(RngState(4), (2, 6, 2))
    cfg = TrainConfig(schedule=small_schedule(), epochs=3, batch_real=32,
                      batch_gen=16, learning_rate=0.0, seed=9)
    trained, log = train(gen, data, cfg)
    z = RngState(9).derive(1)  # training stream
    for epoch, row in enumerate(log.rows, start=1):
        picks = z.permutation(len(data))[:32]
        real = PointSet(data.coords[picks])
        out, acts = _forward(trained, z.normals(16 * 2).reshape(16, 2))
        scales = small_schedule().active(epoch)
        loss, grad_out = multiscale_loss(real, PointSet(out), scales)
        g_w, g_b = _backward(trained, acts, grad_out)
        grad_norm = math.sqrt(sum(float((g * g).sum()) for g in g_w + g_b))
        assert (row.active_scales, row.loss, row.grad_norm) == \
            (len(scales), loss, grad_norm)


def test_end_to_end_gradient_micro_net():
    # micro net: 1 -> 1 affine (2 parameters). finite-difference the logged
    # training objective wrt each parameter against the applied Adam step
    # direction at step one: Adam normalizes, so instead check the raw
    # gradient via a manual replay of the forward/backward path.
    from magmetric.distance import _value_and_gradient

    data = PointSet([[0.0], [0.6], [1.2]])
    gen = Generator(layer_dims=(1, 1),
                    weights=[np.array([[0.8]])],
                    biases=[np.array([0.1])])
    zs = RngState(3).normals(4).reshape(4, 1)
    t = 0.9

    out, acts = _forward(gen, zs)
    val, dY = _value_and_gradient(data, PointSet(out), t, True)
    g_w, g_b = _backward(gen, acts, dY)

    eps = 1e-6
    for arr, g, idx in ((gen.weights[0], g_w[0], (0, 0)),
                        (gen.biases[0], g_b[0], (0,))):
        arr[idx] += eps
        up, _ = _value_and_gradient(data, forward(gen, PointSet(zs)), t, True)
        arr[idx] -= 2 * eps
        dn, _ = _value_and_gradient(data, forward(gen, PointSet(zs)), t, True)
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
    lines = Path(path).read_text().splitlines()
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
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    blob = json.loads(Path(p1).read_text())
    assert blob["format_version"] == 1


def test_checkpoint_rejects_bad_blobs(tmp_path):
    path = str(tmp_path / "bad.json")
    gen = init_generator(RngState(1), (2, 3, 2))
    save_checkpoint(gen, path)
    blob = json.loads(Path(path).read_text())
    blob["format_version"] = 99
    Path(path).write_text(json.dumps(blob))
    with pytest.raises(ValueError):
        load_checkpoint(path)
    blob["format_version"] = 1
    blob["layers"][0]["weights"] = [1.0, 2.0]  # wrong length
    Path(path).write_text(json.dumps(blob))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_what_init_rejects(tmp_path):
    path = str(tmp_path / "bad.json")
    with pytest.raises(ValueError, match="layer_dims must be >= 1"):
        init_generator(RngState(1), (2, 0, 2))
    Path(path).write_text(json.dumps({"format_version": 1, "layer_dims": [2, 0, 2],
                                      "layers": [{"weights": [], "biases": []},
                                                 {"weights": [], "biases": [1.5, -2.0]}]}))
    with pytest.raises(ValueError, match="layer_dims must be >= 1"):
        load_checkpoint(path)
    gen = init_generator(RngState(1), (2, 3, 2))
    save_checkpoint(gen, path)
    blob = json.loads(Path(path).read_text())
    blob["layers"][1]["biases"][0] = math.inf  # json writes Infinity
    Path(path).write_text(json.dumps(blob))
    with pytest.raises(ValueError, match="parameters must be finite"):
        load_checkpoint(path)


def test_sample_shape_and_determinism():
    gen = init_generator(RngState(6), (3, 4, 2))
    pts = sample(gen, RngState(10), 25)
    assert pts.coords.shape == (25, 2)
    again = sample(gen, RngState(10), 25)
    assert np.array_equal(pts.coords, again.coords)


@pytest.mark.parametrize("n", [2.5, 2.0, True])
def test_sample_refuses_a_count_that_is_not_an_integer(n):
    # the error names n, not the draw count n * z_dim
    gen = init_generator(RngState(6), (2, 4, 2))
    with pytest.raises(ValueError, match=rf"^n must be an integer, got {n!r}$"):
        sample(gen, RngState(10), n)
    assert np.array_equal(sample(gen, RngState(10), np.int64(3)).coords,
                          sample(gen, RngState(10), 3).coords)


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


def _params(gen: Generator) -> list:
    return [p.copy() for p in gen.weights + gen.biases]


def _moved(gen: Generator, before: list) -> bool:
    return any(not np.array_equal(p, q) for p, q in zip(gen.weights + gen.biases, before))


def _one_scale_config(schedule: str, epochs: int) -> TrainConfig:
    return TrainConfig(schedule=ScaleSchedule.parse(schedule), epochs=epochs,
                       batch_real=16, batch_gen=16, learning_rate=0.01, seed=4)


def test_inactive_epochs_log_zero_and_hold_parameters(monkeypatch):
    scales = []
    real = magmetric.maggn._value_and_gradient
    gen = init_generator(RngState(3), (2, 8, 2))
    before = _params(gen)
    held = []

    def recording(x, y, t, normalized):
        scales.append(t)
        held.append(not _moved(gen, before))
        return real(x, y, t, normalized=normalized)

    monkeypatch.setattr(magmetric.maggn, "_value_and_gradient", recording)
    gen, log = train(gen, _data(), _one_scale_config("0.5@3", epochs=3))
    assert [(r.epoch, r.active_scales, r.loss, r.grad_norm, r.error)
            for r in log.rows[:2]] == [(1, 0, 0.0, 0.0, ""), (2, 0, 0.0, 0.0, "")]
    # epochs 1 and 2 took no loss and no step; epoch 3 activates the scale
    # and takes the first step
    assert scales == [0.5] and held == [True]
    assert log.rows[2].active_scales == 1 and log.rows[2].loss > 0.0
    assert _moved(gen, before)


def test_coincident_points_retry_with_a_fresh_batch(monkeypatch):
    batches = []
    real = magmetric.maggn._value_and_gradient

    def flaky(x, y, t, normalized):
        batches.append(y.coords.copy())
        if len(batches) == 1:
            raise CoincidentPoints(0, 1, 0.0)
        return real(x, y, t, normalized=normalized)

    monkeypatch.setattr(magmetric.maggn, "_value_and_gradient", flaky)
    gen = init_generator(RngState(3), (2, 8, 2))
    before = _params(gen)
    gen, log = train(gen, _data(), _one_scale_config("0.5@1", epochs=1))
    assert len(log.rows) == 1
    row = log.rows[0]
    assert row.error == "" and math.isfinite(row.loss) and math.isfinite(row.grad_norm)
    assert len(batches) == 2 and not np.array_equal(batches[0], batches[1])
    assert _moved(gen, before)


def test_two_coincident_failures_log_an_error_row(monkeypatch, tmp_path, capsys):
    def coincident(x, y, t, normalized):
        raise CoincidentPoints(2, 5, 1e-12)

    monkeypatch.setattr(magmetric.maggn, "_value_and_gradient", coincident)
    gen = init_generator(RngState(3), (2, 8, 2))
    before = _params(gen)
    gen, log = train(gen, _data(), _one_scale_config("0.5@1", epochs=2))
    assert len(log.rows) == 2
    for row in log.rows:
        assert math.isnan(row.loss) and math.isnan(row.grad_norm)
        assert row.error.startswith("CoincidentPoints:")
    assert not _moved(gen, before)
    data_csv = str(tmp_path / "data.csv")
    write_point_csv(data_csv, _data())
    code = main(["maggn", "train", "--data", data_csv, "--schedule", "0.5@1",
                 "--epochs", "2", "--out", str(tmp_path / "run"), "--json"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert code == 0
    assert results["error_epochs"] == 2 and math.isnan(results["final_loss"])


def _per_array_train(gen: Generator, data: PointSet, config: TrainConfig):
    # the reference: train's epoch loop with Adam stepped array by array,
    # each weight and bias updated in place with moments of its own
    rng = RngState(config.seed).derive(1)
    params = gen.weights + gen.biases
    adam_m = [np.zeros_like(p) for p in params]
    adam_v = [np.zeros_like(p) for p in params]
    batch_real = min(config.batch_real, len(data))
    log = TrainLog()
    step = 0
    for epoch in range(1, config.epochs + 1):
        active = config.schedule.active(epoch)
        if not active:
            log.rows.append(TrainLogRow(epoch, 0, 0.0, 0.0, 0.0))
            continue
        picks = rng.permutation(len(data))[:batch_real]
        real_batch = PointSet(data.coords[picks])
        for _ in range(2):
            z = rng.normals(config.batch_gen * gen.z_dim).reshape(config.batch_gen, gen.z_dim)
            out, acts = _forward(gen, z)
            try:
                loss, grad_out = multiscale_loss(real_batch, PointSet(out), active)
                break
            except CoincidentPoints as exc:
                error_text = f"{type(exc).__name__}: {exc}"
        else:
            log.rows.append(TrainLogRow(epoch, len(active), float("nan"), float("nan"), 0.0,
                                        error=error_text))
            continue
        g_w, g_b = _backward(gen, acts, grad_out)
        grads = g_w + g_b
        step += 1
        corr1 = 1.0 - ADAM_BETA1**step
        corr2 = 1.0 - ADAM_BETA2**step
        for p, g, m, v in zip(params, grads, adam_m, adam_v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= config.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
        grad_norm = math.sqrt(sum(float((g * g).sum()) for g in grads))
        log.rows.append(TrainLogRow(epoch, len(active), float(loss), grad_norm, 0.0))
    return gen, log


def _bitwise_rows(log: TrainLog) -> list:
    # every log field but seconds, floats by their bits
    return [(r.epoch, r.active_scales, r.loss.hex(), r.grad_norm.hex(), r.error)
            for r in log.rows]


def test_flat_adam_step_matches_the_per_array_loop(monkeypatch, tmp_path):
    # epochs 1-2 are inactive, a second scale joins at epoch 9, and both
    # attempts of epoch 5 (the third and fourth calls) raise, so it logs an
    # error row and skips its step
    real = magmetric.maggn._value_and_gradient
    calls = []

    def failing_epoch_5(x, y, t, normalized):
        calls.append(t)
        if len(calls) in (3, 4):
            raise CoincidentPoints(1, 2, 1e-12)
        return real(x, y, t, normalized=normalized)

    monkeypatch.setattr(magmetric.maggn, "_value_and_gradient", failing_epoch_5)
    cfg = TrainConfig(schedule=ScaleSchedule.parse("0.5@3,1.5@9"), epochs=20,
                      batch_real=16, batch_gen=16, learning_rate=0.01, seed=6)
    want, want_log = _per_array_train(init_generator(RngState(5), (2, 8, 8, 2)), _data(), cfg)
    calls.clear()
    gen = init_generator(RngState(5), (2, 8, 8, 2))
    callers_first = gen.weights[0]
    first_before = callers_first.copy()
    got, log = train(gen, _data(), cfg)
    assert got is gen
    rows = _bitwise_rows(log)
    assert [r[:2] for r in rows[:10]] == [(1, 0), (2, 0)] + [(e, 1) for e in range(3, 9)] + \
        [(9, 2), (10, 2)]
    assert rows[4][2] == "nan" and rows[4][4].startswith("CoincidentPoints:")
    assert rows == _bitwise_rows(want_log)
    for p, q in zip(gen.weights + gen.biases, want.weights + want.biases):
        assert (p.shape, p.dtype, p.tobytes()) == (q.shape, q.dtype, q.tobytes())
    save_checkpoint(gen, tmp_path / "flat.json")
    save_checkpoint(want, tmp_path / "loop.json")
    assert (tmp_path / "flat.json").read_bytes() == (tmp_path / "loop.json").read_bytes()
    # gen's weights and biases were rebound to views of one buffer; the
    # arrays the caller held before are left as they were
    owners = {id(p.base) for p in gen.weights + gen.biases}
    assert len(owners) == 1 and gen.weights[0].base is not None
    assert callers_first.tobytes() == first_before.tobytes()
    assert not np.array_equal(gen.weights[0], first_before)
