"""Toy push-forward generative trainer on the multi-scale distance loss.

A small tanh MLP maps reference normals to data space; training minimizes the
mean normalized magnitude distance over the scales a ScaleSchedule has
activated so far (coarse scales first, finer ones joining at their epochs,
earlier ones never dropped). Differentiation is written out by hand: the
distance gradient in the generated points chains into plain MLP backprop.

RNG streams per seed: derive(0) is meant for init_generator, derive(1) is
consumed by train (batches and reference draws), derive(2) by sampling.
"""
from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import DimensionMismatch, PointSet, RngState, _is_list_of, _require_int, fmt17
from .distance import ScaleSchedule, _value_and_gradient
from .magnitude import _REAL, CoincidentPoints

CHECKPOINT_VERSION = 1
TRAIN_LOG_HEADER = "epoch,active_scales,loss,grad_norm,seconds"
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class Generator:
    """MLP from z_dim to data_dim: tanh hidden layers, identity output.

    weights[l] has shape (layer_dims[l], layer_dims[l+1]); hidden layers
    apply tanh, the final layer none.
    """

    layer_dims: tuple[int, ...]
    weights: list
    biases: list

    @property
    def z_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def data_dim(self) -> int:
        return self.layer_dims[-1]


@dataclass(frozen=True)
class TrainConfig:
    schedule: ScaleSchedule
    epochs: int = 300
    batch_real: int = 64
    batch_gen: int = 64
    learning_rate: float = 1e-3
    seed: int = 42

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_real", 1), ("batch_gen", 1), ("seed", None)):
            _require_int(getattr(self, name), name, low)
        lr = self.learning_rate
        if isinstance(lr, bool) or not (isinstance(lr, _REAL) and math.isfinite(lr) and lr >= 0):
            raise ValueError("learning_rate must be finite and not negative")
        first_epoch = self.schedule.entries[0][1]
        if first_epoch > self.epochs:  # every epoch would log 0 and train nothing
            raise ValueError(f"schedule starts at epoch {first_epoch}, after epochs "
                             f"{self.epochs}: no scale would ever train")


@dataclass(frozen=True)
class TrainLogRow:
    epoch: int
    active_scales: int
    loss: float
    grad_norm: float
    seconds: float
    error: str = ""


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(TRAIN_LOG_HEADER + "\n")
            for r in self.rows:
                fh.write(f"{r.epoch},{r.active_scales},{fmt17(r.loss)},"
                         f"{fmt17(r.grad_norm)},{fmt17(r.seconds)}\n")


def _check_generator(dims, params=()) -> None:
    """What every Generator meets: an input and an output size, every layer
    dim an integer >= 1, and finite parameters."""
    if len(dims) < 2:
        raise ValueError("layer_dims needs at least input and output sizes")
    for d in dims:
        _require_int(d, "layer_dims", 1)
    if not all(np.isfinite(p).all() for p in params):
        raise ValueError("generator parameters must be finite")


def init_generator(rng: RngState, layer_dims) -> Generator:
    """Glorot-uniform weights, zero biases.

    Each layer's weight matrix consumes fan_in*fan_out uniforms row-major,
    mapped to (-lim, lim] with lim = sqrt(6/(fan_in+fan_out)); biases burn
    no draws. Layer order front to back.
    """
    dims = tuple(layer_dims)
    _check_generator(dims)
    dims = tuple(map(int, dims))
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        u = rng.uniforms(fan_in * fan_out)
        weights.append(((2.0 * u - 1.0) * lim).reshape(fan_in, fan_out))
        biases.append(np.zeros(fan_out))
    return Generator(dims, weights, biases)


def _forward(gen: Generator, z: np.ndarray):
    """(output, acts): acts[l] is the input of layer l, acts[-1] the output."""
    acts = [z]
    h = z
    last = len(gen.weights) - 1
    for l, (w, b) in enumerate(zip(gen.weights, gen.biases)):
        h = h @ w + b
        if l != last:
            h = np.tanh(h)
        acts.append(h)
    return h, acts


def _backward(gen: Generator, acts, grad_out: np.ndarray):
    """Gradients for all weights and biases from d loss / d output.

    acts[l] is the input of layer l (post-activation of the previous one),
    so tanh' = 1 - acts[l]^2 applies when stepping below layer l.
    """
    n_layers = len(gen.weights)
    g_w = [None] * n_layers
    g_b = [None] * n_layers
    delta = grad_out  # d loss / d pre-activation of the current layer
    for l in range(n_layers - 1, -1, -1):
        g_w[l] = acts[l].T @ delta
        g_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ gen.weights[l].T) * (1.0 - acts[l] ** 2)
    return g_w, g_b


def _split(flat: np.ndarray, arrays) -> list:
    """Views of `flat` shaped like `arrays`, laid end to end in their order."""
    views, start = [], 0
    for a in arrays:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return views


def forward(gen: Generator, Z: PointSet) -> PointSet:
    """Push a batch of reference points through the network."""
    if Z.dim != gen.z_dim:
        raise DimensionMismatch(f"reference dim {Z.dim} vs z_dim {gen.z_dim}")
    return PointSet(_forward(gen, Z.coords)[0])


def multiscale_loss(real: PointSet, gen: PointSet, scales) -> tuple[float, np.ndarray]:
    """Mean normalized distance from real to gen over `scales`, and its
    gradient in gen's points; the scales share gen's one union geometry."""
    if len(scales) == 0:
        raise ValueError("multiscale_loss needs at least one scale")
    loss, grad = 0.0, np.zeros_like(gen.coords)
    for t in scales:
        val, g = _value_and_gradient(real, gen, t, normalized=True)
        loss += val
        grad += g
    return loss / len(scales), grad / len(scales)


def train(gen: Generator, data: PointSet, config: TrainConfig):
    """Adam on the multi-scale normalized distance; one update per epoch.

    Per epoch: draw a reference batch, push it forward, take a real
    minibatch without replacement, take multiscale_loss over the active
    scales, backpropagate, and step. Coincident generated points are retried
    once with a fresh reference batch; a second failure logs the epoch as an
    error row and skips the update. Returns (gen, TrainLog). Adam is
    elementwise, so it steps one flat buffer of all the parameters, weights
    then biases in layer order: gen.weights and gen.biases are rebound to
    views of it and hold the trained values. The arrays they held before
    are not written to.
    """
    if len(data) == 0:
        raise ValueError("training data must be nonempty")
    if data.dim != gen.data_dim:
        raise DimensionMismatch(f"data dim {data.dim} vs generator output {gen.data_dim}")
    if not config.schedule.scales_nondecreasing:
        warnings.warn("schedule scales are not nondecreasing; the loss is "
                      "defined but the curriculum runs fine-to-coarse",
                      RuntimeWarning, stacklevel=2)
    rng = RngState(config.seed).derive(1)
    arrays = gen.weights + gen.biases
    params = np.concatenate([p.ravel() for p in arrays])
    views = _split(params, arrays)
    gen.weights, gen.biases = views[:len(gen.weights)], views[len(gen.weights):]
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    batch_real = min(config.batch_real, len(data))
    log = TrainLog()
    step = 0
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        active = config.schedule.active(epoch)
        if not active:
            log.rows.append(TrainLogRow(epoch, 0, 0.0, 0.0,
                                        time.perf_counter() - started))
            continue
        picks = rng.permutation(len(data))[:batch_real]
        real_batch = PointSet(data.coords[picks])
        for _ in range(2):  # one retry with a fresh reference batch
            z = rng.normals(config.batch_gen * gen.z_dim).reshape(
                config.batch_gen, gen.z_dim)
            out, acts = _forward(gen, z)
            try:
                loss, grad_out = multiscale_loss(real_batch, PointSet(out), active)
                break
            except CoincidentPoints as exc:
                error_text = f"{type(exc).__name__}: {exc}"
        else:
            log.rows.append(TrainLogRow(epoch, len(active), float("nan"), float("nan"),
                                        time.perf_counter() - started, error=error_text))
            continue
        g_w, g_b = _backward(gen, acts, grad_out)
        g = np.concatenate([a.ravel() for a in g_w + g_b])
        step += 1
        corr1 = 1.0 - ADAM_BETA1**step
        corr2 = 1.0 - ADAM_BETA2**step
        adam_m *= ADAM_BETA1
        adam_m += (1.0 - ADAM_BETA1) * g
        adam_v *= ADAM_BETA2
        adam_v += (1.0 - ADAM_BETA2) * g * g
        params -= config.learning_rate * (adam_m / corr1) / (
            np.sqrt(adam_v / corr2) + ADAM_EPS)
        grad_norm = math.sqrt(sum(float((a * a).sum()) for a in g_w + g_b))
        log.rows.append(TrainLogRow(epoch, len(active), float(loss), grad_norm,
                                    time.perf_counter() - started))
    return gen, log


def sample(gen: Generator, rng: RngState, n: int) -> PointSet:
    """n generated points from fresh reference draws."""
    _require_int(n, "n", 1)
    z = rng.normals(n * gen.z_dim).reshape(n, gen.z_dim)
    return PointSet(_forward(gen, z)[0])


def save_checkpoint(gen: Generator, path) -> None:
    """Versioned JSON checkpoint: layer dims plus row-major parameters."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "layer_dims": list(gen.layer_dims),
        "layers": [
            {"weights": [float(x) for x in w.ravel()],
             "biases": [float(x) for x in b]}
            for w, b in zip(gen.weights, gen.biases)
        ],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path) -> Generator:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("checkpoint must hold a JSON object")
    version = payload.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:  # not True, not 1.0
        raise ValueError(f"unsupported checkpoint version {version!r}")
    dims, layers = payload.get("layer_dims"), payload.get("layers")
    if not _is_list_of(dims, int) or not isinstance(layers, list):
        raise ValueError("checkpoint needs an integer list 'layer_dims' and a list 'layers'")
    dims = tuple(dims)
    if len(layers) != len(dims) - 1:
        raise ValueError("checkpoint layer count does not match layer_dims")
    weights, biases = [], []
    for (fan_in, fan_out), layer in zip(zip(dims, dims[1:]), layers):
        if not (isinstance(layer, dict) and _is_list_of(layer.get("weights"), (int, float))
                and _is_list_of(layer.get("biases"), (int, float))):
            raise ValueError("each checkpoint layer needs number lists 'weights' and 'biases'")
        w = np.asarray(layer["weights"], dtype=np.float64)
        b = np.asarray(layer["biases"], dtype=np.float64)
        if w.size != fan_in * fan_out or b.size != fan_out:
            raise ValueError("checkpoint parameter sizes do not match layer_dims")
        weights.append(w.reshape(fan_in, fan_out))
        biases.append(b)
    _check_generator(dims, weights + biases)
    return Generator(dims, weights, biases)
