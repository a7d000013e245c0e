"""Reference two-sample distances: kernel MMD and (sliced) Wasserstein."""
from __future__ import annotations

import numpy as np

from .core import PointSet, RngState, _block, _require_same_dim
from .distance import _union_geometry
from .magnitude import _require_scale


def _gaussian_gram(d: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-d^2 / (2 * sigma^2)), squaring the block of distances d in place."""
    d *= d
    return np.exp(-d / (2.0 * sigma**2))


def mmd_squared(X: PointSet, Y: PointSet, sigma: float) -> float:
    """Biased squared-MMD V-statistic under the Gaussian kernel of bandwidth sigma.

    mean(Kxx) + mean(Kyy) - 2*mean(Kxy) with the diagonal terms included,
    which is what makes Y = X give exactly 0. The blocks are gathered from
    the pair's stored distances, bitwise cdist(., .), and squared, so each
    mean is bitwise that of np.exp(-cdist(., .)**2 / (2 * sigma^2)).
    """
    _require_scale(sigma, "bandwidth sigma")
    _require_same_dim(X, Y)
    if len(X) == 0 or len(Y) == 0:
        raise ValueError("mmd_squared needs nonempty sets")
    _, dists, x_rows, y_rows, *_ = _union_geometry(X, Y)
    k_xx = _gaussian_gram(_block(dists, x_rows, x_rows), sigma).mean()
    k_yy = _gaussian_gram(_block(dists, y_rows, y_rows), sigma).mean()
    k_xy = _gaussian_gram(_block(dists, x_rows, y_rows), sigma).mean()
    return float(k_xx + k_yy - 2.0 * k_xy)


def _w1_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W1 between row k of a and row k of b, for every row k at once: the
    integral of |F_a - F_b| over each row's merged sorted values, both CDFs
    read off cumulative counts. A tie is a zero-width step that adds exactly
    0, and np.vecdot is scipy's reduction, so each row is bitwise
    scipy.stats.wasserstein_distance."""
    merged = np.concatenate([a, b], axis=1)
    order = np.argsort(merged, axis=1)
    deltas = np.diff(np.take_along_axis(merged, order, axis=1), axis=1)
    count_a = np.cumsum(order[:, :-1] < a.shape[1], axis=1)
    cdf_a = count_a / a.shape[1]
    cdf_b = (np.arange(1, merged.shape[1]) - count_a) / b.shape[1]
    return np.vecdot(np.abs(cdf_a - cdf_b), deltas)


def wasserstein_1d(xs, ys) -> float:
    """W1 between empirical measures on the line."""
    xs = np.asarray(xs, dtype=np.float64).ravel()
    ys = np.asarray(ys, dtype=np.float64).ravel()
    if xs.size == 0 or ys.size == 0:
        raise ValueError("wasserstein_1d needs nonempty samples")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("wasserstein_1d needs finite samples")
    return float(_w1_rows(xs[None, :], ys[None, :])[0])


def sliced_wasserstein(X: PointSet, Y: PointSet, n_proj: int = 128, *,
                       rng: RngState) -> float:
    """Mean W1 over n_proj random unit directions (normalized gaussians).

    Deterministic given rng: directions consume n_proj * dim normal draws.
    """
    _require_same_dim(X, Y)
    if isinstance(n_proj, bool) or not isinstance(n_proj, (int, np.integer)) or n_proj < 1:
        raise ValueError(f"n_proj must be an integer >= 1, got {n_proj!r}")
    if len(X) == 0 or len(Y) == 0:
        raise ValueError("sliced_wasserstein needs nonempty sets")
    dirs = rng.normals(n_proj * X.dim).reshape(n_proj, X.dim)
    norms = np.linalg.norm(dirs, axis=1)
    while (norms == 0.0).any():  # pragma: no cover - probability ~ 0
        bad = norms == 0.0
        dirs[bad] = rng.normals(int(bad.sum()) * X.dim).reshape(-1, X.dim)
        norms = np.linalg.norm(dirs, axis=1)
    dirs /= norms[:, None]
    proj_x = X.coords @ dirs.T
    proj_y = Y.coords @ dirs.T
    return float(np.mean(_w1_rows(proj_x.T, proj_y.T)))
