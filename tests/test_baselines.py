"""Baseline two-sample distances: MMD, 1D Wasserstein, sliced Wasserstein."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import wasserstein_distance

import magmetric
from magmetric.baselines import (_gaussian_gram, _w1_rows, mmd_squared,
                                 sliced_wasserstein, wasserstein_1d)
from magmetric.core import PointSet, RngState, sample_gaussian


def test_mmd_bandwidth_validation():
    x = PointSet([[0.0], [1.0]])
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="bandwidth sigma must be finite"):
            mmd_squared(x, x, bad)


def test_kernel_gram_values():
    # distances: 5 between (0, 0) and (3, 4), 0 from a point to itself
    gauss = _gaussian_gram(np.array([[5.0]]), 2.0)
    assert gauss[0, 0] == pytest.approx(math.exp(-25.0 / 8.0), rel=1e-15)
    assert _gaussian_gram(np.array([[0.0]]), 0.5)[0, 0] == 1.0


def test_mmd_zero_on_identical():
    x = sample_gaussian(RngState(2), 30, 3)
    assert mmd_squared(x, x, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_mmd_symmetric_and_positive():
    rng = RngState(6)
    x = sample_gaussian(rng.derive(0), 25, 2)
    y = sample_gaussian(rng.derive(1), 20, 2, mean=1.5)
    assert mmd_squared(x, y, 1.0) == pytest.approx(mmd_squared(y, x, 1.0), abs=1e-15)
    assert mmd_squared(x, y, 1.0) > 0


def test_mmd_singletons_closed_form():
    # V-statistic on single points: 2 - 2 k(x, y), k(x, y) = exp(-d^2 / (2 sigma^2))
    x = PointSet([[0.0]])
    y = PointSet([[2.0]])
    want = 2.0 - 2.0 * math.exp(-4.0 / (2.0 * 0.7**2))
    assert mmd_squared(x, y, 0.7) == pytest.approx(want, rel=1e-14)


def test_wasserstein_1d_known_values():
    a = np.array([0.0, 1.0])
    b = np.array([0.0, 1.0, 2.0])
    # quantile-function oracle on a fine grid
    grid = (np.arange(100_000) + 0.5) / 100_000
    qa = np.quantile(a, grid, method="inverted_cdf")
    qb = np.quantile(b, grid, method="inverted_cdf")
    oracle = np.abs(qa - qb).mean()
    got = wasserstein_1d(a, b)
    assert got == pytest.approx(oracle, abs=1e-4)
    assert wasserstein_1d(a, a) == 0.0
    # pure translation: W1 equals the shift
    assert wasserstein_1d(a, a + 3.0) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValueError):
        wasserstein_1d(np.array([]), a)
    for bad in (math.nan, math.inf, -math.inf):
        for xs, ys in ((np.append(a, bad), a), (a, np.append(a, bad))):
            with pytest.raises(ValueError, match="finite"):
                wasserstein_1d(xs, ys)


def test_sliced_wasserstein_1d_equals_w1():
    rng = RngState(4)
    x = sample_gaussian(rng.derive(0), 40, 1)
    y = sample_gaussian(rng.derive(1), 40, 1, mean=2.0)
    # in 1D every unit direction is +/-1, so slicing reproduces W1 exactly
    sw = sliced_wasserstein(x, y, n_proj=16, rng=RngState(9))
    w1 = wasserstein_1d(x.coords.ravel(), y.coords.ravel())
    assert sw == pytest.approx(w1, rel=1e-12)


def test_sliced_wasserstein_translation_scaling():
    rng = RngState(11)
    x = sample_gaussian(rng.derive(0), 60, 3)
    shift1 = PointSet(x.coords + np.array([1.0, 0.0, 0.0]))
    shift2 = PointSet(x.coords + np.array([2.0, 0.0, 0.0]))
    d1 = sliced_wasserstein(x, shift1, n_proj=512, rng=RngState(5))
    d2 = sliced_wasserstein(x, shift2, n_proj=512, rng=RngState(5))
    # doubling a pure translation doubles every projected distance
    assert d2 / d1 == pytest.approx(2.0, rel=0.1)


def test_sliced_wasserstein_deterministic_in_rng():
    rng = RngState(13)
    x = sample_gaussian(rng.derive(0), 30, 4)
    y = sample_gaussian(rng.derive(1), 30, 4, mean=1.0)
    a = sliced_wasserstein(x, y, n_proj=64, rng=RngState(21))
    b = sliced_wasserstein(x, y, n_proj=64, rng=RngState(21))
    assert a == b
    c = sliced_wasserstein(x, y, n_proj=64, rng=RngState(22))
    assert a != c


@pytest.mark.parametrize("n_proj", [2.5, 3.0, True, "8", None])
def test_sliced_wasserstein_refuses_non_integer_n_proj(n_proj):
    x = sample_gaussian(RngState(1), 6, 2)
    with pytest.raises(ValueError, match="n_proj must be an integer"):
        sliced_wasserstein(x, x, n_proj, rng=RngState(2))


def test_sliced_wasserstein_accepts_numpy_integer_n_proj():
    x = sample_gaussian(RngState(1), 6, 2)
    y = sample_gaussian(RngState(2), 7, 2, mean=1.0)
    assert sliced_wasserstein(x, y, np.int64(8), rng=RngState(3)) == \
        sliced_wasserstein(x, y, 8, rng=RngState(3))


def test_sliced_wasserstein_requires_keyword_rng():
    x = sample_gaussian(RngState(1), 5, 2)
    with pytest.raises(TypeError):
        sliced_wasserstein(x, x, 8, RngState(2))  # rng is keyword-only


def _reference_pairs():
    """(X, Y) pairs covering equal sizes, 200 vs 210, ties and 1 vs 1."""
    rng = RngState(77)
    yield (sample_gaussian(rng.derive(0), 100, 20),
           sample_gaussian(rng.derive(1), 100, 20, mean=0.5))
    yield (sample_gaussian(rng.derive(2), 200, 2),
           sample_gaussian(rng.derive(3), 210, 2, mean=1.0))
    grid = [np.round(sample_gaussian(rng.derive(k), n, 1).coords * 2.0) / 2.0
            for k, n in ((4, 60), (5, 45))]
    yield PointSet(grid[0]), PointSet(grid[1])
    yield PointSet([[0.25, -1.0]]), PointSet([[2.0, 3.5]])


@pytest.mark.parametrize("pair", list(_reference_pairs()))
def test_w1_kernel_is_bitwise_scipy(pair):
    x, y = pair
    for k in range(x.dim):
        a, b = x.coords[:, k], y.coords[:, k]
        assert wasserstein_1d(a, b) == wasserstein_distance(a, b)
    # every projection of sliced_wasserstein, drawn as it draws them
    n_proj = 32
    dirs = RngState(8).normals(n_proj * x.dim).reshape(n_proj, x.dim)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    proj_x, proj_y = x.coords @ dirs.T, y.coords @ dirs.T
    want = [wasserstein_distance(proj_x[:, k], proj_y[:, k]) for k in range(n_proj)]
    assert _w1_rows(proj_x.T, proj_y.T).tolist() == want
    assert sliced_wasserstein(x, y, n_proj, rng=RngState(8)) == float(np.mean(want))


# Run in a fresh interpreter: import the CLI, list which heavy scipy packages
# it loaded, then import scipy's public modules after it and compare kernels.
_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import magmetric.cli
loaded = [m for m in ("scipy.linalg", "scipy.spatial", "scipy.sparse", "scipy.stats")
          if m in sys.modules]
import numpy as np
from scipy.linalg import lapack
from scipy.spatial.distance import pdist, squareform
core, magnitude = sys.modules["magmetric.core"], sys.modules["magmetric.magnitude"]
coords = np.sqrt(np.arange(21.0)).reshape(7, 3)
sq = squareform(pdist(coords, "sqeuclidean"))
zeta = np.exp(-np.sqrt(sq))
factor, info = lapack.dpotrf(zeta, lower=1)
w, _ = lapack.dpotrs(factor, np.ones((7, 1)), lower=1)
ours, ours_info = magnitude.dpotrf(zeta, lower=1)
ours_w, _ = magnitude.dpotrs(ours, np.ones((7, 1)), lower=1)
print(json.dumps({
    "loaded": loaded,
    "public_work": bool(info == 0 and np.allclose(zeta @ w, 1.0)
                        and np.allclose(sq, ((coords[:, None] - coords) ** 2).sum(-1))),
    "sq": core._sq_distances(coords).tobytes() == sq.tobytes(),
    "factor": ours_info == 0 and ours.tobytes() == factor.tobytes(),
    "solve": ours_w.tobytes() == w.tobytes(),
}))
"""


def test_import_does_not_load_scipy_stats():
    # nor scipy.linalg, scipy.spatial or scipy.sparse: the three compiled
    # modules magmetric calls are loaded from their files, and they agree
    # bitwise with the public modules imported after them
    src = os.path.dirname(os.path.dirname(magmetric.__file__))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, src], capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == {"loaded": [], "public_work": True, "sq": True,
                               "factor": True, "solve": True}
