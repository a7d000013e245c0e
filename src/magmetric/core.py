"""Point sets, exact deduplication, and deterministic sampling.

Everything downstream (magnitude solves, distances, studies) builds on the
immutable PointSet and the splitmix64-based RngState defined here. The RNG is
hand-rolled on purpose: the integer stream is defined exactly, so any other
implementation (in any language) can reproduce every sample bit for bit.
"""
from __future__ import annotations

import functools
import math
import operator
import threading

import numpy as np

from ._blas import extension

# the kernels behind pdist(., "sqeuclidean") and squareform, without scipy.spatial
_distance_pybind = extension("scipy.spatial", "_distance_pybind")
_distance_wrap = extension("scipy.spatial", "_distance_wrap")

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


class DimensionMismatch(ValueError):
    """Point sets with different ambient dimensions were combined."""


class PointCsvError(ValueError):
    """Malformed point CSV. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def mix64(z: int) -> int:
    """splitmix64 output finalizer; also used to derive per-trial streams."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _require_int(value, name: str, low: int | None = None) -> None:
    """Raise ValueError naming `name` unless value is a Python or numpy
    integer (a bool is not one) at least `low`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")


class RngState:
    """Deterministic pseudo-random stream (splitmix64 + Box-Muller).

    The raw stream is splitmix64: state advances by the golden-gamma
    increment and each output word is mix64 of the new state. Derived
    layers on top of the words:

    * uniforms: ((word >> 11) + 1) * 2**-53, in (0, 1] (log-safe),
    * normals: Box-Muller consumed in (cos, sin) pairs, no caching
      across calls (count n burns exactly 2*ceil(n/2) words),
    * integer draws: word % bound (Fisher-Yates in `permutation`).

    The word stream is bit-exact across platforms; float layers are exact
    up to the platform libm (log/cos/sin), which in practice agrees on
    every mainstream x86-64/arm64 toolchain.
    """

    __slots__ = ("_seed", "_state")

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._state = self._seed

    @property
    def seed(self) -> int:
        return self._seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def _bulk_u64(self, count: int) -> np.ndarray:
        # state progression is affine, so a block of outputs vectorizes
        # exactly: word_k = mix64(state + k*gamma)
        ks = np.arange(1, count + 1, dtype=np.uint64)
        z = np.uint64(self._state) + ks * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
        z = z ^ (z >> np.uint64(31))
        self._state = (self._state + int(count) * _GAMMA) & _MASK64
        return z

    def uniforms(self, count: int) -> np.ndarray:
        """`count` floats in (0, 1]."""
        _require_int(count, "count", 0)
        z = self._bulk_u64(count)
        return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def normals(self, count: int) -> np.ndarray:
        """`count` standard normals via Box-Muller."""
        _require_int(count, "count", 0)
        if count == 0:
            return np.zeros(0)
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs)
        radius = np.sqrt(-2.0 * np.log(u[0::2]))
        angle = (2.0 * math.pi) * u[1::2]
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:count]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of arange(n); one word per swap."""
        _require_int(n, "count", 0)
        idx = list(range(n))
        bounds = np.arange(n, 1, -1, dtype=np.uint64)  # swap i draws word % (i + 1)
        js = (self._bulk_u64(len(bounds)) % bounds).tolist()
        for i, j in zip(range(n - 1, 0, -1), js):
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.intp)

    def derive(self, index: int) -> "RngState":
        """Independent stream for trial `index` (seed XOR index, re-mixed).

        Derivation is from the construction seed, not the current state, so
        derived streams do not depend on how much of this one was consumed.
        """
        return RngState(mix64(self._seed ^ (index & _MASK64)))

    def __repr__(self):
        return f"RngState(seed={self._seed:#x})"


class PointSet:
    """Ordered, immutable collection of points in R^D.

    Duplicates are legal inputs (they are collapsed where the math requires
    it). Coordinates must be finite. Construct empties via PointSet.empty.
    A set also carries a private table, {t: (magnitude, weighting
    nonnegative)}, that the distance layer fills with the set's own solves:
    one float and one flag per scale, kept as long as the set. Both depend
    only on the coordinates and t, so the table never changes the set's value.
    """

    __slots__ = ("_coords", "_magnitudes")

    def __init__(self, coords):
        arr = np.array(coords, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise ValueError(f"expected an (n, dim) array of points, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise ValueError("points need at least one coordinate")
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("point coordinates must be finite")
        arr.setflags(write=False)
        self._coords = arr
        self._magnitudes = {}

    @classmethod
    def empty(cls, dim: int) -> "PointSet":
        return cls(np.empty((0, dim)))

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def dim(self) -> int:
        return self._coords.shape[1]

    def __len__(self) -> int:
        return self._coords.shape[0]

    def __repr__(self):
        return f"PointSet(n={len(self)}, dim={self.dim})"


def _unique_rows(coords: np.ndarray):
    """Exact row grouping (-0.0 == 0.0) by one np.unique over a byte view.

    Returns (canonical, first, inverse): the distinct rows, +0.0-normalized,
    in byte order of their keys (which depends only on the set of rows);
    first[g], the index of group g's first occurrence; and inverse[i], the
    group of row i.
    """
    c = np.ascontiguousarray(coords + 0.0)
    keys = c.view(np.dtype((np.void, c.dtype.itemsize * c.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return c[first], first, inverse.ravel()


def _identity_memo(fn):
    """Reuse fn(*sets)'s result while it is called on the same PointSets.

    Each thread keeps its last (sets, result). A PointSet is immutable, so a
    call on the same objects (by identity) gets the stored result. The slot
    holds strong references, so no id can be reused while it is stored, and
    it is emptied before a new result is computed, so at most one result per
    thread is alive. Its arrays are made read-only; other items are already
    immutable, except a dict, which is a per-scale table that callers fill
    with values derived from the same sets. It lives and goes with the
    result, and no value in it depends on when it was filled.
    """
    local = threading.local()

    @functools.wraps(fn)
    def memo(*sets):
        last = getattr(local, "last", None)
        if last is not None and all(map(operator.is_, last[0], sets)):
            return last[1]
        local.last = None
        result = fn(*sets)
        for item in result:
            if isinstance(item, np.ndarray):
                item.setflags(write=False)
        local.last = (sets, result)
        return result
    return memo


def _is_list_of(value, kind) -> bool:
    """True iff `value` is a list or tuple of `kind` items, bools excluded."""
    return isinstance(value, (list, tuple)) and all(
        isinstance(v, kind) and not isinstance(v, bool) for v in value)


def _require_same_dim(X: PointSet, Y: PointSet) -> None:
    if X.dim != Y.dim:
        raise DimensionMismatch(f"dim {X.dim} vs dim {Y.dim}")


def _block(a: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """a[np.ix_(rows, cols)], bitwise and C-ordered, as two row-major takes."""
    return a.take(rows, 0).take(cols, 1)


def _sq_distances(coords: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance matrix of the rows; bitwise
    cdist(coords, coords, "sqeuclidean") at half its pair evaluations, and
    its square root is bitwise cdist(coords, coords). These are the calls
    squareform(pdist(coords, "sqeuclidean")) makes after its checks."""
    out = np.zeros((len(coords), len(coords)))
    _distance_wrap.to_squareform_from_vector_wrap(
        out, _distance_pybind.pdist_sqeuclidean(coords))
    return out


def pairwise_distances(X: PointSet) -> np.ndarray:
    """Euclidean distance matrix; symmetric with a zero diagonal."""
    if len(X) == 0:
        raise ValueError("pairwise_distances needs a nonempty set")
    sq = _sq_distances(X.coords)
    return np.sqrt(sq, out=sq)


def dedupe(X: PointSet):
    """Collapse exactly equal points (with -0.0 == 0.0).

    The first occurrence represents each group, in first-occurrence order.
    Returns (representatives, multiplicity); multiplicities sum to len(X),
    and X itself comes back when it has no duplicates.
    """
    if len(X) == 0:
        return X, np.zeros(0, dtype=np.intp)
    _, first, inverse = _unique_rows(X.coords)
    if len(first) == len(X):
        return X, np.ones(len(X), dtype=np.intp)
    order = np.argsort(first)
    counts = np.bincount(inverse)
    return PointSet(X.coords[first[order]]), counts[order]


def union_sets(X: PointSet, Y: PointSet) -> PointSet:
    """Set union: X's points first, then Y's novel points (exact dedupe)."""
    _require_same_dim(X, Y)
    merged = np.concatenate([X.coords, Y.coords], axis=0)
    return dedupe(PointSet(merged))[0]


def symmetric_difference_count(X: PointSet, Y: PointSet) -> int:
    """|X delta Y| under exact coordinate equality."""
    _require_same_dim(X, Y)
    xs, ys = _unique_rows(X.coords)[0], _unique_rows(Y.coords)[0]
    groups = _unique_rows(np.concatenate([xs, ys]))[2]
    return int((np.bincount(groups) == 1).sum())


def sample_gaussian(rng: RngState, n: int, dim: int, mean=0.0, std: float = 1.0) -> PointSet:
    """n i.i.d. draws from N(mean, std^2 I).

    mean is a scalar or a length-dim vector. Point i consumes normal draws
    i*dim .. (i+1)*dim-1 of the stream (row-major), so the layout is part
    of the reproducibility contract.
    """
    _require_int(n, "n", 1)
    _require_int(dim, "dim", 1)
    if std <= 0:
        raise ValueError("std must be positive")
    z = rng.normals(n * dim).reshape(n, dim)
    return PointSet(np.asarray(mean, dtype=np.float64) + std * z)


def read_point_csv(path, skip_header: bool = False) -> PointSet:
    """Load a point set: one point per line, comma-separated floats.

    Fully blank lines are skipped; anything else malformed raises
    PointCsvError naming the 1-based line. A leading UTF-8 BOM is skipped.
    """
    rows: list[list[float]] = []
    dim = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if lineno == 1 and skip_header:
                continue
            line = raw.strip()
            if not line:
                continue
            try:
                vals = [float(part) for part in line.split(",")]
            except ValueError:
                raise PointCsvError(lineno, f"unparseable coordinate in {line!r}") from None
            if not all(math.isfinite(v) for v in vals):
                raise PointCsvError(lineno, "non-finite coordinate")
            if dim is None:
                dim = len(vals)
            elif len(vals) != dim:
                raise PointCsvError(lineno, f"expected {dim} coordinates, got {len(vals)}")
            rows.append(vals)
    if not rows:
        raise PointCsvError(0, f"no points in {path}")
    return PointSet(np.asarray(rows))


def fmt17(x) -> str:
    """Canonical float rendering: 17 significant digits, round-trip exact."""
    return format(float(x), ".17g")


def write_point_csv(path, X: PointSet) -> None:
    """Write a point set in the same CSV dialect (LF, 17 significant digits)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in X.coords:
            fh.write(",".join(fmt17(v) for v in row))
            fh.write("\n")
