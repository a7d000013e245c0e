"""Magnitude distance between point sets, the scale schedule, and checkers.

The distance at scale t is 2*Mag(X u Y) - Mag(X) - Mag(Y); the normalized
variant divides by Mag(X u Y). mag_distance and the training gradient share
one core: one squared-distance matrix and one zeta for the union, in a
canonical row order so that swapping the arguments returns bit-identical
numbers, with Mag(X) and Mag(Y) solved on principal blocks of that zeta. Only
zeta and the solves depend on t: consecutive calls on the same two PointSets
share the squared-distance matrix, the only n x n array stored (mmd_squared
reads it too), and the gradient's separation check and inverse distances.
Each scale builds zeta in one buffer from the matrix's square root, which is
bitwise cdist.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import (PointSet, _block, _identity_memo, _require_same_dim, _sq_distances,
                   _unique_rows, symmetric_difference_count, union_sets)
from .core import dedupe  # noqa: F401 - bound for bench/tracer.py, unused here
from .magnitude import (DEFAULT_EPS_SEP, DEFAULT_SUPPORT_TOL, CholeskyFailure,
                        CoincidentPoints, _gradient_rows, _inverse_distances,
                        _require_scale, _solve_ones, magnitude)


def __getattr__(name):
    # bench/tracer.py patches magmetric.distance.cdist, which nothing here
    # calls; import scipy.spatial only when it asks. Delete this once the
    # tracer's geometry boundary moves to _sq_distances (ROADMAP item 1).
    if name == "cdist":
        from scipy.spatial.distance import cdist
        return cdist
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class DistanceReport:
    t: float
    mag_union: float
    mag_x: float
    mag_y: float
    distance: float     # 2*mag_union - mag_x - mag_y
    normalized: float   # distance / mag_union (0 when the union is empty)
    nonneg_weightings: tuple[bool, bool, bool]  # (x, y, union)
    bound_2card: float  # 2 * |X u Y|


@dataclass(frozen=True)
class ScaleSchedule:
    """Ordered (t_i, e_i) pairs: at epoch e_i the scale t_i joins the loss.

    Epochs must be positive and strictly increasing; a scale may not repeat.
    Nondecreasing scales are intended (coarse to fine); violations are legal
    and warned about by the consumers, since the loss is defined either way.
    """

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self):
        cleaned = tuple((float(t), int(e)) for t, e in self.entries)
        if any(e != c for (_, e), (_, c) in zip(self.entries, cleaned)):
            raise ValueError("schedule epochs must be whole numbers")
        if not cleaned:
            raise ValueError("schedule needs at least one entry")
        prev_epoch = 0
        for i, (t, e) in enumerate(cleaned):
            _require_scale(t, "schedule scales")
            if e <= prev_epoch:
                raise ValueError("schedule epochs must be strictly increasing and >= 1")
            if any(t == s for s, _ in cleaned[:i]):
                raise ValueError(f"schedule scales must not repeat a value, got {t!r} twice")
            prev_epoch = e
        object.__setattr__(self, "entries", cleaned)

    @property
    def scales_nondecreasing(self) -> bool:
        ts = [t for t, _ in self.entries]
        return all(a <= b for a, b in zip(ts, ts[1:]))

    @property
    def last_epoch(self) -> int:
        return self.entries[-1][1]

    def active(self, epoch: int) -> list[float]:
        """Scales whose activation epoch has been reached."""
        return [t for t, e in self.entries if e <= epoch]

    @classmethod
    def parse(cls, text: str) -> "ScaleSchedule":
        """Parse the CLI grammar 't1@e1,t2@e2,...', e.g. '0.5@1,1.5@100'."""
        entries = []
        for part in text.split(","):
            part = part.strip()
            fields = part.split("@")
            if len(fields) != 2:
                raise ValueError(f"schedule entry {part!r} is not of the form t@epoch")
            try:
                entries.append((float(fields[0]), int(fields[1])))
            except ValueError:
                raise ValueError(f"schedule entry {part!r} is not of the form t@epoch") from None
        return cls(tuple(entries))


class BoundCheck(NamedTuple):
    holds: bool
    applicable: bool


class LimitProbe(NamedTuple):
    distance_small: float
    distance_large: float
    sym_diff: int


class CrossPolytopeResult(NamedTuple):
    x: PointSet
    z: PointSet
    gap: float    # Mag(X u Z) - Mag(X)
    slack: float  # triangle slack for (X, empty, Z); negative = violation
    dense_gap: Optional[float] = None


@_identity_memo
def _union_geometry(X: PointSet, Y: PointSet):
    """(union, sq, x_rows, y_rows, x_block, y_block): the exact union X u Y in
    canonical order (only the point set decides it, so a swap changes
    nothing), its squared distance matrix, each point's union row, and the
    union rows of X's and Y's blocks: their distinct rows in first-occurrence
    order, gathered with _block. sq is the only n x n array held:
    np.sqrt(sq) is bitwise cdist(union, union), so the plain distances are
    derived where they are read. Read-only, and computed once for
    consecutive calls on a pair."""
    _require_same_dim(X, Y)
    union, _, inverse = _unique_rows(np.concatenate([X.coords, Y.coords]))
    x_rows, y_rows = inverse[:len(X)], inverse[len(X):]
    return (union, _sq_distances(union), x_rows, y_rows, _first_rows(x_rows),
            _first_rows(y_rows))


def _first_rows(rows: np.ndarray) -> np.ndarray:
    # distinct rows in first-occurrence order: the order magnitude() solves in
    _, first = np.unique(rows, return_index=True)
    return rows[np.sort(first)]


def _weights(zeta: np.ndarray, label: str) -> tuple[np.ndarray, float]:
    """(weighting, its sum) on a similarity matrix, a failed solve named by `label`."""
    try:
        w, _, _, total = _solve_ones(zeta)
    except CholeskyFailure as exc:
        raise CholeskyFailure(f"{label} solve failed: {exc}", pivot=exc.pivot,
                              condition_hint=exc.condition_hint) from None
    return w, total


def _union_weights(sq, x_block, y_block, t):
    """zeta of X u Y and the (weighting, sum) of X u Y, X and Y on its blocks;
    X and Y in first-occurrence order, so their sums are bitwise magnitude(., t).
    zeta is built in one buffer, bitwise np.exp(-t * np.sqrt(sq))."""
    zeta = np.sqrt(sq)
    zeta *= -t
    np.exp(zeta, out=zeta)
    return (zeta, _weights(zeta, "union"), _weights(_block(zeta, x_block, x_block), "x"),
            _weights(_block(zeta, y_block, y_block), "y"))


def _combine(mag_u: float, mag_x: float, mag_y: float) -> tuple[float, float]:
    # (distance, normalized); mag_x + mag_y keeps the swap bit-identical
    distance = 2.0 * mag_u - (mag_x + mag_y)
    return distance, (distance / mag_u if mag_u else 0.0)


def mag_distance(X: PointSet, Y: PointSet, t: float) -> DistanceReport:
    """Magnitude distance with full diagnostics.

    Exact symmetry: the union is solved in canonical row order and the
    component magnitudes enter as mag_x + mag_y, so the result is
    bit-identical under argument swap.
    """
    _require_scale(t)
    union, sq, _, _, x_block, y_block = _union_geometry(X, Y)
    _, (w_u, mag_u), (w_x, mag_x), (w_y, mag_y) = _union_weights(
        sq, x_block, y_block, t)
    distance, normalized = _combine(mag_u, mag_x, mag_y)
    nonneg = tuple(bool(w.size == 0 or w.min() >= -DEFAULT_SUPPORT_TOL)
                   for w in (w_x, w_y, w_u))
    return DistanceReport(
        t=float(t), mag_union=mag_u, mag_x=mag_x, mag_y=mag_y,
        distance=distance, normalized=normalized, nonneg_weightings=nonneg,
        bound_2card=2.0 * len(union))


def _separation_check(dists: np.ndarray, x_rows: np.ndarray, y_rows: np.ndarray) -> None:
    # every generated point must clear DEFAULT_EPS_SEP against every other
    # point of the stack [X'; Y], X' being X's distinct points in
    # first-occurrence order; pairs index that stack
    stack = np.concatenate([_first_rows(x_rows), y_rows])
    n_x = len(stack) - len(y_rows)
    sub = _block(dists, y_rows, stack)
    k = np.arange(len(y_rows))
    sub[k, n_x + k] = np.inf  # a point's distance to itself
    bad = sub < DEFAULT_EPS_SEP
    if bad.any():
        a, j = (int(v) for v in np.argwhere(bad)[0])
        d = float(sub[a, j])
        if j >= n_x:
            msg = f"generated points {a} and {j - n_x} are {d:.3e} apart"
        else:
            msg = f"generated point {a} is {d:.3e} from data point {j}"
        raise CoincidentPoints(n_x + a, j, d, message=msg + ", below the separation floor")


@_identity_memo
def _gradient_geometry(X: PointSet, Y: PointSet):
    """(inv_u, inv_y): 1 / d from each point of Y to X u Y and to Y, 0 in its
    own column. A pair that fails the separation check stores nothing; one
    that passes has a duplicate-free Y, so y_block is y_rows.
    The plain distances live only while this runs."""
    _, sq, x_rows, y_rows, _, y_block = _union_geometry(X, Y)
    dists = np.sqrt(sq)
    _separation_check(dists, x_rows, y_rows)
    return (_inverse_distances(dists, y_rows),
            _inverse_distances(_block(dists, y_block, y_block), np.arange(len(Y))))


def _value_and_gradient(X: PointSet, Y: PointSet, t: float, normalized: bool):
    """(distance, d distance / d Y) from the same solves as mag_distance.

    X is fixed data; the gradient is taken in Y's coordinates, one row per
    point of Y (Y must be duplicate-free and separated from X). The value
    is bitwise mag_distance(X, Y, t).distance, or .normalized.
    """
    _require_scale(t)
    union, sq, _, y_rows, x_block, y_block = _union_geometry(X, Y)
    inv_u, inv_y = _gradient_geometry(X, Y)
    zeta, (w_u, mag_u), (_, mag_x), (w_y, mag_y) = _union_weights(
        sq, x_block, y_block, t)
    dist, value = _combine(mag_u, mag_x, mag_y)
    grad_u = _gradient_rows(union, zeta, inv_u, w_u, t, y_rows)
    # Y is duplicate-free, so w_y is ordered like y_rows and Y's own rows
    grad_y = _gradient_rows(Y.coords, _block(zeta, y_block, y_block), inv_y, w_y, t,
                            np.arange(len(Y)))
    grad = 2.0 * grad_u - grad_y
    if not normalized:
        return dist, grad
    # quotient rule: d~ = d / mag_u, d(d~)/dy = (grad * mag_u - d * grad_u) / mag_u^2
    return value, (grad * mag_u - dist * grad_u) / mag_u**2


def mag_distance_gradient(X: PointSet, Y: PointSet, t: float,
                          normalized: bool = False) -> np.ndarray:
    """Gradient of the (optionally normalized) distance in Y's coordinates.

    |Y| x D, row per point of Y. X is treated as fixed data. Any pair
    (y, y') or (y, x) closer than DEFAULT_EPS_SEP raises CoincidentPoints
    naming the offenders.
    """
    return _value_and_gradient(X, Y, t, normalized)[1]


def check_triangle(X: PointSet, Y: PointSet, Z: PointSet, t: float) -> float:
    """Signed triangle slack d(X,Y) + d(Y,Z) - d(X,Z); negative = violation."""
    d_xy = mag_distance(X, Y, t).distance
    d_yz = mag_distance(Y, Z, t).distance
    d_xz = mag_distance(X, Z, t).distance
    return (d_xy + d_yz) - d_xz


def cross_polytope_counterexample(dim: int, t: float,
                                  full_verify: bool = False) -> CrossPolytopeResult:
    """Unit cross-polytope X = {+-e_i} against the origin Z = {0}.

    gap = Mag(X u Z) - Mag(X) and slack is the triangle slack of (X, empty, Z):
    slack = 2 * (1 - gap), so any gap above 1 is a triangle violation. The
    point sets have only two symmetry orbits (vertices, center), which
    collapses both solves to closed forms; dim=500 is immediate. With
    full_verify the dense solver reruns both magnitudes as a cross-check.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    _require_scale(t)
    m = 2 * dim
    a = math.exp(-2.0 * t)             # antipodal vertices, distance 2
    b = math.exp(-math.sqrt(2.0) * t)  # non-antipodal vertices, distance sqrt(2)
    c = math.exp(-t)                   # vertex to origin
    # vertex row sum of zeta(X); dim=1 has no sqrt(2) pairs, (m-2)=0 handles it
    s = 1.0 + a + (m - 2) * b
    mag_x = m / s
    # 1 - c and s - m*c^2 = (1 - c^2) + (m-2)*(b - c^2) in forms that do not
    # cancel to 0 at small t; b - c^2 = b * (1 - exp(-(2 - sqrt 2) t)) stays
    # finite at large t, where c^2 underflows
    w_vertex = -math.expm1(-t) / (
        -math.expm1(-2.0 * t) - (m - 2) * b * math.expm1((math.sqrt(2.0) - 2.0) * t))
    w_origin = 1.0 - m * c * w_vertex
    mag_u = m * w_vertex + w_origin
    gap = mag_u - mag_x
    slack = 2.0 * (1.0 - gap)
    x = PointSet(np.vstack([np.eye(dim), -np.eye(dim)]))
    z = PointSet(np.zeros((1, dim)))
    dense_gap = None
    if full_verify:
        dense_u = magnitude(union_sets(x, z), t).magnitude
        dense_x = magnitude(x, t).magnitude
        dense_gap = dense_u - dense_x
    return CrossPolytopeResult(x, z, gap, slack, dense_gap)


def bound_check(rep: DistanceReport) -> BoundCheck:
    """Check 0 <= distance <= 2|X u Y| on a mag_distance report (guaranteed
    when all weightings are nonnegative; `applicable` reports whether that
    hypothesis held)."""
    applicable = all(rep.nonneg_weightings)
    holds = bool(-1e-9 <= rep.distance <= rep.bound_2card + 1e-9)
    return BoundCheck(holds, applicable)


def limit_probe(X: PointSet, Y: PointSet, t_small: float, t_large: float) -> LimitProbe:
    """Distance at both scale extremes plus |X delta Y| (its large-t limit)."""
    return LimitProbe(mag_distance(X, Y, t_small).distance,
                      mag_distance(X, Y, t_large).distance,
                      symmetric_difference_count(X, Y))
