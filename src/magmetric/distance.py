"""Magnitude distance between point sets, the scale schedule, and checkers.

The distance at scale t is 2*Mag(X u Y) - Mag(X) - Mag(Y); the normalized
variant divides by Mag(X u Y). mag_distance, the training gradient and
mmd_squared read one pair geometry: the union's distance matrix, bitwise
cdist, in a canonical row order so that a swap of the arguments returns
bit-identical numbers. It is the pair's only n x n array, rooted once when
it is built. Only zeta and the solves depend on t: zeta is built from that
matrix by the magnitude layer's one builder, and Mag(X) and Mag(Y) are
solved on principal blocks of it. mag_distance solves each magnitude once
per scale: Mag(X) and Mag(Y) are kept on the sets and Mag(X u Y) with the
pair's geometry, so a set in several pairs, or a scale asked twice, reuses
its solve. The gradient keeps its separation check and inverse distances
per pair; it solves all three magnitudes at every call and stores none,
since training draws new sets at every step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import (PointSet, _block, _identity_memo, _require_same_dim, _sq_distances,
                   _unique_rows, symmetric_difference_count, union_sets)
from .core import dedupe  # noqa: F401 - bound for bench/tracer.py, unused here
from .magnitude import (DEFAULT_EPS_SEP, CholeskyFailure, CoincidentPoints,
                        _gradient_rows, _inverse_distances, _nonnegative,
                        _require_scale, _similarity, _solve_ones, magnitude)


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
    gap: float    # Mag(X u Z) - Mag(X)
    slack: float  # triangle slack for (X, empty, Z); negative = violation
    dense_gap: Optional[float] = None


@_identity_memo
def _union_geometry(X: PointSet, Y: PointSet):
    """(union, dists, x_rows, y_rows, x_block, y_block, solved): the exact
    union X u Y in canonical order (only the point set decides it, so a swap
    changes nothing), its distance matrix, bitwise cdist(union, union) and
    the only n x n array held, each point's union row, the union rows of X's
    and Y's blocks: their distinct rows in first-occurrence order, gathered
    with _block, and the pair's table {t: (Mag(X u Y), weighting
    nonnegative)} that _pair_magnitudes fills. The arrays are read-only, and
    all of it is computed once for consecutive calls on a pair."""
    _require_same_dim(X, Y)
    union, _, inverse = _unique_rows(np.concatenate([X.coords, Y.coords]))
    x_rows, y_rows = inverse[:len(X)], inverse[len(X):]
    sq = _sq_distances(union)
    return (union, np.sqrt(sq, out=sq), x_rows, y_rows, _first_rows(x_rows),
            _first_rows(y_rows), {})


def _first_rows(rows: np.ndarray) -> np.ndarray:
    # distinct rows in first-occurrence order: the order magnitude() solves in
    _, first = np.unique(rows, return_index=True)
    return rows[np.sort(first)]


def _solve(part: str, matrix: np.ndarray):
    """_solve_ones(matrix), with a failure's message naming `part` of the pair."""
    try:
        return _solve_ones(matrix)
    except CholeskyFailure as exc:
        raise CholeskyFailure(f"{part} solve failed: {exc}", pivot=exc.pivot,
                              condition_hint=exc.condition_hint) from None


def _pair_magnitudes(geometry, X: PointSet, Y: PointSet, t: float):
    """[(Mag, weighting nonnegative) of X u Y, X, Y] at scale t.

    Each pair is read from the table that lives as long as what it depends
    on: the pair's geometry for X u Y, the set itself for X and Y. A missing
    one is solved and stored: X u Y on zeta, X and Y on its blocks in
    first-occurrence order, so their sums are bitwise magnitude(., t)
    whatever the partner. zeta is built only when a solve is needed, and a
    failed solve raises and stores nothing.
    """
    _, dists, _, _, x_block, y_block, solved = geometry
    t = float(t)
    zeta, values = None, []
    for part, table, block in (("union", solved, None), ("x", X._magnitudes, x_block),
                               ("y", Y._magnitudes, y_block)):
        if t not in table:
            if zeta is None:
                zeta = _similarity(dists, t)
            w, _, _, total = _solve(part, zeta if block is None else _block(zeta, block, block))
            table[t] = (total, _nonnegative(w))
        values.append(table[t])
    return values


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
    geometry = _union_geometry(X, Y)
    (mag_u, nonneg_u), (mag_x, nonneg_x), (mag_y, nonneg_y) = _pair_magnitudes(geometry, X, Y, t)
    distance, normalized = _combine(mag_u, mag_x, mag_y)
    return DistanceReport(
        t=float(t), mag_union=mag_u, mag_x=mag_x, mag_y=mag_y,
        distance=distance, normalized=normalized,
        nonneg_weightings=(nonneg_x, nonneg_y, nonneg_u),
        bound_2card=2.0 * len(geometry[0]))


def _separation_check(dists: np.ndarray, x_block: np.ndarray, y_rows: np.ndarray) -> None:
    # every generated point must clear DEFAULT_EPS_SEP against every other
    # point of the stack [X'; Y], X' being X's distinct points in
    # first-occurrence order (x_block); pairs index that stack
    stack = np.concatenate([x_block, y_rows])
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
    """(inv_u, inv_y): 1 / d from each point of Y to X u Y and to Y, 0 in
    its own column, read off the pair's stored distances after the
    separation check. A pair that fails the check stores nothing; one that
    passes has a duplicate-free Y, so y_block is y_rows and inv_y is inv_u's
    columns y_rows."""
    _, dists, _, y_rows, x_block, _, _ = _union_geometry(X, Y)
    _separation_check(dists, x_block, y_rows)
    inv_u = _inverse_distances(dists, y_rows)
    return inv_u, inv_u.take(y_rows, 1)


def _value_and_gradient(X: PointSet, Y: PointSet, t: float, normalized: bool):
    """(distance, d distance / d Y) from the same solves as mag_distance.

    X is fixed data; the gradient is taken in Y's coordinates, one row per
    point of Y (Y must be duplicate-free and separated from X). The value
    is bitwise mag_distance(X, Y, t).distance, or .normalized.
    """
    _require_scale(t)
    union, dists, _, y_rows, x_block, y_block, _ = _union_geometry(X, Y)
    inv_u, inv_y = _gradient_geometry(X, Y)
    # training draws new sets at every step, so it solves all three and
    # stores none; Y's block feeds both its solve and its gradient rows
    zeta = _similarity(dists, float(t))
    w_u, _, _, mag_u = _solve("union", zeta)
    mag_x = _solve("x", _block(zeta, x_block, x_block))[3]
    zeta_y = _block(zeta, y_block, y_block)
    w_y, _, _, mag_y = _solve("y", zeta_y)
    dist, value = _combine(mag_u, mag_x, mag_y)
    grad_u = _gradient_rows(union, zeta, inv_u, w_u, t, y_rows)
    # Y is duplicate-free, so w_y is ordered like y_rows and Y's own rows
    grad_y = _gradient_rows(Y.coords, zeta_y, inv_y, w_y, t, np.arange(len(Y)))
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
    dense_gap = None
    if full_verify:  # only the cross-check builds the 2*dim x dim point set
        x = PointSet(np.vstack([np.eye(dim), -np.eye(dim)]))
        dense_u = magnitude(union_sets(x, PointSet(np.zeros((1, dim)))), t).magnitude
        dense_gap = dense_u - magnitude(x, t).magnitude
    return CrossPolytopeResult(gap, slack, dense_gap)


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
