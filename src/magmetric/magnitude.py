"""Magnitude of finite point sets: weightings, diagnostics, and gradients.

The magnitude of a point set at scale t is the sum of the weighting vector w
solving zeta w = 1, where zeta is the exp(-t * distance) similarity matrix of
the exactly-deduplicated points. All solves go through one Cholesky path with
a fixed residual gate; nothing here ever forms an explicit inverse. The t-free
geometry is memoised per PointSet, so a sweep over scales, or a gradient after
a magnitude, dedupes and builds the distance matrix once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._blas import extension
from .core import PointSet, _identity_memo, dedupe, pairwise_distances

# the f2py routines scipy.linalg.lapack re-exports, without scipy.linalg
_flapack = extension("scipy.linalg", "_flapack")
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs

SOLVER_RESIDUAL_TOL = 1e-8
DEFAULT_EPS_SEP = 1e-9       # below this separation, distance gradients blow up
DEFAULT_SUPPORT_TOL = 1e-10  # a weight w >= -tol counts as nonnegative


class CholeskyFailure(ArithmeticError):
    """The similarity matrix was not numerically positive definite."""

    def __init__(self, message: str, pivot: Optional[int] = None,
                 condition_hint: Optional[float] = None):
        super().__init__(message)
        self.pivot = pivot
        self.condition_hint = condition_hint


class CoincidentPoints(ArithmeticError):
    """Two points closer than the separation floor where a gradient is needed."""

    def __init__(self, i: int, j: int, distance: float, message: Optional[str] = None):
        if message is None:
            message = (f"points {i} and {j} are {distance:.3e} apart, "
                       f"below the separation floor")
        super().__init__(message)
        self.pair = (i, j)
        self.distance = distance


@dataclass(frozen=True)
class MagnitudeResult:
    """Magnitude at one scale and the solve behind it: the weighting w of
    zeta w = 1 over the deduplicated representatives, and its health."""

    magnitude: float          # sum of the weights
    points: PointSet          # representatives, first occurrence per group
    weights: np.ndarray
    multiplicity: np.ndarray  # group sizes, parallel to points
    scale: float
    residual: float           # inf-norm of zeta w - 1 after refinement
    condition_hint: float     # (max diag L / min diag L)^2 from the factor


def _require_scale(t, name: str = "scale t") -> None:
    """Raise ValueError unless t is finite and positive (NaN fails too)."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"{name} must be finite and positive")


def _solve_ones(zeta: np.ndarray):
    """Cholesky-solve zeta w = 1.

    zeta must be bitwise symmetric, as every similarity matrix built here
    is. The factor reads it through zeta.T, the Fortran-ordered view of the
    same buffer, so LAPACK gets a plain copy instead of a transposing one;
    its lower triangle is zeta's upper one, the same numbers. The factor's
    upper triangle keeps those entries (clean=0): dpotrs reads only the
    lower one. One iterative-refinement pass always runs (cheap,
    deterministic), then the residual gate applies. zeta is only read: the
    refinement and the gate work in buffers of their own. Returns (w,
    residual, condition_hint, sum of w); a 0 x 0 zeta (the empty set) gives
    (zeros(0), 0.0, 1.0, 0.0).
    """
    n = zeta.shape[0]
    if n == 0:
        return np.zeros(0), 0.0, 1.0, 0.0
    factor, info = dpotrf(zeta.T, lower=1, clean=0)
    if info > 0:  # no factor, so no condition estimate either
        raise CholeskyFailure(
            f"similarity matrix is not positive definite at pivot {info} of {n}; "
            f"near-duplicate points or extreme scale",
            pivot=int(info), condition_hint=math.inf)
    if info < 0:  # pragma: no cover - argument error, not a data condition
        raise CholeskyFailure(f"internal Cholesky error (lapack info {info})")
    diag = factor.diagonal()
    hint = float((diag.max() / diag.min()) ** 2)
    ones = np.ones((n, 1))
    w, _ = dpotrs(factor, ones, lower=1)
    resid = zeta @ w
    np.subtract(ones, resid, out=resid)
    dw, _ = dpotrs(factor, resid, lower=1, overwrite_b=1)
    w += dw
    resid = zeta @ w
    resid -= ones
    residual = float(np.abs(resid, out=resid).max())
    if not residual <= SOLVER_RESIDUAL_TOL:  # a NaN residual fails too
        raise CholeskyFailure(
            f"solve residual {residual:.3e} exceeds {SOLVER_RESIDUAL_TOL:.0e} "
            f"(condition hint {hint:.3e})", condition_hint=hint)
    w = w.ravel()
    return w, residual, hint, float(w.sum())


def _similarity(dists: np.ndarray, t: float) -> np.ndarray:
    """zeta = exp(-t * dists) in one new buffer; dists is only read. The
    only place a similarity matrix is built."""
    zeta = np.multiply(dists, -t)
    np.exp(zeta, out=zeta)
    return zeta


def _nonnegative(w: np.ndarray) -> bool:
    """Whether no weight of w is below -DEFAULT_SUPPORT_TOL (true when empty)."""
    return bool(w.size == 0 or w.min() >= -DEFAULT_SUPPORT_TOL)


@_identity_memo
def _geometry(X: PointSet):
    """(reps, multiplicity, dists): X's distinct points in first-occurrence
    order, their group sizes and their distance matrix. None of it depends
    on t, so consecutive calls on the same PointSet build it once."""
    reps, mult = dedupe(X)
    return reps, mult, (pairwise_distances(reps) if len(reps) else np.zeros((0, 0)))


def magnitude(X: PointSet, t: float) -> MagnitudeResult:
    """Magnitude of X at scale t: 0 for the empty set, 1 for singletons.

    X is deduplicated exactly first; the weights live on the representatives
    (one per duplicate group, all mass on the representative).
    """
    _require_scale(t)
    reps, mult, dists = _geometry(X)
    w, residual, hint, total = _solve_ones(_similarity(dists, t))
    return MagnitudeResult(total, reps, w, mult, float(t), residual, hint)


def _inverse_distances(dists: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """1 / d on rows `rows` of dists, 0 in each row's own column. Callers check
    separation first, so no other entry divides by zero."""
    dr = dists[rows, :]
    dr[np.arange(len(rows)), rows] = np.inf  # a point's distance to itself
    return 1.0 / dr


def _gradient_rows(coords: np.ndarray, zeta: np.ndarray, inv: np.ndarray,
                   w: np.ndarray, t: float, rows: np.ndarray) -> np.ndarray:
    """Rows `rows` of the gradient of sum(w) in the point coordinates.

    Row k is 2t * w_k * sum_{j != k} w_j * zeta_kj * (x_k - x_j) / d_kj, with
    inv the matching rows of 1 / d, 0 in each row's own column: what
    _inverse_distances(dists, rows) returns. zeta and inv are only read.
    """
    m = zeta.take(rows, 0)
    m *= w[rows, None] * w[None, :]
    m *= inv
    return 2.0 * t * (m.sum(axis=1)[:, None] * coords[rows] - m @ coords)


def magnitude_gradient(X: PointSet, t: float) -> np.ndarray:
    """d magnitude / d x_k for every representative; |X'| x D.

    Differentiates through the solve: dMag/dtheta = -w^T (dzeta/dtheta) w.
    The Euclidean norm has no gradient at coincidence, so any surviving
    pair closer than DEFAULT_EPS_SEP is a hard CoincidentPoints error.
    """
    _require_scale(t)
    reps, _, dists = _geometry(X)
    n = len(reps)
    if n <= 1:
        return np.zeros((n, X.dim))
    masked = dists.copy()
    np.fill_diagonal(masked, np.inf)  # ignore a point's distance to itself
    k = int(np.argmin(masked))
    if masked.flat[k] < DEFAULT_EPS_SEP:
        raise CoincidentPoints(k // n, k % n, float(masked.flat[k]))
    zeta = _similarity(dists, t)
    w = _solve_ones(zeta)[0]
    rows = np.arange(n)
    return _gradient_rows(reps.coords, zeta, _inverse_distances(dists, rows), w, t, rows)
