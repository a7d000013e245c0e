"""Magnitude of finite point sets: weightings, diagnostics, and gradients.

The magnitude of a point set at scale t is the sum of the weighting vector w
solving zeta w = 1, where zeta is the exp(-t * distance) similarity matrix of
the exactly-deduplicated points. All solves go through one Cholesky path with
a fixed residual gate; nothing here ever forms an explicit inverse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .core import PointSet, dedupe, pairwise_distances

SOLVER_RESIDUAL_TOL = 1e-8
DEFAULT_EPS_SEP = 1e-9       # below this separation, distance gradients blow up
DEFAULT_SUPPORT_TOL = 1e-10  # |w| <= tol counts as zero; w >= -tol as nonnegative
JITTER_COEFF = 1e-12         # opt-in ridge is JITTER_COEFF * n on the diagonal


class CholeskyFailure(ArithmeticError):
    """The similarity matrix was not numerically positive definite."""

    def __init__(self, message: str, pivot: Optional[int] = None,
                 condition_hint: Optional[float] = None):
        super().__init__(message)
        self.pivot = pivot
        self.condition_hint = condition_hint


class EigenFailure(ArithmeticError):
    """Symmetric eigendecomposition did not converge."""


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
class WeightingVector:
    """Solution w of zeta w = 1 over the deduplicated representatives."""

    points: PointSet          # representatives, first occurrence per group
    weights: np.ndarray
    scale: float
    multiplicity: np.ndarray  # group sizes, parallel to points
    residual: float           # inf-norm of zeta w - 1 after refinement
    condition_hint: float     # (max diag L / min diag L)^2 from the factor
    jitter: float = 0.0       # diagonal ridge actually applied (0 when off)


@dataclass(frozen=True)
class MagnitudeResult:
    magnitude: float
    weighting: WeightingVector
    residual: float
    condition_hint: float


@dataclass(frozen=True)
class ScalePoint:
    """One entry of a magnitude function sweep; error text on failed solves."""

    t: float
    magnitude: float  # nan when the solve failed
    result: Optional[MagnitudeResult]
    error: str = ""


@dataclass(frozen=True)
class NeumannEstimate:
    """First-order large-t magnitude estimate with a reliability flag."""

    estimate: float
    reliable: bool       # spectral radius proxy < 1
    radius_proxy: float  # max_i sum_{j != i} zeta_ij


@dataclass(frozen=True)
class SpectralProfile:
    eigenvalues: np.ndarray         # descending
    alignments: np.ndarray          # (1^T v_i)^2 per eigenvector
    inverse_form_terms: np.ndarray  # alignments / eigenvalues; sums to magnitude


def _solve_ones(zeta: np.ndarray, jitter: bool):
    """Cholesky-solve `mat w = 1` where mat is zeta plus optional ridge.

    One iterative-refinement pass always runs (cheap, deterministic), then
    the residual gate applies. Returns (w, residual, condition_hint, ridge).
    """
    n = zeta.shape[0]
    applied = 0.0
    mat = zeta
    if jitter:
        applied = JITTER_COEFF * n
        mat = zeta + applied * np.eye(n)
    factor, info = dpotrf(mat, lower=1)
    if info > 0:
        lead = np.diag(factor)[: info - 1]
        hint = float((lead.max() / lead.min()) ** 2) if lead.size else math.inf
        raise CholeskyFailure(
            f"similarity matrix is not positive definite at pivot {info} of {n} "
            f"(condition hint {hint:.3e}); near-duplicate points or extreme scale",
            pivot=int(info), condition_hint=hint)
    if info < 0:  # pragma: no cover - argument error, not a data condition
        raise CholeskyFailure(f"internal Cholesky error (lapack info {info})")
    diag = np.diag(factor)
    hint = float((diag.max() / diag.min()) ** 2)
    ones = np.ones((n, 1))
    w, _ = dpotrs(factor, ones, lower=1)
    resid_vec = ones - mat @ w
    dw, _ = dpotrs(factor, resid_vec, lower=1)
    w = w + dw
    residual = float(np.abs(mat @ w - ones).max())
    if residual > SOLVER_RESIDUAL_TOL:
        raise CholeskyFailure(
            f"solve residual {residual:.3e} exceeds {SOLVER_RESIDUAL_TOL:.0e} "
            f"(condition hint {hint:.3e})", condition_hint=hint)
    return w.ravel(), residual, hint, applied


def weighting(X: PointSet, t: float, jitter: bool = False) -> WeightingVector:
    """Magnitude weighting of X at scale t.

    X is deduplicated exactly first; weights live on the representatives
    (one per duplicate group, all mass on the representative).
    """
    if len(X) == 0:
        raise ValueError("weighting needs a nonempty set")
    if t <= 0:
        raise ValueError("scale t must be positive")
    reps, mult = dedupe(X)
    zeta = np.exp(-t * pairwise_distances(reps))
    w, residual, hint, applied = _solve_ones(zeta, jitter)
    return WeightingVector(points=reps, weights=w, scale=float(t),
                           multiplicity=mult, residual=residual,
                           condition_hint=hint, jitter=applied)


def magnitude(X: PointSet, t: float, jitter: bool = False) -> MagnitudeResult:
    """Sum of the weighting entries; 0 for the empty set, 1 for singletons."""
    if t <= 0:
        raise ValueError("scale t must be positive")
    if len(X) == 0:
        empty = WeightingVector(points=X, weights=np.zeros(0), scale=float(t),
                                multiplicity=np.zeros(0, dtype=np.intp),
                                residual=0.0, condition_hint=1.0)
        return MagnitudeResult(0.0, empty, 0.0, 1.0)
    wv = weighting(X, t, jitter=jitter)
    return MagnitudeResult(float(wv.weights.sum()), wv, wv.residual, wv.condition_hint)


def magnitude_function(X: PointSet, ts) -> list[ScalePoint]:
    """Magnitude at each scale in ts; per-t solver failures are recorded
    in the returned entries instead of aborting the sweep."""
    ts = list(ts)
    if not ts:
        raise ValueError("ts must be nonempty")
    out = []
    for t in ts:
        try:
            res = magnitude(X, t)
            out.append(ScalePoint(float(t), res.magnitude, res))
        except (CholeskyFailure, ValueError) as exc:
            out.append(ScalePoint(float(t), float("nan"), None, error=str(exc)))
    return out


def magnitude_neumann(X: PointSet, t: float) -> NeumannEstimate:
    """First-order series estimate |X'| - sum_{i != j} zeta_ij.

    Cheap (no solve). `reliable` is False when the spectral radius proxy
    max_i sum_{j != i} zeta_ij reaches 1, where the series may diverge.
    """
    if t <= 0:
        raise ValueError("scale t must be positive")
    if len(X) == 0:
        return NeumannEstimate(0.0, True, 0.0)
    reps, _ = dedupe(X)
    n = len(reps)
    if n == 1:
        return NeumannEstimate(1.0, True, 0.0)
    zeta = np.exp(-t * pairwise_distances(reps))
    off = zeta - np.eye(n)
    proxy = float(off.sum(axis=1).max())
    return NeumannEstimate(float(n) - float(off.sum()), proxy < 1.0, proxy)


def is_nonnegative_weighting(X: PointSet, t: float, tol: float = DEFAULT_SUPPORT_TOL) -> bool:
    """True iff every weight is >= -tol (vacuously true for the empty set)."""
    if len(X) == 0:
        return True
    wv = weighting(X, t)
    return bool(wv.weights.min() >= -tol)


def magnitude_support(X: PointSet, t: float, tol: float = DEFAULT_SUPPORT_TOL) -> PointSet:
    """Representatives whose |weight| exceeds tol."""
    if len(X) == 0:
        return X
    wv = weighting(X, t)
    mask = np.abs(wv.weights) > tol
    return PointSet(wv.points.coords[mask])


def _min_offdiag(dists: np.ndarray):
    n = dists.shape[0]
    masked = dists + np.diag(np.full(n, np.inf))
    flat = int(np.argmin(masked))
    return flat // n, flat % n, float(masked.flat[flat])


def _gradient_rows(coords: np.ndarray, dists: np.ndarray, zeta: np.ndarray,
                   w: np.ndarray, t: float, rows: np.ndarray) -> np.ndarray:
    """Rows `rows` of the gradient of sum(w) in the point coordinates.

    Row k is 2t * w_k * sum_{j != k} w_j * zeta_kj * (x_k - x_j) / d_kj.
    Callers must have checked separation for every (row, other) pair.
    """
    sub = zeta[rows, :] * (w[rows, None] * w[None, :])
    dr = dists[rows, :]
    inv = np.zeros_like(sub)
    mask = np.ones(sub.shape, dtype=bool)
    mask[np.arange(len(rows)), rows] = False  # drop the self column
    inv[mask] = 1.0 / dr[mask]
    m = sub * inv
    return 2.0 * t * (m.sum(axis=1)[:, None] * coords[rows] - m @ coords)


def magnitude_gradient(X: PointSet, t: float, eps_sep: float = DEFAULT_EPS_SEP) -> np.ndarray:
    """d magnitude / d x_k for every representative; |X'| x D.

    Differentiates through the solve: dMag/dtheta = -w^T (dzeta/dtheta) w.
    The Euclidean norm has no gradient at coincidence, so any surviving
    pair closer than eps_sep is a hard CoincidentPoints error.
    """
    if t <= 0:
        raise ValueError("scale t must be positive")
    reps, _ = dedupe(X)
    n = len(reps)
    if n == 0:
        return np.zeros((0, X.dim))
    if n == 1:
        return np.zeros((1, reps.dim))
    dists = pairwise_distances(reps)
    i, j, d = _min_offdiag(dists)
    if d < eps_sep:
        raise CoincidentPoints(i, j, d)
    zeta = np.exp(-t * dists)
    w, _, _, _ = _solve_ones(zeta, False)
    return _gradient_rows(reps.coords, dists, zeta, w, t, np.arange(n))


def spectral_profile(X: PointSet, t: float) -> SpectralProfile:
    """Eigendecomposition view of the magnitude quadratic form.

    magnitude = 1^T zeta^-1 1 = sum_i (1^T v_i)^2 / lambda_i; the returned
    terms make that aggregation inspectable per eigenvalue.
    """
    if t <= 0:
        raise ValueError("scale t must be positive")
    if len(X) == 0:
        raise ValueError("spectral_profile needs a nonempty set")
    reps, _ = dedupe(X)
    zeta = np.exp(-t * pairwise_distances(reps))
    try:
        vals, vecs = np.linalg.eigh(zeta)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from None
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    align = vecs[:, order].sum(axis=0) ** 2
    return SpectralProfile(vals, align, align / vals)
