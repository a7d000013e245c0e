"""Independent dense reference for the outputs the benchmark times.

The reference shares no code with magmetric: it deduplicates with
`numpy.unique`, builds distances one row at a time, and solves `Z w = 1`
with `numpy.linalg.solve` (LU), where the program uses `cdist` and Cholesky
with refinement. Tolerances are relative, so no stored value is needed and
any seed can be checked.
"""
from __future__ import annotations

import numpy as np

REL_TOL = 1e-8       # magnitudes and distances against the reference
GRAD_REL_TOL = 1e-5  # analytic gradient against central differences
FD_STEP = 1e-6
FD_COORDS = 8        # coordinates of Y checked per gradient check


def _distances(coords: np.ndarray) -> np.ndarray:
    out = np.empty((coords.shape[0], coords.shape[0]))
    for i, row in enumerate(coords):
        out[i] = np.sqrt(((coords - row) ** 2).sum(axis=1))
    return out


def _magnitude(dists: np.ndarray, t: float) -> float:
    if dists.shape[0] == 0:
        return 0.0
    return float(np.linalg.solve(np.exp(-t * dists), np.ones(dists.shape[0])).sum())


def reference(x: np.ndarray, y: np.ndarray, t: float):
    """(Mag(X u Y), Mag(X), Mag(Y)) on the exactly deduplicated sets."""
    both = np.concatenate([x, y]) + 0.0  # +0.0 folds -0.0 into 0.0
    union, inverse = np.unique(both, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    dists = _distances(union)
    ix = np.unique(inverse[:len(x)])
    iy = np.unique(inverse[len(x):])
    return (_magnitude(dists, t), _magnitude(dists[np.ix_(ix, ix)], t),
            _magnitude(dists[np.ix_(iy, iy)], t))


def _close(value, ref, scale) -> bool:
    return bool(np.isfinite(value) and abs(value - ref) <= REL_TOL * scale)


def _same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def check_report(x, y, t, report, mag_distance) -> list[tuple[str, bool]]:
    """A study's `mag_distance(x, y, t)` report against the reference, and
    bit-for-bit against the program's own swapped call."""
    mu, mx, my = reference(x.coords, y.coords, t)
    scale = 2.0 * abs(mu) + abs(mx) + abs(my)
    dist = 2.0 * mu - (mx + my)
    swapped = mag_distance(y, x, t)
    return [
        ("reference", _close(report.mag_union, mu, abs(mu))
         and _close(report.mag_x, mx, abs(mx))
         and _close(report.mag_y, my, abs(my))
         and _close(report.distance, dist, scale)
         and _close(report.normalized, dist / mu, scale / abs(mu))),
        ("symmetry", all(_same_bits(a, b) for a, b in (
            (report.distance, swapped.distance),
            (report.normalized, swapped.normalized),
            (report.mag_union, swapped.mag_union)))),
    ]


def _normalized(x: np.ndarray, y: np.ndarray, t: float) -> tuple[float, float]:
    mu, mx, my = reference(x, y, t)
    return (2.0 * mu - (mx + my)) / mu, (2.0 * abs(mu) + abs(mx) + abs(my)) / abs(mu)


def check_value_and_gradient(x, y, t, value, grad, mag_distance, coords=None
                             ) -> list[tuple[str, bool]]:
    """A training call's normalized distance against the reference, the
    program's distance on the same sets for bitwise symmetry, and, when
    `coords` names entries of Y, the gradient there against central
    differences of the reference."""
    ref, scale = _normalized(x.coords, y.coords, t)
    out = [("reference", _close(value, ref, scale)),
           ("symmetry", _same_bits(mag_distance(x, y, t).distance,
                                   mag_distance(y, x, t).distance))]
    if coords is not None:
        pert = y.coords.copy()
        errors = []
        for i, j in coords:
            orig = pert[i, j]
            pert[i, j] = orig + FD_STEP
            up, _ = _normalized(x.coords, pert, t)
            pert[i, j] = orig - FD_STEP
            down, _ = _normalized(x.coords, pert, t)
            pert[i, j] = orig
            errors.append(abs(grad[i, j] - (up - down) / (2.0 * FD_STEP)))
        worst = max(errors) / max(float(np.abs(grad).max()), 1e-8)
        out.append(("gradient", bool(np.isfinite(worst) and worst <= GRAD_REL_TOL)))
    return out
