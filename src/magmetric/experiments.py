"""Deterministic studies: distance behavior across scales, dimensions,
outliers, and contamination, emitted as CSV rows plus a JSON summary.

Reproducibility contract: every trial computes on its own derived RNG stream,
rows are sorted canonically before writing, and floats print with 17
significant digits, so reruns (parallel or not) are byte-identical.
"""
from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .baselines import mmd_squared, sliced_wasserstein
from .core import PointSet, RngState, _is_list_of, _require_int, fmt17, sample_gaussian
from .distance import DistanceReport, mag_distance
from .magnitude import CholeskyFailure, _require_scale

CSV_HEADER = "study,method,dim,trial,param,value,error"
SW_PROJECTIONS = 128

# study-specific constants (cloud means and the dispersed outlier cloud)
OUTLIER2D_SHIFT = (2.0, 2.0)
OUTLIER2D_NOISE_POINTS = 10
OUTLIER2D_NOISE_STD = 6.0


# StudyConfig list fields: accepted item type, stored item type
_LIST_FIELDS = {"dims": (numbers.Integral, int), "scales": (numbers.Real, float),
                "adaptive_scales": (str, str), "shifts": (numbers.Real, float),
                "epsilons": (numbers.Real, float), "radii": (numbers.Real, float)}


def _require_distinct(cfg, name: str) -> None:
    # a repeated grid value would write two different rows under one key
    values = getattr(cfg, name)
    if len(set(values)) != len(values):
        raise ValueError(f"{name} must not repeat a value, got {list(values)}")


@dataclass(frozen=True)
class StudyConfig:
    """Knobs shared by all studies; each study reads the fields it needs.

    shift_mode 'fixed_norm' places the second cloud's mean at shift * e_1
    (Euclidean norm = shift); 'per_coordinate' shifts every coordinate by
    the value (norm = shift * sqrt(D)). `shifts` holds the magnitudes, a
    grid for the t-sweep study and a single value elsewhere.
    """

    seed: int = 42
    dims: tuple[int, ...] = (2,)
    n_per_set: int = 100
    trials: int = 20
    scales: tuple[float, ...] = ()
    adaptive_scales: tuple[str, ...] = ()  # subset of {"inv_d", "inv_sqrt_d"}
    shift_mode: str = "fixed_norm"
    shifts: tuple[float, ...] = ()
    epsilons: tuple[float, ...] = ()
    radii: tuple[float, ...] = ()

    def __post_init__(self):
        for name, low in (("seed", None), ("n_per_set", 1), ("trials", 1)):
            _require_int(getattr(self, name), name, low)
        for name, (kind, cast) in _LIST_FIELDS.items():
            value = getattr(self, name)
            if not _is_list_of(value, kind):
                raise ValueError(f"{name} must be a list of {cast.__name__}, got {value!r}")
            object.__setattr__(self, name, tuple(cast(v) for v in value))
            if cast is float and not all(map(math.isfinite, getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        for name in ("dims", "adaptive_scales", "shifts", "epsilons"):
            _require_distinct(self, name)
        if not self.dims:
            raise ValueError("dims must not be empty")
        for d in self.dims:
            _require_int(d, "dims", 1)
        for t in self.scales:
            _require_scale(t, "scales")
        unknown = set(self.adaptive_scales) - {"inv_d", "inv_sqrt_d"}
        if unknown:
            raise ValueError(f"unknown adaptive scales: {sorted(unknown)}")
        if self.shift_mode not in ("fixed_norm", "per_coordinate"):
            raise ValueError(f"unknown shift_mode {self.shift_mode!r}")
        if any(e < 0 for e in self.epsilons):
            raise ValueError("epsilons must be nonnegative")
        if any(e > 1 for e in self.epsilons):  # a contamination rate
            raise ValueError("epsilons must be at most 1")
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii must be positive")
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly increasing")


@dataclass(frozen=True)
class StudyRow:
    study: str
    method: str
    dim: int
    trial: int
    param: str
    value: float
    error: str = ""


def contamination_count(eps: float, n: int) -> int:
    """ceil(eps*n) outliers; rounded first so 0.05*200 counts as exactly 10."""
    return math.ceil(round(eps * n, 9))


def recommend_scale(dim: int) -> float:
    """Default scale heuristic for D-dimensional data: 1/sqrt(D)."""
    _require_int(dim, "dim", 1)
    return 1.0 / math.sqrt(dim)


def _thread_count() -> int:
    raw = os.environ.get("MAGMETRIC_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _shifted_pair(cfg: StudyConfig, rng: RngState, dim: int, shift: float):
    """x ~ N(0, I), then y ~ N(mu, I), drawn in that order: mu is shift * e_1
    (fixed_norm) or shift in every coordinate (per_coordinate)."""
    x = sample_gaussian(rng, cfg.n_per_set, dim)
    mu = np.full(dim, shift) if cfg.shift_mode == "per_coordinate" else np.zeros(dim)
    mu[0] = shift
    return x, sample_gaussian(rng, cfg.n_per_set, dim, mu)


# what a trial reads in place of a failed solve's report: every value NaN
_FAILED = DistanceReport(*[math.nan] * 6, (False, False, False), math.nan)


def _distance(a: PointSet, b: PointSet, t: float) -> tuple[DistanceReport, str]:
    """(mag_distance(a, b, t), ""), or (_FAILED, "Type: message") when its
    solve raises CholeskyFailure; the message's commas become ';' so the CSV
    keeps its seven fields."""
    try:
        return mag_distance(a, b, t), ""
    except CholeskyFailure as exc:
        return _FAILED, f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")


def _check_tsweep(cfg: StudyConfig) -> None:
    if not cfg.shifts:
        raise ValueError("tsweep needs a shift grid")
    if not cfg.scales:
        raise ValueError("tsweep needs scales")
    _require_distinct(cfg, "scales")


def _tsweep_trial(cfg: StudyConfig, rng: RngState, dim: int, shift: float) -> list:
    """Standard and normalized distance over t for one mean shift."""
    x, y = _shifted_pair(cfg, rng, dim, shift)
    rows = []
    for t in cfg.scales:
        param = f"mu={fmt17(shift)};t={fmt17(t)}"
        rep, error = _distance(x, y, t)
        rows += [("magdist", param, rep.distance, error),
                 ("magdist_norm", param, rep.normalized, error)]
    return rows


def _check_highdim(cfg: StudyConfig) -> None:
    if len(cfg.shifts) != 1:
        raise ValueError("highdim expects exactly one shift magnitude")
    _require_distinct(cfg, "scales")


def _highdim_trial(cfg: StudyConfig, rng: RngState, dim: int, shift: float) -> list:
    """MMD, sliced Wasserstein, and normalized magnitude distance (fixed and
    dimension-adaptive scales) between shifted Gaussian clouds."""
    x, y = _shifted_pair(cfg, rng, dim, shift)
    rows = []
    for label, sigma in (("mmd2[sigma=1]", 1.0),
                         ("mmd2[sigma=1/sqrt(D)]", 1.0 / math.sqrt(dim))):
        val = mmd_squared(x, y, sigma)
        rows.append((label, f"sigma={fmt17(sigma)}", val, ""))
    sw = sliced_wasserstein(x, y, SW_PROJECTIONS, rng=rng)
    rows.append(("sliced_wasserstein", f"n_proj={SW_PROJECTIONS}", sw, ""))
    scale_plan = [(f"magdist_norm[t={format(t, 'g')}]", t) for t in cfg.scales]
    for name in cfg.adaptive_scales:
        if name == "inv_d":
            scale_plan.append(("magdist_norm[t=1/D]", 1.0 / dim))
        else:
            scale_plan.append(("magdist_norm[t=1/sqrt(D)]", recommend_scale(dim)))
    for label, t in scale_plan:
        rep, error = _distance(x, y, t)
        rows.append((label, f"t={fmt17(t)}", rep.normalized, error))
    return rows


def _check_outlier2d(cfg: StudyConfig) -> None:
    if cfg.dims != (2,):
        raise ValueError("outlier2d is a planar study; dims must be (2,)")
    if not cfg.scales:
        raise ValueError("outlier2d needs scales")
    _require_distinct(cfg, "scales")


def _outlier2d_trial(cfg: StudyConfig, rng: RngState, dim: int, _) -> list:
    """Distance change when a small dispersed cloud joins one sample.

    B ~ N(0, I), Y ~ N(shift, I), Y* = Y plus a few points from
    N(shift, OUTLIER2D_NOISE_STD^2 I). Emits the clean value d(B, Y), the
    noisy value d(B, Y*), and their relative change, per method.
    """
    shift = np.asarray(OUTLIER2D_SHIFT[:dim])
    base = sample_gaussian(rng, cfg.n_per_set, dim)
    y = sample_gaussian(rng, cfg.n_per_set, dim, shift)
    noise = sample_gaussian(rng, OUTLIER2D_NOISE_POINTS, dim, shift,
                            OUTLIER2D_NOISE_STD)
    y_star = PointSet(np.vstack([y.coords, noise.coords]))
    # each pair at all of its scales in a row, so each builds one geometry; a
    # scale whose clean solve failed skips the noisy solve and keeps the clean
    # failure, so `error` is the scale's first failure, and a failure in
    # either pair makes all three of its rows NaN
    clean = [_distance(base, y, t) for t in cfg.scales]
    noisy = [(rep, error) if error else _distance(base, y_star, t)
             for (rep, error), t in zip(clean, cfg.scales)]
    pairs = [(f"magdist[t={format(t, 'g')}]", math.nan if error else c.distance,
              n.distance, error) for t, (c, _), (n, error) in zip(cfg.scales, clean, noisy)]
    sw_clean = sliced_wasserstein(base, y, SW_PROJECTIONS, rng=rng)
    sw_noisy = sliced_wasserstein(base, y_star, SW_PROJECTIONS, rng=rng)
    pairs.append(("sliced_wasserstein", sw_clean, sw_noisy, ""))
    rows = []
    for method, c, n, error in pairs:
        rel = abs(n - c) / c if c != 0 else math.nan
        rows += [(method, f"pair={tag}", value, error)
                 for tag, value in (("clean", c), ("noisy", n), ("relchange", rel))]
    return rows


def _check_huber(cfg: StudyConfig) -> None:
    if not cfg.epsilons:
        raise ValueError("huber needs epsilons")
    if not cfg.radii:
        raise ValueError("huber needs radii")
    if len(cfg.scales) != 2:
        raise ValueError("huber needs exactly two scales (standard, normalized)")


def _huber_trial(cfg: StudyConfig, rng: RngState, dim: int, eps: float) -> list:
    """Contamination sweep: how distances react as outliers move outward.

    The clean samples and the outlier directions are drawn once per trial;
    the radius sweep rescales the same unit directions, so growth over r is
    isolated from sampling noise.
    """
    n = cfg.n_per_set
    t_std, t_norm = cfg.scales
    clean = sample_gaussian(rng, n, dim)
    contaminated_base = sample_gaussian(rng, n, dim)
    k = contamination_count(eps, n)
    if k > 0:
        dirs = rng.normals(k * dim).reshape(k, dim)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rows = []
    for r in cfg.radii:
        coords = contaminated_base.coords.copy()
        if k > 0:
            coords[:k] = r * dirs
        contaminated = PointSet(coords)
        param = f"eps={fmt17(eps)};r={fmt17(r)}"
        sw = sliced_wasserstein(clean, contaminated, SW_PROJECTIONS, rng=rng)
        rows.append(("sliced_wasserstein", param, sw, ""))
        for method, t, field in (
                (f"magdist[t={format(t_std, 'g')}]", t_std, "distance"),
                (f"magdist_norm[t={format(t_norm, 'g')}]", t_norm, "normalized")):
            rep, error = _distance(clean, contaminated, t)
            rows.append((method, param, getattr(rep, field), error))
    return rows


# ------------------------------------------------------------- study table

@dataclass(frozen=True)
class _Study:
    """One study. Its cells are dims x args(cfg) x trials; the cell at dim
    index di, arg index ai and trial k computes on the stream
    derive(salt).derive(di * dim_stride + ai * 1_000_000 + k), and
    `trial(cfg, rng, dim, arg)` returns its (method, param, value, error)
    rows. `check` holds every requirement the study puts on its config."""

    salt: int  # keeps different studies off each other's trial streams
    defaults: dict
    check: Callable[[StudyConfig], None]
    args: Callable[[StudyConfig], tuple]
    trial: Callable[..., list]
    dim_stride: int = 1_000_000_000


_STUDIES = {
    "tsweep": _Study(
        1, dict(dims=(100,), n_per_set=100, trials=3,
                scales=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6), shift_mode="per_coordinate",
                shifts=(0.0, 0.75, 1.5, 2.25, 3.0, 3.75, 4.5, 5.25, 6.0)),
        _check_tsweep, lambda cfg: cfg.shifts, _tsweep_trial),
    "highdim": _Study(
        2, dict(dims=(2, 10, 50, 100, 200), n_per_set=100, trials=20,
                scales=(0.01, 0.1), adaptive_scales=("inv_d", "inv_sqrt_d"),
                shift_mode="fixed_norm", shifts=(2.0,)),
        _check_highdim, lambda cfg: cfg.shifts, _highdim_trial,
        dim_stride=1_000_000),
    "outlier2d": _Study(
        3, dict(dims=(2,), n_per_set=200, trials=20, scales=(5.0, 20.0)),
        _check_outlier2d, lambda cfg: (None,), _outlier2d_trial),
    "huber": _Study(
        4, dict(dims=(5,), n_per_set=200, trials=5, scales=(0.001, 0.1),
                epsilons=(0.01, 0.05, 0.1),
                radii=(10.0, 50.0, 100.0, 500.0, 1000.0)),
        _check_huber, lambda cfg: cfg.epsilons, _huber_trial),
}


def _study(name: str) -> _Study:
    if name not in _STUDIES:
        raise ValueError(f"unknown study {name!r}")
    return _STUDIES[name]


def study_names() -> tuple[str, ...]:
    return tuple(sorted(_STUDIES))


def config_from_dict(study: str, data: dict, **overrides) -> StudyConfig:
    """Study defaults, updated by `data`, updated by keyword overrides; the
    result must meet the study's requirements."""
    spec = _study(study)
    bad = set(data) - {f.name for f in fields(StudyConfig)}
    if bad:
        raise ValueError(f"unknown config fields: {sorted(bad)}")
    cfg = StudyConfig(**{**spec.defaults, **data, **overrides})
    spec.check(cfg)
    return cfg


def default_config(study: str) -> StudyConfig:
    return config_from_dict(study, {})


def run_study(study: str, config: StudyConfig | None = None) -> list[StudyRow]:
    """Every row of `study` under `config` (default: the study's defaults).

    Cells are pure (own derived RNG each), so running them in the
    MAGMETRIC_THREADS pool cannot change any value; the canonical sort fixes
    the row order regardless of completion order.
    """
    spec = _study(study)
    cfg = config if config is not None else default_config(study)
    spec.check(cfg)
    root = RngState(cfg.seed).derive(spec.salt)
    cells = [(di * spec.dim_stride + ai * 1_000_000 + trial, dim, trial, arg)
             for di, dim in enumerate(cfg.dims)
             for ai, arg in enumerate(spec.args(cfg))
             for trial in range(cfg.trials)]

    def run_cell(cell) -> list[StudyRow]:
        index, dim, trial, arg = cell
        return [StudyRow(study, method, dim, trial, param, value, error)
                for method, param, value, error
                in spec.trial(cfg, root.derive(index), dim, arg)]

    threads = _thread_count()
    if threads == 1 or len(cells) <= 1:
        chunks = [run_cell(cell) for cell in cells]
    else:
        from concurrent.futures import ThreadPoolExecutor  # here: a serial run never loads it
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(run_cell, cells))
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.study, r.method, r.dim, r.trial, r.param))
    return rows


def write_rows(path, rows: list[StudyRow]) -> None:
    """Write the canonical CSV: fixed header, LF endings, 17-digit floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(f"{r.study},{r.method},{r.dim},{r.trial},{r.param},"
                     f"{fmt17(r.value)},{r.error}\n")


def summarize(rows: list[StudyRow]) -> dict:
    """study -> method -> dim -> param -> {mean, std, cv, count}.

    Trials are the replicates inside each (method, dim, param) cell; error
    rows are excluded. std is the population standard deviation; cv =
    std/mean (nan when the mean is zero).
    """
    cells: dict = {}
    for r in rows:
        if not r.error:
            cells.setdefault((r.study, r.method, str(r.dim), r.param), []).append(r.value)
    out: dict = {}
    for (study, method, dim, param), vals in cells.items():
        arr = np.asarray(vals)
        mean = float(arr.mean())
        std = float(arr.std())
        cv = std / mean if mean != 0.0 else float("nan")
        out.setdefault(study, {}).setdefault(method, {}).setdefault(dim, {})[param] = {
            "mean": mean, "std": std, "cv": cv, "count": int(arr.size)}
    return out


def summary_path(csv_path) -> str:
    return f"{csv_path}.summary.json"


def write_summary(path, rows: list[StudyRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summarize(rows), fh, indent=2, sort_keys=True)
        fh.write("\n")
