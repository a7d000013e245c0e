"""Deterministic study runners: distance behavior across scales, dimensions,
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .baselines import KernelSpec, mmd_squared, sliced_wasserstein
from .core import PointSet, RngState, _is_list_of, sample_gaussian
from .distance import mag_distance
from .magnitude import CholeskyFailure, _require_scale

CSV_HEADER = "study,method,dim,trial,param,value,error"
SW_PROJECTIONS = 128

# study-specific constants (cloud means and the dispersed outlier cloud)
OUTLIER2D_SHIFT = (2.0, 2.0)
OUTLIER2D_NOISE_POINTS = 10
OUTLIER2D_NOISE_STD = 6.0

# derived-stream salts so different studies never share trial streams
_STUDY_SALT = {"tsweep": 1, "highdim": 2, "outlier2d": 3, "huber": 4}


def fmt17(x) -> str:
    """Canonical float rendering: 17 significant digits, round-trip exact."""
    return format(float(x), ".17g")


# StudyConfig list fields: accepted item type, stored item type
_LIST_FIELDS = {"dims": (numbers.Integral, int), "scales": (numbers.Real, float),
                "adaptive_scales": (str, str), "shifts": (numbers.Real, float),
                "epsilons": (numbers.Real, float), "radii": (numbers.Real, float)}


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
    output_path: str | None = None

    def __post_init__(self):
        for name in ("seed", "n_per_set", "trials"):
            if not _is_list_of([getattr(self, name)], numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name, (kind, cast) in _LIST_FIELDS.items():
            value = getattr(self, name)
            if not _is_list_of(value, kind):
                raise ValueError(f"{name} must be a list of {cast.__name__}, got {value!r}")
            object.__setattr__(self, name, tuple(cast(v) for v in value))
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("dims must be positive")
        if self.n_per_set < 1:
            raise ValueError("n_per_set must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        for t in self.scales:
            _require_scale(t, "scales")
        unknown = set(self.adaptive_scales) - {"inv_d", "inv_sqrt_d"}
        if unknown:
            raise ValueError(f"unknown adaptive scales: {sorted(unknown)}")
        if self.shift_mode not in ("fixed_norm", "per_coordinate"):
            raise ValueError(f"unknown shift_mode {self.shift_mode!r}")
        if any(e < 0 for e in self.epsilons):
            raise ValueError("epsilons must be nonnegative")
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


def tsweep_config(**overrides) -> StudyConfig:
    """Distance as a function of t for a grid of per-coordinate mean shifts."""
    base = dict(seed=42, dims=(100,), n_per_set=100, trials=3,
                scales=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
                shift_mode="per_coordinate",
                shifts=(0.0, 0.75, 1.5, 2.25, 3.0, 3.75, 4.5, 5.25, 6.0))
    base.update(overrides)
    return StudyConfig(**base)


def highdim_config(**overrides) -> StudyConfig:
    """Baselines vs magnitude distance as the ambient dimension grows."""
    base = dict(seed=42, dims=(2, 10, 50, 100, 200), n_per_set=100, trials=20,
                scales=(0.01, 0.1), adaptive_scales=("inv_d", "inv_sqrt_d"),
                shift_mode="fixed_norm", shifts=(2.0,))
    base.update(overrides)
    return StudyConfig(**base)


def outlier2d_config(**overrides) -> StudyConfig:
    """Sensitivity of distances to a small dispersed outlier cloud in 2D."""
    base = dict(seed=42, dims=(2,), n_per_set=200, trials=20, scales=(5.0, 20.0))
    base.update(overrides)
    cfg = StudyConfig(**base)
    if cfg.dims != (2,):
        raise ValueError("outlier2d is a planar study; dims must be (2,)")
    return cfg


def huber_config(**overrides) -> StudyConfig:
    """Contaminated two-sample test: replace ceil(eps*n) points by radius-r
    outliers and sweep r. scales[0] is the standard-distance scale,
    scales[1] the normalized-distance scale."""
    base = dict(seed=42, dims=(5,), n_per_set=200, trials=5,
                scales=(0.001, 0.1), epsilons=(0.01, 0.05, 0.1),
                radii=(10.0, 50.0, 100.0, 500.0, 1000.0))
    base.update(overrides)
    return StudyConfig(**base)


def contamination_count(eps: float, n: int) -> int:
    """ceil(eps*n) outliers; rounded first so 0.05*200 counts as exactly 10."""
    return math.ceil(round(eps * n, 9))


def recommend_scale(dim: int) -> float:
    """Default scale heuristic for D-dimensional data: 1/sqrt(D)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return 1.0 / math.sqrt(dim)


def _thread_count() -> int:
    raw = os.environ.get("MAGMETRIC_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _run_tasks(tasks) -> list[StudyRow]:
    """Run zero-arg row producers, possibly in a pool, and sort canonically.

    Tasks are pure (own derived RNG each), so scheduling cannot change any
    value; the sort fixes the row order regardless of completion order.
    """
    threads = _thread_count()
    if threads == 1 or len(tasks) <= 1:
        chunks = [task() for task in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda task: task(), tasks))
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r.study, r.method, r.dim, r.trial, r.param))
    return rows


def _shift_vector(mode: str, value: float, dim: int) -> np.ndarray:
    vec = np.zeros(dim)
    if mode == "fixed_norm":
        vec[0] = value
    else:  # per_coordinate
        vec[:] = value
    return vec


def _err_text(exc: Exception) -> str:
    msg = f"{type(exc).__name__}: {exc}"
    return msg.replace(",", ";").replace("\n", " ")


def _nan_row(study, method, dim, trial, param, exc) -> StudyRow:
    return StudyRow(study, method, dim, trial, param, float("nan"), _err_text(exc))


def _study_stream(cfg: StudyConfig, study: str, index: int) -> RngState:
    return RngState(cfg.seed).derive(_STUDY_SALT[study]).derive(index)


def run_tsweep(config: StudyConfig | None = None) -> list[StudyRow]:
    """Standard and normalized distance over t, per mean shift, per trial."""
    cfg = config if config is not None else tsweep_config()
    if not cfg.shifts:
        raise ValueError("tsweep needs a shift grid")
    if not cfg.scales:
        raise ValueError("tsweep needs scales")
    tasks = []
    for di, dim in enumerate(cfg.dims):
        for si, shift in enumerate(cfg.shifts):
            for trial in range(cfg.trials):
                index = (di * 1000 + si) * 1_000_000 + trial
                rng = _study_stream(cfg, "tsweep", index)
                tasks.append(_make_tsweep_task(cfg, dim, shift, trial, rng))
    return _run_tasks(tasks)


def _make_tsweep_task(cfg, dim, shift, trial, rng):
    def task():
        x = sample_gaussian(rng, cfg.n_per_set, dim)
        y = sample_gaussian(rng, cfg.n_per_set, dim,
                            _shift_vector(cfg.shift_mode, shift, dim))
        rows = []
        for t in cfg.scales:
            param = f"mu={fmt17(shift)};t={fmt17(t)}"
            try:
                rep = mag_distance(x, y, t)
                rows.append(StudyRow("tsweep", "magdist", dim, trial, param,
                                     rep.distance))
                rows.append(StudyRow("tsweep", "magdist_norm", dim, trial, param,
                                     rep.normalized))
            except CholeskyFailure as exc:
                rows.append(_nan_row("tsweep", "magdist", dim, trial, param, exc))
                rows.append(_nan_row("tsweep", "magdist_norm", dim, trial, param, exc))
        return rows
    return task


def run_highdim(config: StudyConfig | None = None) -> list[StudyRow]:
    """MMD, sliced Wasserstein, and normalized magnitude distance (fixed and
    dimension-adaptive scales) between shifted Gaussian clouds, per dim."""
    cfg = config if config is not None else highdim_config()
    if len(cfg.shifts) != 1:
        raise ValueError("highdim expects exactly one shift magnitude")
    tasks = []
    for di, dim in enumerate(cfg.dims):
        for trial in range(cfg.trials):
            rng = _study_stream(cfg, "highdim", di * 1_000_000 + trial)
            tasks.append(_make_highdim_task(cfg, dim, trial, rng))
    return _run_tasks(tasks)


def _make_highdim_task(cfg, dim, trial, rng):
    def task():
        shift = cfg.shifts[0]
        x = sample_gaussian(rng, cfg.n_per_set, dim)
        y = sample_gaussian(rng, cfg.n_per_set, dim,
                            _shift_vector(cfg.shift_mode, shift, dim))
        rows = []
        for label, sigma in (("mmd2[sigma=1]", 1.0),
                             ("mmd2[sigma=1/sqrt(D)]", 1.0 / math.sqrt(dim))):
            val = mmd_squared(x, y, KernelSpec("gaussian", sigma))
            rows.append(StudyRow("highdim", label, dim, trial,
                                 f"sigma={fmt17(sigma)}", val))
        sw = sliced_wasserstein(x, y, SW_PROJECTIONS, rng=rng)
        rows.append(StudyRow("highdim", "sliced_wasserstein", dim, trial,
                             f"n_proj={SW_PROJECTIONS}", sw))
        scale_plan = [(f"magdist_norm[t={format(t, 'g')}]", t) for t in cfg.scales]
        for name in cfg.adaptive_scales:
            if name == "inv_d":
                scale_plan.append(("magdist_norm[t=1/D]", 1.0 / dim))
            else:
                scale_plan.append(("magdist_norm[t=1/sqrt(D)]", recommend_scale(dim)))
        for label, t in scale_plan:
            param = f"t={fmt17(t)}"
            try:
                rep = mag_distance(x, y, t)
                rows.append(StudyRow("highdim", label, dim, trial, param,
                                     rep.normalized))
            except CholeskyFailure as exc:
                rows.append(_nan_row("highdim", label, dim, trial, param, exc))
        return rows
    return task


def run_outlier2d(config: StudyConfig | None = None) -> list[StudyRow]:
    """Distance change when a small dispersed cloud joins one sample.

    Per trial: B ~ N(0, I), Y ~ N(shift, I), Y* = Y plus a few points from
    N(shift, OUTLIER2D_NOISE_STD^2 I). Emits the clean value d(B, Y), the
    noisy value d(B, Y*), and their relative change, per method.
    """
    cfg = config if config is not None else outlier2d_config()
    if cfg.dims != (2,):
        raise ValueError("outlier2d is a 2D study (dims must be (2,))")
    if not cfg.scales:
        raise ValueError("outlier2d needs scales")
    tasks = []
    for trial in range(cfg.trials):
        rng = _study_stream(cfg, "outlier2d", trial)
        tasks.append(_make_outlier2d_task(cfg, trial, rng))
    return _run_tasks(tasks)


def _make_outlier2d_task(cfg, trial, rng):
    def task():
        dim = cfg.dims[0]
        shift = np.asarray(OUTLIER2D_SHIFT[:dim])
        base = sample_gaussian(rng, cfg.n_per_set, dim)
        y = sample_gaussian(rng, cfg.n_per_set, dim, shift)
        noise = sample_gaussian(rng, OUTLIER2D_NOISE_POINTS, dim, shift,
                                OUTLIER2D_NOISE_STD)
        y_star = PointSet(np.vstack([y.coords, noise.coords]))
        rows = []

        def emit(method, clean, noisy):
            rel = abs(noisy - clean) / clean if clean != 0 else float("nan")
            for tag, val in (("clean", clean), ("noisy", noisy), ("relchange", rel)):
                rows.append(StudyRow("outlier2d", method, dim, trial,
                                     f"pair={tag}", val))

        for t in cfg.scales:
            method = f"magdist[t={format(t, 'g')}]"
            try:
                clean = mag_distance(base, y, t).distance
                noisy = mag_distance(base, y_star, t).distance
                emit(method, clean, noisy)
            except CholeskyFailure as exc:
                for tag in ("clean", "noisy", "relchange"):
                    rows.append(_nan_row("outlier2d", method, dim, trial,
                                         f"pair={tag}", exc))
        sw_clean = sliced_wasserstein(base, y, SW_PROJECTIONS, rng=rng)
        sw_noisy = sliced_wasserstein(base, y_star, SW_PROJECTIONS, rng=rng)
        emit("sliced_wasserstein", sw_clean, sw_noisy)
        return rows
    return task


def run_huber(config: StudyConfig | None = None) -> list[StudyRow]:
    """Contamination sweep: how distances react as outliers move outward.

    Within one (epsilon, trial) cell the clean samples and the outlier
    directions are drawn once; the radius sweep rescales the same unit
    directions, so growth over r is isolated from sampling noise.
    """
    cfg = config if config is not None else huber_config()
    if not cfg.epsilons:
        raise ValueError("huber needs epsilons")
    if not cfg.radii:
        raise ValueError("huber needs radii")
    if len(cfg.scales) != 2:
        raise ValueError("huber needs exactly two scales (standard, normalized)")
    tasks = []
    for di, dim in enumerate(cfg.dims):
        for ei, eps in enumerate(cfg.epsilons):
            for trial in range(cfg.trials):
                index = (di * 1000 + ei) * 1_000_000 + trial
                rng = _study_stream(cfg, "huber", index)
                tasks.append(_make_huber_task(cfg, dim, eps, trial, rng))
    return _run_tasks(tasks)


def _make_huber_task(cfg, dim, eps, trial, rng):
    def task():
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
            rows.append(StudyRow("huber", "sliced_wasserstein", dim, trial,
                                 param, sw))
            for method, t, normalized in (
                    (f"magdist[t={format(t_std, 'g')}]", t_std, False),
                    (f"magdist_norm[t={format(t_norm, 'g')}]", t_norm, True)):
                try:
                    rep = mag_distance(clean, contaminated, t)
                    val = rep.normalized if normalized else rep.distance
                    rows.append(StudyRow("huber", method, dim, trial, param, val))
                except CholeskyFailure as exc:
                    rows.append(_nan_row("huber", method, dim, trial, param, exc))
        return rows
    return task


_RUNNERS = {"tsweep": run_tsweep, "highdim": run_highdim,
            "outlier2d": run_outlier2d, "huber": run_huber}
_CONFIGS = {"tsweep": tsweep_config, "highdim": highdim_config,
            "outlier2d": outlier2d_config, "huber": huber_config}


def study_names() -> tuple[str, ...]:
    return tuple(sorted(_RUNNERS))


def default_config(study: str) -> StudyConfig:
    if study not in _CONFIGS:
        raise ValueError(f"unknown study {study!r}")
    return _CONFIGS[study]()


def run_study(study: str, config: StudyConfig | None = None) -> list[StudyRow]:
    if study not in _RUNNERS:
        raise ValueError(f"unknown study {study!r}")
    return _RUNNERS[study](config)


def write_rows(path, rows: list[StudyRow]) -> None:
    """Write the canonical CSV: fixed header, LF endings, 17-digit floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            err = r.error.replace(",", ";").replace("\n", " ")
            fh.write(f"{r.study},{r.method},{r.dim},{r.trial},{r.param},"
                     f"{fmt17(r.value)},{err}\n")


def summarize(rows: list[StudyRow]) -> dict:
    """study -> method -> dim -> param -> {mean, std, cv, count}.

    Trials are the replicates inside each (method, dim, param) cell; error
    rows are excluded. std is the population standard deviation; cv =
    std/mean (nan when the mean is zero).
    """
    grouped: dict = {}
    for r in rows:
        if r.error:
            continue
        bucket = (grouped.setdefault(r.study, {})
                  .setdefault(r.method, {})
                  .setdefault(str(r.dim), {}))
        bucket.setdefault(r.param, []).append(r.value)
    out: dict = {}
    for study, methods in grouped.items():
        for method, dims in methods.items():
            for dim, params in dims.items():
                for param, vals in params.items():
                    arr = np.asarray(vals)
                    mean = float(arr.mean())
                    std = float(arr.std())
                    cv = std / mean if mean != 0.0 else float("nan")
                    (out.setdefault(study, {}).setdefault(method, {})
                        .setdefault(dim, {}))[param] = {
                        "mean": mean, "std": std, "cv": cv,
                        "count": int(arr.size)}
    return out


def summary_path(csv_path) -> str:
    return f"{csv_path}.summary.json"


def write_summary(path, rows: list[StudyRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summarize(rows), fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_as_dict(cfg: StudyConfig) -> dict:
    """JSON-friendly rendering of a config (tuples become lists)."""
    d = asdict(cfg)
    for key, val in d.items():
        if isinstance(val, tuple):
            d[key] = list(val)
    return d


def config_from_dict(study: str, data: dict, **overrides) -> StudyConfig:
    """Study defaults, updated by `data`, updated by keyword overrides."""
    base = default_config(study)
    known = set(asdict(base))
    bad = set(data) - known
    if bad:
        raise ValueError(f"unknown config fields: {sorted(bad)}")
    merged = {**data, **overrides}
    return replace(base, **merged)
