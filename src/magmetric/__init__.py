"""Magnitude of finite metric spaces: weightings, distances, and studies.

The package is organised around a few small value types (PointSet,
WeightingVector, DistanceReport) plus deterministic building blocks: a
counter-based RNG, Cholesky-backed magnitude solves, the magnitude distance
with analytic gradients, classical baselines, reproducible studies, and a toy
push-forward generator trained on the multiscale distance.
"""
from . import _blas  # noqa: F401 - pins numpy's and scipy's OpenBLAS first
from .core import (DimensionMismatch, PointCsvError, PointSet, RngState,
                   dedupe, pairwise_distances, read_point_csv, sample_gaussian,
                   symmetric_difference_count, union_sets, write_point_csv)
from .magnitude import (CholeskyFailure, CoincidentPoints, MagnitudeResult,
                        NeumannEstimate, ScalePoint, WeightingVector,
                        magnitude, magnitude_function, magnitude_gradient,
                        magnitude_neumann, weighting)
from .distance import (BoundCheck, CrossPolytopeResult, DistanceReport,
                       LimitProbe, ScaleSchedule, bound_check, check_triangle,
                       cross_polytope_counterexample, limit_probe,
                       mag_distance, mag_distance_gradient, multiscale_loss)
from .baselines import (KernelSpec, mmd_squared, sliced_wasserstein,
                        wasserstein_1d)
from .experiments import (StudyConfig, StudyRow, config_as_dict,
                          config_from_dict, default_config, recommend_scale,
                          run_study, study_names, summarize, summary_path,
                          write_rows, write_summary)
from .maggn import (Generator, TrainConfig, TrainLog, TrainLogRow,
                    forward, init_generator, load_checkpoint, sample,
                    save_checkpoint, train)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "DimensionMismatch", "PointCsvError", "PointSet", "RngState",
    "dedupe", "pairwise_distances", "read_point_csv", "sample_gaussian",
    "symmetric_difference_count", "union_sets", "write_point_csv",
    # magnitude
    "CholeskyFailure", "CoincidentPoints", "MagnitudeResult", "NeumannEstimate",
    "ScalePoint", "WeightingVector", "magnitude", "magnitude_function",
    "magnitude_gradient", "magnitude_neumann", "weighting",
    # distance
    "BoundCheck", "CrossPolytopeResult", "DistanceReport", "LimitProbe",
    "ScaleSchedule", "bound_check", "check_triangle",
    "cross_polytope_counterexample", "limit_probe", "mag_distance",
    "mag_distance_gradient", "multiscale_loss",
    # baselines
    "KernelSpec", "mmd_squared", "sliced_wasserstein", "wasserstein_1d",
    # experiments
    "StudyConfig", "StudyRow", "config_as_dict", "config_from_dict",
    "default_config", "recommend_scale", "run_study", "study_names",
    "summarize", "summary_path", "write_rows", "write_summary",
    # maggn
    "Generator", "TrainConfig", "TrainLog", "TrainLogRow", "forward",
    "init_generator", "load_checkpoint", "sample", "save_checkpoint", "train",
]
