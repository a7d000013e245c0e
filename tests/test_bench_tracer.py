"""The benchmark tracer's boundaries still name attributes of the package, and
its wrappers read the solve's arguments and results as the package gives them."""
import importlib.util
from pathlib import Path

from magmetric.core import RngState, sample_gaussian
from magmetric.magnitude import SOLVER_RESIDUAL_TOL

# the modules themselves: the package's `magnitude` attribute is the function
DISTANCE = importlib.import_module("magmetric.distance")
MAGNITUDE = importlib.import_module("magmetric.magnitude")

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    tracer = _load_tracer()
    boundaries = [(path, attr) for path, attr, *_ in tracer.SPANS + tracer.COUNTERS]
    missing = [f"{path}.{attr}" for path, attr in boundaries
               if not callable(getattr(tracer._owner(path), attr, None))]
    assert boundaries
    assert not missing, missing


def test_tracer_counts_solves_and_restores_every_name():
    # the tracer reads _solve_ones' zeta (its first argument) and unpacks
    # (w, residual, condition_hint, _) from its result
    tracer_module = _load_tracer()
    boundaries = [(tracer_module._owner(path), attr)
                  for path, attr, *_ in tracer_module.SPANS + tracer_module.COUNTERS]
    before = [getattr(owner, attr) for owner, attr in boundaries]
    x = sample_gaussian(RngState(1), 30, 2)
    y = sample_gaussian(RngState(2), 25, 2, mean=1.0)
    pts = sample_gaussian(RngState(3), 12, 2)
    tracer = tracer_module.Tracer()
    tracer.install(0)
    try:
        DISTANCE.mag_distance(x, y, 0.5)
        res = MAGNITUDE.magnitude(pts, 0.5)
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in boundaries] == before
    metrics, repeat = tracer.metrics()
    assert repeat
    assert metrics["magnitude.rows"] == 55 + 30 + 25 + 12
    assert res.residual <= metrics["magnitude.residual_max"] <= SOLVER_RESIDUAL_TOL
    assert metrics["magnitude.cond_hint_max"] >= res.condition_hint >= 1.0
