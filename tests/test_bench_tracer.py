"""The benchmark tracer's boundaries still name attributes of the package."""
import importlib.util
from pathlib import Path

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
