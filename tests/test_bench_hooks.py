"""The traced benchmark run patches pbacc by name; every name must still resolve."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_patch_points_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PATCH_POINTS
    for module, attr, _, _ in tracer.PATCH_POINTS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
