"""The benchmark's own hooks must keep working against the library.

The traced run patches pbacc by name, so every name must still resolve; and
a workload's op and check must pass on the current code.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patch_points_resolve_to_callables():
    tracer = _load("tracer")
    assert tracer.PATCH_POINTS
    for module, attr, _, _ in tracer.PATCH_POINTS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_coded_training_op_passes_its_check(tmp_path):
    # exact message counts, a finite loss, and a byte-identical rerun
    workload = _load("workloads").CodedTraining(seed=1, out_dir=str(tmp_path))
    inp = workload.inputs(0)
    workload.check(inp, workload.op(inp))
    workload.finish_checks()
