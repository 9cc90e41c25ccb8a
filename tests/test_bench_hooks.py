"""The benchmark's own hooks must keep working against the library.

The traced run patches pbacc by name, so every name must still resolve; and
the op and check of each workload that reads shares or runs a coded runner
must pass on the current code.
"""

import importlib.util
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", ["coded_training", "secure_aggregation", "codec_bulk"])
def test_workload_op_passes_its_check(tmp_path, name):
    # training: exact message counts, a finite loss and a byte-identical rerun;
    # codec_bulk: decoded shape and error under the ceiling
    workload = _load("workloads").WORKLOADS[name](seed=1, out_dir=str(tmp_path))
    inp = workload.inputs(0)
    workload.check(inp, workload.op(inp))
    workload.finish_checks()
