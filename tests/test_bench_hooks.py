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


@pytest.mark.parametrize("name", ["coded_training", "secure_aggregation", "leakage_audit",
                                  "codec_bulk"])
def test_workload_op_passes_its_check(tmp_path, name):
    # training: exact message counts, a finite loss and a byte-identical rerun;
    # leakage_audit: the amplitude meets its epsilon; codec_bulk: decoded
    # shape and error under the ceiling
    workload = _load("workloads").WORKLOADS[name](seed=1, out_dir=str(tmp_path))
    inp = workload.inputs(0)
    workload.check(inp, workload.op(inp))
    workload.finish_checks()


def test_traced_op_records_spans_and_restores_every_patch_point(tmp_path):
    # coded_training: encode (bytes through the hook) and basis spans;
    # leakage_audit: the search and the amplitude solver
    tracer_mod = _load("tracer")
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in tracer_mod.PATCH_POINTS]
    workloads = _load("workloads").WORKLOADS
    for name, spans in (("coded_training", ("codec.encode", "interpolation.basis_matrix")),
                        ("leakage_audit", ("privacy.search", "privacy.amplitude"))):
        workload = workloads[name](seed=1, out_dir=str(tmp_path / name))
        inp = workload.inputs(0)
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            tracer.op = 0
            workload.check(inp, workload.op(inp))
        finally:
            tracer.op = None
            tracer.uninstall()
        totals = tracer_mod.LayerTotals(tracer.spans)
        for span in spans:
            assert totals.calls.get(span, 0) >= 1, f"{name}: {span}"
        if name == "coded_training":
            assert totals.extra["codec.encode"]["bytes"] > 0  # the hook iterated the shares
        else:
            assert totals.calls["privacy.amplitude"] == len(workload.plans)
        for module, attr, original in originals:
            assert getattr(module, attr) is original, f"{name}: {module.__name__}.{attr}"
