"""Byte identity of the experiment output files against committed hashes.

A small spec matrix covers the five schemes, K in {1, 2, 3}, the softmax,
MSE and Cox losses, both straggler models, one c > T cell, unequal node
dataset sizes, a short last batch and two epochs per round.  Each spec
runs through ``run_experiment`` from a scratch working directory, with the
spec name as its relative output directory (``summary.json`` records it),
and the SHA-256 of every ``rounds.csv``, ``summary.json`` and
``model_cell*.bin`` it writes must equal the value in ``golden_outputs.json``.  Float results depend on the BLAS build, so the
hashes are recorded with the numpy and BLAS versions that produced them and
the test skips on any other pair.

Regenerate the hashes (only for a declared output change) with

    PYTHONPATH=src python tests/test_output_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pbacc.harness import run_experiment, spec_from_dict

GOLDEN = Path(__file__).with_name("golden_outputs.json")

_TRAIN = {"samples": 48, "hidden": [4], "lr": 0.05, "batch_size": 8}
_COX = {"dataset": "survival", "loss": "cox_ph", "features": 3}
_MSE = {"loss": "mse", "activation": "relu"}

#: name -> spec without its output directory.
SPECS = {
    "dlcd_k1_softmax": {
        "scheme": "dlcd_secure_training", "seed": 3, "rounds": 2,
        "network": {"nodes": 6}, "plan": {"K": 1},
        "privacy": {"sigma_n": 1.0, "T": 2, "c": [1, 2]},
        "training": _TRAIN},
    "dlcd_k2_mse_drop": {
        "scheme": "dlcd_secure_training", "seed": 4, "rounds": 2,
        "network": {"nodes": 7, "straggler": {"kind": "drop_slowest", "count": 2, "seed": 1}},
        "plan": {"K": 2}, "privacy": {"sigma_n": 0.5, "T": 1, "c": 1},
        "training": _TRAIN | _MSE},
    "dlcd_k3_cox_delay": {
        "scheme": "dlcd_secure_training", "seed": 5, "rounds": 2,
        "network": {"nodes": 8, "straggler": {"kind": "random_delay", "keep_n": 6, "seed": 2}},
        "plan": {"K": 3}, "privacy": {"sigma_n": 0.3, "T": 2, "c": 2},
        "training": _TRAIN | _COX},
    "agg_k1_cox_delay": {
        "scheme": "dldd_secure_aggregation", "seed": 6, "rounds": 2,
        "network": {"nodes": 6, "straggler": {"kind": "random_delay", "keep_n": 5, "seed": 3}},
        "plan": {"K": 1}, "privacy": {"sigma_n": 2.0, "T": 2, "c": 2},
        "training": _TRAIN | _COX | {"samples": 120}},
    "agg_k2_softmax_drop_c_over_T": {
        "scheme": "dldd_secure_aggregation", "seed": 7, "rounds": 2,
        "network": {"nodes": 7, "straggler": {"kind": "drop_slowest", "count": 1, "seed": 4}},
        "plan": {"K": 2}, "privacy": {"sigma_n": 1.0, "T": 2, "c": [2, 3]},
        "training": _TRAIN},
    "agg_k3_mse": {
        "scheme": "dldd_secure_aggregation", "seed": 8, "rounds": 2,
        "network": {"nodes": 8}, "plan": {"K": 3},
        "privacy": {"sigma_n": 0.5, "T": 1, "c": 1},
        "training": _TRAIN | _MSE},
    "dldd_train_k1_softmax_drop": {
        "scheme": "dldd_secure_training", "seed": 9, "rounds": 2,
        "network": {"nodes": 6, "straggler": {"kind": "drop_slowest", "count": 1, "seed": 5}},
        "plan": {"K": 1}, "privacy": {"sigma_n": 1.0, "T": 2, "c": 2},
        "training": _TRAIN},
    "dldd_train_k1_cox": {
        "scheme": "dldd_secure_training", "seed": 10, "rounds": 2,
        "network": {"nodes": 5}, "plan": {"K": 1},
        "privacy": {"sigma_n": 0.5, "T": 1, "c": 1},
        "training": _TRAIN | _COX},
    "uncoded_dlcd_softmax": {
        "scheme": "uncoded_dlcd", "seed": 11, "rounds": 2,
        "network": {"nodes": 5}, "training": _TRAIN},
    "uncoded_dldd_cox_delay": {
        "scheme": "uncoded_dldd", "seed": 12, "rounds": 2,
        "network": {"nodes": 6, "straggler": {"kind": "random_delay", "keep_n": 4, "seed": 6}},
        "training": _TRAIN | _COX | {"samples": 120}},
    # 48 samples over 5 nodes: sizes 10, 10, 10, 9, 9, batches of 4 with a
    # short last one, two epochs per round.
    "uncoded_dldd_mse_epochs2": {
        "scheme": "uncoded_dldd", "seed": 13, "rounds": 2,
        "network": {"nodes": 5},
        "training": _TRAIN | _MSE | {"batch_size": 4, "epochs_per_round": 2}},
}


def build_versions() -> dict:
    """The numpy and BLAS versions the output bytes depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def output_hashes(name: str, work_dir: Path) -> dict[str, str]:
    """Run spec ``name`` into ``work_dir/name`` and hash the files it wrote."""
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        run_experiment(spec_from_dict(SPECS[name] | {"output": name}))
    finally:
        os.chdir(cwd)
    out_dir = work_dir / name
    files = ["rounds.csv", "summary.json"] + sorted(p.name for p in out_dir.glob("model_cell*.bin"))
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in files}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_matrix_covers_the_declared_cases():
    specs = SPECS.values()
    assert {s["scheme"] for s in specs} == {
        "dlcd_secure_training", "dldd_secure_aggregation", "dldd_secure_training",
        "uncoded_dlcd", "uncoded_dldd"}
    assert {s["plan"]["K"] for s in specs if "plan" in s} == {1, 2, 3}
    assert {s["training"].get("loss", "softmax_ce") for s in specs} == {"softmax_ce", "mse", "cox_ph"}
    assert {s["network"].get("straggler", {}).get("kind") for s in specs} == {
        None, "drop_slowest", "random_delay"}
    assert any(max(np.atleast_1d(s["privacy"]["c"])) > s["privacy"]["T"]
               for s in specs if "privacy" in s)
    # the per-node datasets of the decentralized specs, as the harness splits them
    node_runs = [(s["training"], [len(part) for part in np.array_split(
                  np.arange(s["training"]["samples"]), s["network"]["nodes"])])
                 for s in specs if s["scheme"] != "dlcd_secure_training"]
    assert any(len(set(sizes)) > 1 for _, sizes in node_runs)
    assert any(size > t["batch_size"] and size % t["batch_size"]
               for t, sizes in node_runs for size in sizes)
    assert any(s["training"].get("epochs_per_round", 1) > 1 for s in specs)
    assert set(_golden()["outputs"]) == set(SPECS)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_outputs_match_golden_hashes(name, tmp_path):
    golden = _golden()
    if golden["platform"] != build_versions():
        pytest.skip(f"hashes were recorded on {golden['platform']}, this is {build_versions()}: "
                    "float64 results depend on the numpy and BLAS build")
    with np.errstate(all="ignore"):
        got = output_hashes(name, tmp_path)
    assert got == golden["outputs"][name]


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
        outputs = {name: output_hashes(name, Path(tmp)) for name in SPECS}
    GOLDEN.write_text(json.dumps({"platform": build_versions(), "outputs": outputs}, indent=1) + "\n")
    print(f"wrote {sum(map(len, outputs.values()))} hashes of {len(outputs)} specs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
