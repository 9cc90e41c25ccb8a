"""Experiment specs, metrics files, determinism, and the CLI surface."""

import copy
import csv
import json
import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from pbacc import harness
from pbacc.cli import main
from pbacc.harness import SpecError, _rewrite, load_spec, run_experiment, spec_from_dict
from pbacc.interpolation import make_plan
from pbacc.privacy import LeakageReport, PrivacyConfig, worst_case_leakage
from pbacc.protocols import StragglerModel


def small_spec(tmp_path, **overrides):
    raw = {
        "scheme": "dldd_secure_aggregation",
        "seed": 11,
        "rounds": 2,
        "network": {"nodes": 8},
        "plan": {"K": 1},
        "privacy": {"sigma_n": [0.5, 5.0], "T": 2, "c": 2, "s": 1.0, "epsilon": 1.0},
        "training": {"lr": 0.1, "batch_size": 8, "samples": 64, "features": 2,
                     "hidden": [4], "activation": "tanh"},
        "output": str(tmp_path / "out"),
    }
    raw.update(overrides)
    return raw


def test_spec_requires_scheme():
    with pytest.raises(SpecError):
        spec_from_dict({"rounds": 3})
    with pytest.raises(SpecError):
        spec_from_dict({"scheme": "bogus"})


def test_spec_rejects_empty_sweep_list(tmp_path):
    raw = small_spec(tmp_path)
    raw["privacy"]["sigma_n"] = []
    with pytest.raises(SpecError):
        spec_from_dict(raw)


def test_spec_rejects_unknown_loss(tmp_path):
    raw = small_spec(tmp_path)
    raw["training"]["loss"] = "hinge"
    with pytest.raises(SpecError):
        spec_from_dict(raw)


@pytest.mark.parametrize("section,key,value", [
    ("plan", "K", 0),
    ("training", "batch_size", 0),
    ("training", "epochs_per_round", 0),
    ("training", "lr", -1.0),
], ids=["K", "batch_size", "epochs_per_round", "lr"])
def test_spec_rejects_bad_training_field(tmp_path, section, key, value):
    raw = small_spec(tmp_path, scheme="dlcd_secure_training")
    raw[section][key] = value
    with pytest.raises(SpecError, match=f"{section}.{key}"):
        spec_from_dict(raw)


@pytest.mark.parametrize("scheme,section,key,value,name", [
    ("dlcd_secure_training", "plan", "K", 65, "plan.K"),  # 64 samples
    ("dldd_secure_training", "plan", "K", 2, "plan.K"),  # the model sits at one data node
    ("dldd_secure_aggregation", "network", "straggler",
     {"kind": "drop_slowest", "count": 8}, "network.straggler"),
    ("uncoded_dldd", "network", "straggler",
     {"kind": "drop_slowest", "count": -1}, "network.straggler"),
    ("dlcd_secure_training", "network", "straggler",
     {"kind": "random_delay", "keep_n": 9}, "network.straggler"),
    ("dldd_secure_training", "network", "straggler",
     {"kind": "random_delay", "keep_n": 0}, "network.straggler"),
    ("dldd_secure_aggregation", None, "strategy", "bogus", "strategy"),
    ("dldd_secure_aggregation", None, "strategy", "random",
     r"^strategy must be one of \('exhaustive', 'greedy'\), got 'random'$"),
    ("uncoded_dldd", "training", "agg", "mode", "training.agg"),
    ("dldd_secure_aggregation", "training", "agg", "mode", "training.agg"),
    # the secure training schemes never read the aggregation rule
    ("dlcd_secure_training", "training", "agg", "coord_median",
     r"^training\.agg: dlcd_secure_training .* got 'coord_median'$"),
    ("dldd_secure_training", "training", "agg", "coord_median",
     r"^training\.agg: dldd_secure_training .* got 'coord_median'$"),
    ("dldd_secure_aggregation", "privacy", "c", [2, 9], "privacy.c"),
    ("dldd_secure_aggregation", "privacy", "s", 0.0, "privacy.s"),
    ("dldd_secure_training", "privacy", "epsilon", -1.0, "privacy.epsilon"),
    ("uncoded_dldd", "training", "features", 0, "training.features"),
    ("dlcd_secure_training", "training", "hidden", [4, 0], "training.hidden"),
    # two_clusters labels are not (time, event) pairs
    ("uncoded_dldd", "training", "loss", "cox_ph", "training.loss cox_ph needs"),
    ("dldd_secure_aggregation", "training", "loss", "cox_ph", "training.loss cox_ph needs"),
    # survival targets are (time, event) pairs: neither class labels nor regression targets
    ("uncoded_dldd", "training", "dataset", "survival", "training.dataset survival needs"),
    ("uncoded_dldd", None, "training", {"dataset": "survival", "loss": "mse", "samples": 64},
     "training.dataset survival needs"),
    ("dlcd_secure_training", None, "training",
     {"dataset": "survival", "loss": "mse", "features": 3, "samples": 64},
     "training.dataset survival needs"),
], ids=["K_above_samples", "K_not_one", "drop_count_high", "drop_count_negative", "keep_n_high",
        "keep_n_zero", "strategy", "strategy_random", "agg_uncoded", "agg_coded",
        "agg_median_dlcd", "agg_median_dldd_training", "c_above_nodes", "s",
        "epsilon", "features", "hidden", "cox_on_two_clusters", "cox_on_two_clusters_coded",
        "survival_softmax", "survival_mse", "survival_mse_three_features"])
def test_spec_rejects_bad_field_before_writing(tmp_path, scheme, section, key, value, name):
    raw = small_spec(tmp_path, scheme=scheme)
    (raw if section is None else raw[section])[key] = value
    with pytest.raises(SpecError, match=name):
        run_experiment(spec_from_dict(raw))
    assert not (tmp_path / "out").exists()


def test_run_experiment_rejects_a_bad_override_before_writing(tmp_path):
    spec = spec_from_dict(small_spec(tmp_path))
    with pytest.raises(SpecError, match="strategy"):
        run_experiment(replace(spec, strategy="bogus"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("attr, value, name", [
    ("strategy", "bogus", "strategy"),
    ("seed", -1, "seed"),
    ("n_nodes", 1, "network.nodes"),
    ("hidden", (4, 0), "training.hidden"),
    ("c_values", (2, 9), "privacy.c"),
    ("scheme", "bogus", "unknown scheme 'bogus'"),
    # the field parse runs too: a replaced value is refused as in a file
    ("seed", 2.5, "seed: need an integer"),
    ("lr", float("inf"), "training.lr: need a finite number"),
    ("sigma_n_values", (), "privacy.sigma_n: lists must be nonempty"),
    ("straggler", StragglerModel(kind="none", keep_n=5),
     "network.straggler: key 'keep_n' has no effect under kind 'none'"),
], ids=["strategy", "seed", "nodes", "hidden", "c", "scheme", "seed_fraction", "lr_inf",
        "sigma_n_empty", "straggler_unread"])
def test_a_spec_is_frozen_and_a_replaced_field_is_checked(tmp_path, attr, value, name):
    spec = spec_from_dict(small_spec(tmp_path))
    with pytest.raises(FrozenInstanceError):
        setattr(spec, attr, value)
    with pytest.raises(SpecError, match=f"^{re.escape(name)}"):
        replace(spec, **{attr: value})


def test_replace_parses_a_value_as_a_file_does(tmp_path):
    spec = spec_from_dict(small_spec(tmp_path))
    variant = replace(spec, seed=12, rounds=3.0, hidden=[4, 3.0])
    assert (variant.seed, variant.rounds, variant.hidden) == (12, 3, (4, 3))
    assert type(variant.rounds) is int and spec.seed == 11
    straggler = StragglerModel(kind="drop_slowest", count=2, seed=3)
    assert replace(spec, straggler=straggler).straggler == straggler


def _two_cell_run(tmp_path) -> tuple:
    """A written two-cell run (N=40, c in {2, 12}) and its four files' bytes."""
    raw = small_spec(tmp_path, network={"nodes": 40})
    raw["privacy"] |= {"sigma_n": 1.0, "c": [2, 12]}
    spec = spec_from_dict(raw)
    run_experiment(spec)
    files = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
    assert sorted(files) == ["model_cell0.bin", "model_cell1.bin", "rounds.csv",
                             "summary.json"]
    return spec, files


def _count_runs(monkeypatch, fail_at: int | None = None) -> list:
    """Patch ``harness.run_scheme`` to log its calls, raising at call ``fail_at``."""
    calls, run_scheme = [], harness.run_scheme

    def counted(*args):
        calls.append(args)
        if len(calls) - 1 == fail_at:
            raise RuntimeError("training failed")
        return run_scheme(*args)

    monkeypatch.setattr(harness, "run_scheme", counted)
    return calls


def test_a_rerun_over_the_exhaustive_budget_fails_before_training(tmp_path, monkeypatch):
    spec, files = _two_cell_run(tmp_path)
    calls = _count_runs(monkeypatch)
    # cell 0's C(40, 2) subsets are within the budget, cell 1's C(40, 12) are not
    with pytest.raises(SpecError, match=r"^strategy: exhaustive search over C\(40,12\)"):
        run_experiment(replace(spec, seed=12, strategy="exhaustive"))
    assert calls == []
    assert {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()} == files


def test_a_run_that_fails_in_a_later_cell_writes_nothing(tmp_path, monkeypatch):
    spec, files = _two_cell_run(tmp_path)
    calls = _count_runs(monkeypatch, fail_at=1)
    with pytest.raises(RuntimeError, match="training failed"):
        run_experiment(replace(spec, seed=12))
    assert len(calls) == 2
    assert {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()} == files
    # the same rerun, not failing, rewrites every file
    run_experiment(replace(spec, seed=12))
    rerun = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()}
    assert rerun.keys() == files.keys()
    assert all(rerun[name] != blob for name, blob in files.items())


@pytest.fixture
def fresh_memo():
    """An empty leakage memo, emptied again afterwards, so a test sees only its searches."""
    harness._searched.cache_clear()
    yield
    harness._searched.cache_clear()


def _count_searches(monkeypatch) -> list:
    """Patch ``harness.worst_case_leakage`` to log the privacy config of each search."""
    calls, search = [], harness.worst_case_leakage

    def counted(plan, cfg, strategy):
        calls.append(cfg)
        return search(plan, cfg, strategy=strategy)

    monkeypatch.setattr(harness, "worst_case_leakage", counted)
    return calls


def _one_cell_spec(tmp_path):
    """``small_spec`` at sigma_n 5 alone: N=8, K=1, T=2, c=2, s=1, greedy."""
    return replace(spec_from_dict(small_spec(tmp_path)), sigma_n_values=5.0)


@pytest.mark.parametrize("attr, value", [("seed", 12), ("lr", 0.2), ("hidden", [3])])
def test_a_rerun_of_the_same_geometry_reuses_its_search(tmp_path, monkeypatch, fresh_memo,
                                                        attr, value):
    spec = spec_from_dict(small_spec(tmp_path))
    calls = _count_searches(monkeypatch)
    first = run_experiment(spec)
    assert len(calls) == 2  # one search per cell
    rerun = run_experiment(replace(spec, **{attr: value}))
    assert len(calls) == 2
    assert [cell["leakage"] for cell in rerun["cells"]] == \
        [cell["leakage"] for cell in first["cells"]]


@pytest.mark.parametrize("attr, value", [
    ("K", 2), ("T_values", 3), ("n_nodes", 9), ("shift", -3.0), ("sigma_n_values", 0.7),
    ("c_values", 1), ("s", 2.0), ("strategy", "exhaustive")])
def test_a_rerun_of_another_geometry_searches_again(tmp_path, monkeypatch, fresh_memo,
                                                    attr, value):
    spec = _one_cell_spec(tmp_path)
    calls = _count_searches(monkeypatch)
    run_experiment(spec)
    changed = replace(spec, **{attr: value})
    leakage = run_experiment(changed)["cells"][0]["leakage"]
    assert len(calls) == 2
    # the new report is the new geometry's own, as a direct search gives it
    (sigma_n,), (t_blocks,), (colluders,) = (changed.sigma_n_values, changed.T_values,
                                             changed.c_values)
    report = worst_case_leakage(
        make_plan(changed.K, t_blocks, changed.n_nodes, changed.shift),
        PrivacyConfig(K=changed.K, T=t_blocks, sigma_n=sigma_n, c=colluders, s=changed.s),
        strategy=changed.strategy)
    assert leakage == report.to_dict() | {"meets_epsilon": bool(report.i_L <= 1.0)}


def test_epsilon_sets_meets_epsilon_without_a_search(tmp_path, monkeypatch, fresh_memo):
    spec = _one_cell_spec(tmp_path)
    calls = _count_searches(monkeypatch)
    i_L = run_experiment(spec)["cells"][0]["leakage"]["i_L"]
    strict = run_experiment(replace(spec, epsilon=i_L / 2))["cells"][0]["leakage"]
    loose = run_experiment(replace(spec, epsilon=i_L * 2))["cells"][0]["leakage"]
    assert len(calls) == 1
    assert strict["meets_epsilon"] is False and loose["meets_epsilon"] is True
    assert strict | {"meets_epsilon": True} == loose


def test_a_mutated_summary_leaves_the_next_report_intact(tmp_path, fresh_memo):
    spec = _one_cell_spec(tmp_path)
    leakage = run_experiment(spec)["cells"][0]["leakage"]
    kept = copy.deepcopy(leakage)
    leakage["worst_subset"].append(99)
    leakage |= {"i_L": -1.0, "subsets_evaluated": 0, "meets_epsilon": None}
    assert run_experiment(replace(spec, seed=12))["cells"][0]["leakage"] == kept


def test_a_search_over_budget_raises_on_every_run(tmp_path, monkeypatch, fresh_memo):
    raw = small_spec(tmp_path, network={"nodes": 40}, strategy="exhaustive")
    raw["privacy"] |= {"sigma_n": 1.0, "c": 12}
    spec = spec_from_dict(raw)
    calls = _count_searches(monkeypatch)
    for attempt in range(1, 4):
        with pytest.raises(SpecError, match=r"^strategy: exhaustive search over C\(40,12\)"):
            run_experiment(replace(spec, seed=attempt))
        assert len(calls) == attempt
    assert harness._searched.cache_info().currsize == 0
    assert not (tmp_path / "out").exists()


def test_the_memo_holds_at_most_its_bound(tmp_path, monkeypatch, fresh_memo):
    spec = spec_from_dict(small_spec(tmp_path))
    bound = harness._searched.cache_info().maxsize
    calls = []

    def stub(plan, cfg, strategy):  # a search's report, without the search
        calls.append(cfg.sigma_n)
        return LeakageReport(i_L=1.0, I_L=1.0, worst_subset=(0, 1), strategy=strategy,
                             subsets_evaluated=1)

    monkeypatch.setattr(harness, "worst_case_leakage", stub)
    sigmas = [float(k) for k in range(1, bound + 11)]
    for sigma_n in sigmas:
        harness._leakage(spec, (sigma_n, 2, 2))
        assert harness._searched.cache_info().currsize <= bound
    assert harness._searched.cache_info().currsize == bound
    harness._leakage(spec, (sigmas[-1], 2, 2))  # the newest is held
    assert calls == sigmas
    harness._leakage(spec, (sigmas[0], 2, 2))  # the oldest was dropped
    assert calls == sigmas + sigmas[:1]


def test_load_spec_missing_file():
    with pytest.raises(SpecError):
        load_spec("/nonexistent/path.yaml")


def test_load_spec_rejects_invalid_yaml_and_a_directory(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("scheme: [unclosed\n")
    with pytest.raises(SpecError, match="not valid YAML"):
        load_spec(str(path))
    with pytest.raises(SpecError, match="not a file"):
        load_spec(str(tmp_path))


@pytest.mark.parametrize("section,key,value,name", [
    (None, "plan", 3, "plan"),
    (None, "network", [1], "network"),
    ("network", "straggler", 5, "network.straggler"),
    ("network", "nodes", "abc", "network.nodes"),
], ids=["plan_scalar", "network_list", "straggler_number", "nodes_text"])
def test_malformed_spec_names_its_path_and_writes_nothing(tmp_path, capsys, section, key,
                                                          value, name):
    raw = small_spec(tmp_path)
    (raw if section is None else raw[section])[key] = value
    with pytest.raises(SpecError, match=f"^{name}"):
        spec_from_dict(raw)
    spec_path = tmp_path / "bad.yaml"
    spec_path.write_text(yaml.safe_dump(raw))
    assert main(["run", str(spec_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid experiment spec: {name}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,key,value,message", [
    (None, "trainig", 0.5, "unknown key 'trainig' at the top level"),
    ("training", "lr_rate", 0.5, "unknown key 'lr_rate' in training"),
    ("network", "straggler", {"kind": "drop_slowest", "cnt": 2},
     r"^network\.straggler: unknown key 'cnt'; the keys are kind, count, keep_n, seed$"),
    ("network", "straggler", {"kind": "none", "count": 3, "keep_n": 5},
     r"^network\.straggler: key 'count' has no effect under kind 'none'$"),
    ("network", "straggler", {"kind": "none", "seed": 1},
     r"^network\.straggler: key 'seed' has no effect under kind 'none'$"),
    ("network", "straggler", {"count": 2},
     r"^network\.straggler: key 'count' has no effect under kind 'none'$"),
    ("network", "straggler", {"kind": "drop_slowest", "count": 2, "keep_n": 5},
     r"^network\.straggler: key 'keep_n' has no effect under kind 'drop_slowest'$"),
    ("network", "straggler", {"kind": "random_delay", "keep_n": 4, "count": 1},
     r"^network\.straggler: key 'count' has no effect under kind 'random_delay'$"),
], ids=["section", "section_key", "straggler_key", "straggler_none_count",
        "straggler_none_seed", "straggler_default_kind", "straggler_drop_keep_n",
        "straggler_delay_count"])
def test_spec_rejects_a_mistyped_key(tmp_path, section, key, value, message):
    raw = small_spec(tmp_path)
    (raw if section is None else raw[section])[key] = value
    with pytest.raises(SpecError, match=message):
        spec_from_dict(raw)


def test_integer_fields_reject_a_fractional_value(tmp_path):
    assert spec_from_dict(small_spec(tmp_path, rounds=8.0)).rounds == 8
    for section, key, value, name in [
            (None, "rounds", 2.7, "rounds"),
            ("privacy", "T", [2, 1.5], "privacy.T"),
            ("training", "hidden", [4, 2.5], "training.hidden"),
            ("network", "straggler", {"kind": "drop_slowest", "count": 1.5},
             "network.straggler")]:
        raw = small_spec(tmp_path)
        (raw if section is None else raw[section])[key] = value
        with pytest.raises(SpecError, match=f"^{name}: need an integer"):
            spec_from_dict(raw)


def test_a_colliding_or_nan_noise_shift_fails_before_writing(tmp_path):
    # T=2 clears the data node at shift 0, T=1 puts a noise node on it
    raw = small_spec(tmp_path, plan={"K": 1, "shift": 0.0})
    raw["privacy"] |= {"sigma_n": 1.0, "T": [2, 1]}
    with pytest.raises(SpecError, match="plan.shift"):
        run_experiment(spec_from_dict(raw))
    assert not (tmp_path / "out").exists()
    raw["plan"]["shift"] = float("nan")
    with pytest.raises(SpecError, match="^plan.shift: need a finite number, got nan"):
        spec_from_dict(raw)


@pytest.mark.parametrize("section,key", [
    ("training", "lr"), ("training", "separation"), ("privacy", "sigma_n"),
    ("privacy", "s"), ("privacy", "epsilon"), ("plan", "shift"),
], ids=["lr", "separation", "sigma_n", "s", "epsilon", "shift"])
def test_float_fields_reject_an_infinite_value_before_writing(tmp_path, section, key):
    raw = small_spec(tmp_path)
    raw[section][key] = float("inf")
    with pytest.raises(SpecError, match=rf"^{section}\.{key}: need a finite number, got inf"):
        run_experiment(spec_from_dict(raw))
    assert not (tmp_path / "out").exists()


def test_negative_seeds_are_refused_by_field_before_writing(tmp_path, capsys):
    with pytest.raises(SpecError, match=r"^seed must be >= 0, got -3"):
        spec_from_dict(small_spec(tmp_path, seed=-3))
    raw = small_spec(tmp_path)
    raw["network"]["straggler"] = {"kind": "drop_slowest", "count": 1, "seed": -1}
    with pytest.raises(SpecError, match=r"^network\.straggler: need a straggler seed >= 0"):
        spec_from_dict(raw)
    # a command-line seed is checked before the output directory is made
    spec_path = tmp_path / "exp.yaml"
    spec_path.write_text(yaml.safe_dump(small_spec(tmp_path)))
    assert main(["run", str(spec_path), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert "seed must be >= 0" in captured.err
    assert not (tmp_path / "out").exists()
    # the codec's noise seed is checked where it is built, and named
    assert main(["roundtrip", "--N", "8", "--K", "1", "--T", "1", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: need a noise seed >= 0, got -1\n"


def test_readme_example_spec_is_valid():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    spec = spec_from_dict(yaml.safe_load(blocks[0]))
    assert spec.scheme == "dldd_secure_aggregation" and spec.n_nodes == 50


@pytest.mark.parametrize("argv, named", [
    (["roundtrip", "--N", "8", "--K", "1", "--T", "1", "--sigma", "-1"], "sigma_n"),
    (["roundtrip", "--N", "8", "--K", "1", "--T", "1", "--extent", "0"], "extent"),
    (["nodes", "--N", "1", "--K", "1", "--T", "0"], "need N >= 2 workers"),
    (["leakage", "--N", "1", "--K", "1", "--T", "0", "--sigma", "1", "--c", "1"],
     "need N >= 2 workers"),
    (["roundtrip", "--N", "1", "--K", "1", "--T", "0"], "need N >= 2 workers"),
    (["leakage", "--N", "8", "--K", "1", "--T", "2", "--sigma", "1", "--c", "1",
      "--strategy", "random"], "--strategy: invalid choice: 'random'"),
    # refused as an argument, before the spec file is looked for
    (["run", "experiment.yaml", "--strategy", "random"], "--strategy: invalid choice: 'random'"),
], ids=["negative_sigma", "zero_extent", "one_node", "leakage_one_node", "roundtrip_one_node",
        "strategy_random", "run_strategy_random"])
def test_cli_reports_a_bad_argument_on_one_line(capsys, argv, named):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert named in captured.err


def test_cli_help_lists_two_strategies_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["leakage", "-h"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "--strategy {exhaustive,greedy}" in text
    assert "--samples" not in text and "--seed" not in text


@pytest.mark.parametrize("argv, name", [
    (["nodes", "--N", "4", "--K", "1", "--T", "1", "--shift", "nan"], "shift"),
    (["roundtrip", "--N", "8", "--K", "1", "--T", "2", "--sigma", "nan"], "sigma_n"),
    (["leakage", "--N", "8", "--K", "1", "--T", "2", "--sigma", "nan", "--c", "1"], "sigma_n"),
    (["leakage", "--N", "8", "--K", "1", "--T", "2", "--sigma", "1", "--c", "1",
      "--epsilon", "nan"], "epsilon"),
    (["leakage", "--N", "8", "--K", "1", "--T", "2", "--sigma", "1", "--c", "1",
      "--s", "inf"], "s"),
], ids=["nodes_shift", "roundtrip_sigma", "leakage_sigma", "leakage_epsilon", "leakage_s"])
def test_cli_refuses_a_non_finite_value_by_name(capsys, argv, name):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert re.match(rf"error: need a finite {name}\b", captured.err)


def test_cli_reports_an_allocation_failure_on_one_line(capsys):
    # 2^58 float64 values are 2 EiB, past any address space: the allocation
    # fails at once, before anything is touched
    assert main(["roundtrip", "--N", "4", "--K", "1", "--T", "1", "--extent", str(2 ** 58)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: out of memory: ")


def test_run_experiment_writes_metrics(tmp_path):
    spec = spec_from_dict(small_spec(tmp_path))
    summary = run_experiment(spec)
    assert len(summary["cells"]) == 2  # sigma sweep

    with open(tmp_path / "out" / "rounds.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * spec.rounds
    # every record carries the resolved configuration
    assert {r["sigma_n"] for r in rows} == {"0.5", "5.0"}
    assert all(r["scheme"] == "dldd_secure_aggregation" for r in rows)
    assert all(r["N"] == "8" and r["K"] == "1" and r["T"] == "2" for r in rows)

    with open(tmp_path / "out" / "summary.json") as fh:
        loaded = json.load(fh)
    assert loaded["config"]["seed"] == 11
    cells = loaded["cells"]
    assert cells[0]["leakage"]["strategy"] == "greedy"
    # more encoder noise, less leakage
    assert cells[0]["leakage"]["i_L"] > cells[1]["leakage"]["i_L"]
    assert cells[0]["messages_per_round"] == 2 * 8 + 8 * 7

    from pbacc.codec import read_tensor
    model = read_tensor(str(tmp_path / "out" / "model_cell0.bin"))
    assert model.shape == (spec_size_of(loaded),)


def spec_size_of(summary) -> int:
    cfg = summary["config"]["training"]
    sizes = [cfg["features"]] + cfg["hidden"] + [2]
    return sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "a"
    raw = small_spec(tmp_path, output=str(out))
    first = run_experiment(spec_from_dict(raw))
    captured = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(captured) == ["model_cell0.bin", "model_cell1.bin", "rounds.csv",
                                "summary.json"]
    # a rerun rewrites the files in place: over themselves, over longer
    # files and over shorter ones it leaves exactly a fresh run's bytes
    for stale in (lambda blob: blob, lambda blob: blob + b"stale tail\n" * 50,
                  lambda blob: blob[:len(blob) // 2]):
        for name, blob in captured.items():
            (out / name).write_bytes(stale(blob))
        assert run_experiment(spec_from_dict(raw)) == first
        for name, blob in captured.items():
            assert (out / name).read_bytes() == blob, name


@pytest.mark.parametrize("mode", ["wb", "w"])
def test_a_failed_rewrite_leaves_no_stale_tail(tmp_path, mode):
    path = tmp_path / "out.bin"
    path.write_bytes(b"the old contents, longer than the new\n" * 20)
    with pytest.raises(RuntimeError, match="mid-write"):
        with _rewrite(str(path), mode) as fh:
            fh.write(b"new" if mode == "wb" else "new")
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"new"
    with _rewrite(str(tmp_path / "absent.bin"), mode) as fh:   # created if absent
        fh.write(b"made" if mode == "wb" else "made")
    assert (tmp_path / "absent.bin").read_bytes() == b"made"


def test_sigma_sweep_emits_strictly_safer_rows(tmp_path):
    raw = small_spec(tmp_path, output=str(tmp_path / "sweep"))
    raw["privacy"]["sigma_n"] = [10, 50, 100, 200, 400]
    summary = run_experiment(spec_from_dict(raw))
    leaks = [cell["leakage"]["i_L"] for cell in summary["cells"]]
    assert len(leaks) == 5
    assert all(a > b for a, b in zip(leaks, leaks[1:]))


def test_dlcd_secure_training_runs_cox_with_event_free_batches(tmp_path):
    # K=1 makes every censored sample an event-free batch of its own
    raw = small_spec(tmp_path, scheme="dlcd_secure_training", rounds=1,
                     network={"nodes": 4}, privacy={"sigma_n": 0.1, "T": 1})
    raw["training"] = {"dataset": "survival", "loss": "cox_ph", "samples": 40,
                       "features": 3, "hidden": [4], "lr": 0.05}
    summary = run_experiment(spec_from_dict(raw))
    assert all(np.isfinite(cell["final_loss"]) for cell in summary["cells"])


def test_seed_changes_outputs(tmp_path):
    base = run_experiment(spec_from_dict(small_spec(tmp_path, output=str(tmp_path / "c"))))
    other = run_experiment(spec_from_dict(small_spec(tmp_path, output=str(tmp_path / "d"),
                                                     seed=12)))
    losses = [cell["final_loss"] for cell in base["cells"]]
    other_losses = [cell["final_loss"] for cell in other["cells"]]
    assert losses != other_losses


def test_cli_nodes_prints_families(capsys):
    assert main(["nodes", "--N", "8", "--K", "2", "--T", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["data_nodes"]) == 2
    assert len(payload["noise_nodes"]) == 2
    assert len(payload["encoder_nodes"]) == 8
    plan = make_plan(2, 2, 8)
    assert payload["data_nodes"] + payload["noise_nodes"] == plan.alphas.tolist()
    assert payload["encoder_nodes"] == plan.betas.tolist()


def test_cli_leakage_reports(capsys):
    code = main(["leakage", "--N", "12", "--K", "1", "--T", "4", "--sigma", "2.0",
                 "--c", "2", "--strategy", "exhaustive"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["i_L"] >= 0.0
    assert payload["config"]["N"] == 12
    assert len(payload["worst_subset"]) == 2


def test_cli_leakage_rejects_zero_colluders(capsys):
    assert main(["leakage", "--N", "12", "--K", "1", "--T", "4", "--sigma", "2.0",
                 "--c", "0"]) == 2
    assert "colluder" in capsys.readouterr().err


def test_cli_leakage_exhaustive_budget(capsys):
    assert main(["leakage", "--N", "50", "--K", "1", "--T", "30", "--sigma", "10",
                 "--c", "10", "--strategy", "exhaustive"]) == 2
    assert "greedy" in capsys.readouterr().err


def test_cli_leakage_max_s_report(capsys):
    code = main(["leakage", "--N", "12", "--K", "1", "--T", "4", "--sigma", "1.0",
                 "--c", "2", "--epsilon", "0.25", "--strategy", "exhaustive",
                 "--report-max-s"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["meets_epsilon"] is False
    assert 0.0 <= payload["max_s_for_epsilon"] < 1.0


def test_cli_roundtrip_identity(capsys):
    code = main(["roundtrip", "--N", "16", "--K", "1", "--T", "0",
                 "--function", "identity"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_relative_error"] <= 1e-12


def test_cli_roundtrip_error_decreases_with_workers(capsys):
    errs = []
    for n in ("32", "64"):
        assert main(["roundtrip", "--N", n, "--K", "4", "--T", "0",
                     "--function", "square", "--seed", "3"]) == 0
        errs.append(json.loads(capsys.readouterr().out)["max_relative_error"])
    assert errs[1] < errs[0]


def test_cli_run_executes_spec(tmp_path, capsys):
    raw = small_spec(tmp_path, scheme="uncoded_dldd", output=str(tmp_path / "run_out"))
    del raw["privacy"]
    del raw["plan"]
    spec_path = tmp_path / "exp.yaml"
    spec_path.write_text(yaml.safe_dump(raw))
    assert main(["run", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "final_loss" in out
    assert (tmp_path / "run_out" / "rounds.csv").exists()
    assert (tmp_path / "run_out" / "summary.json").exists()


def test_cli_run_rejects_invalid_spec(tmp_path, capsys):
    spec_path = tmp_path / "bad.yaml"
    spec_path.write_text(yaml.safe_dump({"scheme": "bogus"}))
    assert main(["run", str(spec_path)]) == 2
    assert "invalid experiment spec" in capsys.readouterr().err


def test_cli_run_seed_override_changes_output_dir_content(tmp_path, capsys):
    raw = small_spec(tmp_path, scheme="uncoded_dldd", output=str(tmp_path / "e"))
    del raw["privacy"]
    spec_path = tmp_path / "exp.yaml"
    spec_path.write_text(yaml.safe_dump(raw))
    assert main(["run", str(spec_path), "--seed", "99",
                 "--output-dir", str(tmp_path / "f")]) == 0
    capsys.readouterr()
    with open(tmp_path / "f" / "summary.json") as fh:
        assert json.load(fh)["config"]["seed"] == 99


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=reject)


def diverging_spec(tmp_path):
    # an MSE run (no accuracy) whose c=3 cell diverges to a non-finite loss
    # and whose c=3 > T=2 leakage bound is structurally infinite
    return {"scheme": "dldd_secure_training", "seed": 0, "rounds": 6,
            "network": {"nodes": 6}, "plan": {"K": 1},
            "privacy": {"sigma_n": 5.0, "T": 2, "c": [2, 3]},
            "training": {"loss": "mse", "hidden": [3, 4], "activation": "relu",
                         "epochs_per_round": 2, "samples": 60},
            "output": str(tmp_path / "diverged")}


def test_summary_is_strict_json_with_nulls(tmp_path):
    with np.errstate(all="ignore"):
        summary = run_experiment(spec_from_dict(diverging_spec(tmp_path)))
    loaded = _strict_json((tmp_path / "diverged" / "summary.json").read_text())
    assert loaded == summary
    finite, diverged = loaded["cells"]
    assert finite["final_accuracy"] is None and diverged["final_accuracy"] is None
    assert np.isfinite(finite["final_loss"]) and finite["diverged"] is False
    assert diverged["final_loss"] is None and diverged["diverged"] is True
    assert finite["leakage"]["reason"] is None and finite["leakage"]["i_L"] > 0
    assert diverged["leakage"]["i_L"] is None and diverged["leakage"]["I_L"] is None
    assert diverged["leakage"]["reason"] == "structural: c > T"
    assert diverged["leakage"]["meets_epsilon"] is False
    # rounds.csv keeps the raw values
    with open(tmp_path / "diverged" / "rounds.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["cell"] == "1"]
    assert rows[-1]["loss"] in ("nan", "inf") and rows[-1]["accuracy"] == "nan"


def test_cli_run_prints_null_values(tmp_path, capsys):
    path = tmp_path / "diverged.yaml"
    path.write_text(yaml.safe_dump(diverging_spec(tmp_path)))
    with np.errstate(all="ignore"):
        assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cell 1: final_loss=n/a final_accuracy=n/a i_L=n/a" in out


def test_cli_leakage_prints_strict_json_for_an_infinite_bound(capsys):
    assert main(["leakage", "--N", "10", "--K", "1", "--T", "2", "--sigma", "1.0",
                 "--c", "3", "--report-max-s"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["i_L"] is None and payload["reason"] == "structural: c > T"
    assert payload["meets_epsilon"] is False and payload["max_s_for_epsilon"] == 0.0


def _run_fresh_python(code: str, *args: str) -> None:
    """Run ``code`` in a new interpreter that imports pbacc from this tree."""
    import os
    import subprocess
    import sys

    import pbacc
    src = os.path.dirname(os.path.dirname(pbacc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code, *args], check=True, env=env,
                   stdout=subprocess.DEVNULL)


def test_import_does_not_load_scipy():
    # scipy is only the benchmark's dependency (the ``bench`` extra)
    _run_fresh_python("import sys, pbacc, pbacc.cli; assert 'scipy' not in sys.modules, "
                      "'scipy imported'")


def test_only_reading_a_spec_file_imports_yaml(tmp_path):
    # a process that reads no experiment file skips the yaml import
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(yaml.safe_dump(small_spec(tmp_path)))
    _run_fresh_python("import sys\n"
                      "from pbacc import cli, harness\n"
                      "assert cli.main(['nodes', '--N', '8', '--K', '2', '--T', '2']) == 0\n"
                      "assert cli.main(['leakage', '--N', '8', '--K', '1', '--T', '2',"
                      " '--sigma', '2', '--c', '2']) == 0\n"
                      "spec = harness.spec_from_dict({'scheme': 'uncoded_dldd', 'rounds': 1,"
                      " 'output': sys.argv[2]})\n"
                      "harness.run_experiment(spec)\n"
                      "assert 'yaml' not in sys.modules, 'yaml imported'\n"
                      "harness.load_spec(sys.argv[1])\n"
                      "assert 'yaml' in sys.modules\n",
                      str(spec_path), str(tmp_path / "run"))
