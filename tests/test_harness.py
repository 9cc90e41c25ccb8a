"""Experiment specs, metrics files, determinism, and the CLI surface."""

import csv
import json

import numpy as np
import pytest
import yaml

from pbacc.cli import main
from pbacc.harness import SpecError, load_spec, run_experiment, spec_from_dict
from pbacc.interpolation import make_plan
from pbacc.privacy import PrivacyConfig, worst_case_leakage


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
    ("uncoded_dldd", "training", "agg", "mode", "training.agg"),
    ("dldd_secure_aggregation", "training", "agg", "mode", "training.agg"),
    ("dldd_secure_aggregation", "privacy", "c", [2, 9], "privacy.c"),
    ("dldd_secure_aggregation", "privacy", "s", 0.0, "privacy.s"),
    ("dldd_secure_training", "privacy", "epsilon", -1.0, "privacy.epsilon"),
    ("uncoded_dldd", "training", "features", 0, "training.features"),
    ("dlcd_secure_training", "training", "hidden", [4, 0], "training.hidden"),
], ids=["K_above_samples", "K_not_one", "drop_count_high", "drop_count_negative", "keep_n_high",
        "keep_n_zero", "strategy", "agg_uncoded", "agg_coded", "c_above_nodes", "s",
        "epsilon", "features", "hidden"])
def test_spec_rejects_bad_field_before_writing(tmp_path, scheme, section, key, value, name):
    raw = small_spec(tmp_path, scheme=scheme)
    (raw if section is None else raw[section])[key] = value
    with pytest.raises(SpecError, match=name):
        run_experiment(spec_from_dict(raw))
    assert not (tmp_path / "out").exists()


def test_run_experiment_rejects_a_bad_override_before_writing(tmp_path):
    spec = spec_from_dict(small_spec(tmp_path))
    with pytest.raises(SpecError, match="strategy"):
        run_experiment(spec, strategy="bogus")
    assert not (tmp_path / "out").exists()


def test_load_spec_missing_file():
    with pytest.raises(SpecError):
        load_spec("/nonexistent/path.yaml")


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
    raw = small_spec(tmp_path, output=str(tmp_path / "a"))
    first = run_experiment(spec_from_dict(raw))
    captured = {name: (tmp_path / "a" / name).read_bytes()
                for name in ("rounds.csv", "summary.json")}
    second = run_experiment(spec_from_dict(raw))
    assert first == second
    for name, blob in captured.items():
        assert (tmp_path / "a" / name).read_bytes() == blob


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


def test_cli_max_s_solves_against_the_printed_search(capsys):
    # the amplitude must come from the same random draws (samples, seed) as
    # the printed i_L, not from the solver's own default draws
    argv = ["leakage", "--N", "12", "--K", "1", "--T", "4", "--sigma", "1.0", "--c", "2",
            "--epsilon", "0.25", "--strategy", "random", "--samples", "3", "--seed", "3",
            "--report-max-s"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    s_max = payload["max_s_for_epsilon"]
    plan = make_plan(1, 4, 12)

    def i_L(s):
        config = PrivacyConfig(K=1, T=4, sigma_n=1.0, c=2, s=s)
        return worst_case_leakage(plan, config, strategy="random", samples=3, seed=3).i_L

    assert payload["i_L"] == i_L(1.0) > 0.25
    assert i_L(s_max) <= 0.25 < i_L(1.001 * s_max)


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
