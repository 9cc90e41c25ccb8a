"""Experiment configuration, orchestration and metrics emission.

An experiment file is YAML (nested key-value).  The privacy section accepts
scalars or sweep lists for sigma_n, T and c; the cartesian product of the
sweep lists defines the experiment cells.  Per-round metrics go to a CSV
table (one record per round, carrying the full resolved configuration) and
per-cell results to a JSON summary.  All randomness derives from one root
seed, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import learners, protocols
from .codec import write_tensor
from .interpolation import DEFAULT_NOISE_SHIFT, make_plan
from .privacy import GREEDY, STRATEGIES, PrivacyConfig, worst_case_leakage
from .protocols import (
    CENTRALIZED_SCHEMES,
    CODED_SCHEMES,
    DLCD_SECURE_TRAINING,
    DLDD_SECURE_TRAINING,
    NetworkConfig,
    SchemeConfig,
    StragglerModel,
    run_scheme,
)


class SpecError(ValueError):
    """Invalid experiment specification."""


def _as_list(value) -> list:
    if isinstance(value, list):
        if not value:
            raise SpecError("sweep lists must be nonempty")
        return value
    return [value]


def _list_of(kind: Callable) -> Callable:
    return lambda value: [kind(v) for v in _as_list(value)]


def _as_given(value):
    return value


def _straggler(value) -> StragglerModel:
    value = value or {"kind": "none"}
    if isinstance(value, str):
        value = {"kind": value}
    return StragglerModel(kind=value.get("kind", "none"), count=int(value.get("count", 0)),
                          keep_n=int(value.get("keep_n", 0)), seed=int(value.get("seed", 0)))


class _Field(NamedTuple):
    section: str | None        # YAML section; None for a top-level key
    key: str                   # YAML key within the section
    attr: str                  # ExperimentSpec attribute
    parse: Callable            # YAML value -> attribute value
    default: object            # YAML value used when the key is absent
    column: str | None         # rounds.csv column; None when not written there
    coded_only: bool = False   # column left blank for uncoded schemes


#: Every spec field except ``scheme``, in rounds.csv column order.  The
#: sweep fields (T, sigma_n, c) hold lists in the spec; their columns carry
#: the value of the row's cell.
_FIELDS = (
    _Field("network", "nodes", "n_nodes", int, 8, "N"),
    _Field("plan", "K", "K", int, 1, "K", True),
    _Field("privacy", "T", "T_values", _list_of(int), 0, "T", True),
    _Field("privacy", "sigma_n", "sigma_n_values", _list_of(float), 0.0, "sigma_n", True),
    _Field("privacy", "c", "c_values", _list_of(int), 1, "c", True),
    _Field("privacy", "s", "s", float, 1.0, "s", True),
    _Field("privacy", "epsilon", "epsilon", float, 1.0, "epsilon", True),
    _Field("plan", "shift", "shift", float, DEFAULT_NOISE_SHIFT, "shift", True),
    _Field("training", "lr", "lr", float, 0.05, "lr"),
    _Field("training", "batch_size", "batch_size", int, 10, "batch_size"),
    _Field("training", "epochs_per_round", "epochs_per_round", int, 1, "epochs_per_round"),
    _Field(None, "rounds", "rounds", int, 10, "rounds"),
    _Field(None, "seed", "seed", int, 0, "seed"),
    _Field(None, "strategy", "strategy", _as_given, GREEDY, "strategy"),
    _Field("training", "loss", "loss", _as_given, learners.SOFTMAX_CE, "loss_kind"),
    _Field("training", "agg", "agg_rule", _as_given, learners.FEDAVG, "agg_rule"),
    _Field("training", "dataset", "dataset", _as_given, "two_clusters", "dataset"),
    _Field("training", "samples", "samples", int, 400, "samples"),
    _Field("training", "features", "features", int, 2, "features"),
    _Field("training", "hidden", "hidden", _list_of(int), [8], "hidden"),
    _Field("training", "activation", "activation", _as_given, learners.TANH, "activation"),
    _Field("training", "separation", "separation", float, 3.0, "separation"),
    _Field("network", "straggler", "straggler", _straggler, None, None),
    _Field(None, "output", "output_dir", str, "results", None),
)

#: Spec attributes swept over, in the order of a cell's (sigma_n, T, c) tuple.
_SWEEP_ATTRS = ("sigma_n_values", "T_values", "c_values")

ROUND_COLUMNS = [
    "scheme", "cell", *(f.column for f in _FIELDS if f.column),
    "round", "loss", "accuracy",
    "messages", "elements", "encode_ops", "encode_elements",
    "decode_ops", "decode_elements", "train_ops", "train_elements",
]


@dataclass
class ExperimentSpec:
    scheme: str
    seed: int
    rounds: int
    n_nodes: int
    straggler: StragglerModel
    K: int
    shift: float
    sigma_n_values: list[float]
    T_values: list[int]
    c_values: list[int]
    s: float
    epsilon: float
    lr: float
    batch_size: int
    epochs_per_round: int
    loss: str
    agg_rule: str
    dataset: str
    samples: int
    features: int
    hidden: list[int]
    activation: str
    separation: float
    output_dir: str
    strategy: str = GREEDY
    raw: dict = field(default_factory=dict, repr=False)


def load_spec(path: str) -> ExperimentSpec:
    if not os.path.exists(path):
        raise SpecError(f"experiment file {path!r} does not exist")
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise SpecError("experiment file must hold a mapping at the top level")
    return spec_from_dict(raw)


def spec_from_dict(raw: dict) -> ExperimentSpec:
    try:
        scheme = raw["scheme"]
    except KeyError:
        raise SpecError("missing required key 'scheme'") from None
    if scheme not in protocols.SCHEMES:
        raise SpecError(f"unknown scheme {scheme!r}; choose one of {protocols.SCHEMES}")

    sections = {None: raw} | {f.section: raw.get(f.section) or {} for f in _FIELDS if f.section}
    try:
        spec = ExperimentSpec(
            scheme=scheme, raw=raw,
            **{f.attr: f.parse(sections[f.section].get(f.key, f.default)) for f in _FIELDS})
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(str(exc)) from None
    _validate(spec)
    return spec


def _validate(spec: ExperimentSpec) -> None:
    if spec.rounds < 1:
        raise SpecError("rounds must be >= 1")
    if spec.n_nodes < 2:
        raise SpecError("need at least two nodes")
    if spec.loss not in learners.LOSSES:
        raise SpecError(f"unknown loss {spec.loss!r}")
    if spec.activation not in learners.ACTIVATIONS:
        raise SpecError(f"unknown activation {spec.activation!r}")
    if spec.dataset not in ("two_clusters", "survival"):
        raise SpecError(f"unknown dataset {spec.dataset!r}")
    if spec.samples < spec.n_nodes:
        raise SpecError("need at least one sample per node")
    if spec.features < 1:
        raise SpecError("training.features must be >= 1")
    if any(width < 1 for width in spec.hidden):
        raise SpecError("training.hidden widths must be >= 1")
    if spec.agg_rule not in learners.AGG_RULES:
        raise SpecError(f"unknown training.agg {spec.agg_rule!r}")
    if spec.strategy not in STRATEGIES:
        raise SpecError(f"unknown strategy {spec.strategy!r}; choose one of {STRATEGIES}")
    try:
        NetworkConfig(n_nodes=spec.n_nodes, straggler=spec.straggler)
    except ValueError as exc:
        raise SpecError(f"network.straggler: {exc}") from None
    if spec.batch_size < 1:
        raise SpecError("training.batch_size must be >= 1")
    if spec.epochs_per_round < 1:
        raise SpecError("training.epochs_per_round must be >= 1")
    if not spec.lr > 0:
        raise SpecError("training.lr must be > 0")
    if spec.scheme in CODED_SCHEMES:
        if spec.K < 1:
            raise SpecError("plan.K must be >= 1")
        if any(t < 0 for t in spec.T_values):
            raise SpecError("T values must be >= 0")
        if any(sg < 0 for sg in spec.sigma_n_values):
            raise SpecError("sigma_n values must be >= 0")
        if any(c > spec.n_nodes for c in spec.c_values):
            raise SpecError("privacy.c must be <= network.nodes")
        if not spec.s > 0:
            raise SpecError("privacy.s must be > 0")
        if not spec.epsilon > 0:
            raise SpecError("privacy.epsilon must be > 0")
        if spec.scheme == DLCD_SECURE_TRAINING and spec.K > spec.samples:
            raise SpecError("plan.K must be <= training.samples")
        if spec.scheme == DLDD_SECURE_TRAINING and spec.K != 1:
            raise SpecError(f"plan.K must be 1 for {DLDD_SECURE_TRAINING}, which encodes "
                            "the model at a single data node")


def _make_dataset(spec: ExperimentSpec) -> tuple[np.ndarray, np.ndarray]:
    data_seed = protocols._derived_seed(spec.seed, 1)
    if spec.dataset == "two_clusters":
        x, y = learners.make_two_clusters(spec.samples, spec.features,
                                          spec.separation, seed=data_seed)
        if spec.loss == learners.MSE:
            return x, x.copy()
        return x, y
    x, targets = learners.make_survival(spec.samples, spec.features, seed=data_seed)
    return x, targets


def _output_width(spec: ExperimentSpec) -> int:
    if spec.loss == learners.SOFTMAX_CE:
        return 2
    if spec.loss == learners.COX_PH:
        return 1
    return spec.features


def run_experiment(spec: ExperimentSpec, output_dir: str | None = None,
                   seed: int | None = None, strategy: str | None = None) -> dict:
    """Run every sweep cell, write rounds.csv and summary.json, return the summary."""
    if seed is not None:
        spec.seed = int(seed)
    if output_dir is not None:
        spec.output_dir = output_dir
    if strategy is not None:
        spec.strategy = strategy
    _validate(spec)

    os.makedirs(spec.output_dir, exist_ok=True)
    x, y = _make_dataset(spec)
    sizes = [spec.features] + spec.hidden + [_output_width(spec)]
    model_init = learners.init_mlp(sizes, spec.activation,
                                   seed=protocols._derived_seed(spec.seed, 2))

    coded = spec.scheme in CODED_SCHEMES
    cells = list(product(*(getattr(spec, a) for a in _SWEEP_ATTRS))) if coded else [(0.0, 0, 0)]
    data = (x, y) if spec.scheme in CENTRALIZED_SCHEMES \
        else protocols._partition(x, y, spec.n_nodes)

    round_rows: list[dict] = []
    summaries: list[dict] = []
    for cell_index, (sigma_n, t_blocks, colluders) in enumerate(cells):
        plan = make_plan(spec.K, t_blocks, spec.n_nodes, spec.shift) if coded else None
        privacy = None
        if coded and t_blocks >= 1 and sigma_n > 0 and colluders >= 1:
            privacy = PrivacyConfig(K=spec.K, T=t_blocks, sigma_n=sigma_n,
                                    c=colluders, s=spec.s, epsilon=spec.epsilon)
        scheme_cfg = SchemeConfig(
            scheme=spec.scheme, plan=plan, sigma_n=sigma_n if coded else 0.0,
            lr=spec.lr, batch_size=spec.batch_size,
            epochs_per_round=spec.epochs_per_round, rounds=spec.rounds,
            loss=spec.loss, agg_rule=spec.agg_rule)
        net_cfg = NetworkConfig(n_nodes=spec.n_nodes, straggler=spec.straggler,
                                seed=protocols._derived_seed(spec.seed, 3, cell_index))
        traces = run_scheme(scheme_cfg, net_cfg, data, model_init)

        base = _base_row(spec, cell_index, (sigma_n, t_blocks, colluders))
        for trace in traces:
            round_rows.append(base | {
                "round": trace.round_index,
                "loss": trace.loss, "accuracy": trace.accuracy,
                "messages": trace.message_count, "elements": trace.element_volume,
                "encode_ops": trace.encode_ops.count,
                "encode_elements": trace.encode_ops.elements,
                "decode_ops": trace.decode_ops.count,
                "decode_elements": trace.decode_ops.elements,
                "train_ops": trace.train_ops.count,
                "train_elements": trace.train_ops.elements,
            })

        leakage = None
        if privacy is not None:
            report = worst_case_leakage(plan, privacy, strategy=spec.strategy)
            leakage = report.to_dict() | {"meets_epsilon": bool(report.i_L <= spec.epsilon)}

        per_round = [t for t in traces if t.round_index >= 1]
        setup = [t for t in traces if t.round_index == 0]
        write_tensor(os.path.join(spec.output_dir, f"model_cell{cell_index}.bin"),
                     per_round[-1].decoded_model)
        summaries.append(base | {
            "final_loss": per_round[-1].loss,
            "final_accuracy": per_round[-1].accuracy,
            "messages_per_round": per_round[0].message_count,
            "elements_per_round": per_round[0].element_volume,
            "once_messages": setup[0].message_count if setup else 0,
            "once_elements": setup[0].element_volume if setup else 0,
            "leakage": leakage,
        })

    rounds_path = os.path.join(spec.output_dir, "rounds.csv")
    with open(rounds_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ROUND_COLUMNS)
        writer.writeheader()
        for row in round_rows:
            writer.writerow({k: _fmt(row.get(k, "")) for k in ROUND_COLUMNS})

    summary = {"config": _resolved_config(spec), "cells": summaries}
    summary_path = os.path.join(spec.output_dir, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _base_row(spec: ExperimentSpec, cell_index: int, cell: tuple) -> dict:
    """The configuration columns of one cell's rounds.csv rows."""
    coded = spec.scheme in CODED_SCHEMES
    values = {f.attr: getattr(spec, f.attr) for f in _FIELDS} | dict(zip(_SWEEP_ATTRS, cell))
    values["hidden"] = "-".join(str(h) for h in spec.hidden)
    return {"scheme": spec.scheme, "cell": cell_index} | {
        f.column: values[f.attr] if coded or not f.coded_only else ""
        for f in _FIELDS if f.column}


def _resolved_config(spec: ExperimentSpec) -> dict:
    """The spec with every default filled in, in the experiment file's layout."""
    config = {"scheme": spec.scheme}
    for f in _FIELDS:
        value = getattr(spec, f.attr)
        if isinstance(value, StragglerModel):
            value = asdict(value)
        section = config if f.section is None else config.setdefault(f.section, {})
        section[f.key] = value
    return config
