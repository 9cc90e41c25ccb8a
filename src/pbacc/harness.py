"""Experiment configuration, orchestration and metrics emission.

An experiment file is YAML (nested key-value).  The field table
``_FIELDS`` is the spec's only schema: each row gives one field's YAML
path, parse, per-value check, ``ExperimentSpec`` attribute, default and
rounds.csv column, and a key that no row names is rejected.  The privacy
section accepts scalars or sweep lists for sigma_n, T and c; the
cartesian product of the sweep lists defines the experiment cells.
``ExperimentSpec`` is frozen and parses and checks its fields once, when
built (``dataclasses.replace`` builds a checked variant).  ``run_experiment``
first builds all that can fail from the spec alone (each cell's plan,
scheme config and leakage report), then trains every cell, and only then
writes the output files, so a failed run leaves an existing directory's
files as they were.  The leakage bound depends on a cell's geometry alone,
not on the seed, data or learner, so a process searches each geometry once
and keeps the report in a bounded memo (``_searched``); a cell's
``subsets_evaluated`` counts the search that produced its report.  The
cells' set-up and the searches share one memo of coding plans (``_plan``).
Drivers that run many specs in one process (seed sweeps, the benchmark,
test suites) gain; a one-shot ``pbacc run`` does not.  Per-round metrics go to
a CSV table (one record per round, carrying the full resolved
configuration) and per-cell results to a JSON summary, which is strict
JSON: a value that is NaN or infinite (the accuracy of an MSE or Cox run,
the loss of a diverged one, an infinite leakage bound) is written as null,
and a cell's ``diverged`` flag marks a non-finite final loss.  All
randomness derives from one root seed, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, fields, make_dataclass
from itertools import product
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from . import learners, protocols
from .codec import write_tensor
from .interpolation import DEFAULT_NOISE_SHIFT, CodingPlan, make_plan
from .privacy import (
    GREEDY,
    STRATEGIES,
    LeakageReport,
    PrivacyConfig,
    _finite_or_none,
    worst_case_leakage,
)
from .protocols import (
    DROP_SLOWEST,
    RANDOM_DELAY,
    NetworkConfig,
    SchemeConfig,
    StragglerModel,
    run_scheme,
)


class SpecError(ValueError):
    """Invalid experiment specification."""


def _int(value) -> int:
    """An integer; an integral float such as 8.0 is taken, 2.7 is refused."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"need an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """A finite float; an infinity or a NaN is refused."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"need a finite number, got {value!r}")
    return value


def _list_of(kind: Callable) -> Callable:
    def parse(value) -> tuple:
        values = value if isinstance(value, (list, tuple)) else [value]
        if not values:
            raise ValueError("lists must be nonempty")
        return tuple(kind(v) for v in values)
    return parse


def _straggler(value) -> StragglerModel:
    if value is None:
        return StragglerModel()
    if isinstance(value, StragglerModel):  # a replaced spec's: its set fields are its keys
        value = {f.name: getattr(value, f.name) for f in fields(value)
                 if f.name == "kind" or getattr(value, f.name) != f.default}
    if isinstance(value, str):
        value = {"kind": value}
    if not isinstance(value, dict):
        raise ValueError(f"need a kind name or a mapping, got {value!r}")
    known = [f.name for f in fields(StragglerModel)]
    unknown = [key for key in value if key not in known]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}; the keys are {', '.join(known)}")
    model = StragglerModel(**{k: v if k == "kind" else _int(v) for k, v in value.items()})
    reads = {DROP_SLOWEST: ("kind", "count", "seed"), RANDOM_DELAY: ("kind", "keep_n", "seed")}
    unread = [key for key in value if key not in reads.get(model.kind, ("kind",))]
    if unread:
        raise ValueError(f"key {unread[0]!r} has no effect under kind {model.kind!r}")
    return model


def _at_least(bound: int) -> tuple[Callable, str]:
    return (lambda v: v >= bound), f">= {bound}"


def _one_of(choices: tuple) -> tuple[Callable, str]:
    return (lambda v: v in choices), f"one of {choices}"


_POSITIVE = (lambda v: v > 0), "> 0"


class _Field(NamedTuple):
    section: str | None        # YAML section; None for a top-level key
    key: str                   # YAML key within the section
    attr: str                  # ExperimentSpec attribute
    parse: Callable            # YAML value -> attribute value
    default: object            # YAML value used when the key is absent
    column: str | None         # rounds.csv column; None when not written there
    check: tuple | None = None  # (test, requirement) every value, or list element, meets
    coded_only: bool = False   # checked, and given a column value, for coded schemes only

    @property
    def path(self) -> str:
        return self.key if self.section is None else f"{self.section}.{self.key}"


#: Every spec field except ``scheme``, in rounds.csv column order.  The
#: sweep fields (T, sigma_n, c) hold tuples in the spec; their columns carry
#: the value of the row's cell.
_FIELDS = (
    _Field("network", "nodes", "n_nodes", _int, 8, "N", _at_least(2)),
    _Field("plan", "K", "K", _int, 1, "K", _at_least(1), True),
    _Field("privacy", "T", "T_values", _list_of(_int), 0, "T", _at_least(0), True),
    _Field("privacy", "sigma_n", "sigma_n_values", _list_of(_float), 0.0, "sigma_n",
           _at_least(0), True),
    _Field("privacy", "c", "c_values", _list_of(_int), 1, "c", _at_least(0), True),
    _Field("privacy", "s", "s", _float, 1.0, "s", _POSITIVE, True),
    _Field("privacy", "epsilon", "epsilon", _float, 1.0, "epsilon", _POSITIVE, True),
    _Field("plan", "shift", "shift", _float, DEFAULT_NOISE_SHIFT, "shift", coded_only=True),
    _Field("training", "lr", "lr", _float, 0.05, "lr", _POSITIVE),
    _Field("training", "batch_size", "batch_size", _int, 10, "batch_size", _at_least(1)),
    _Field("training", "epochs_per_round", "epochs_per_round", _int, 1, "epochs_per_round",
           _at_least(1)),
    _Field(None, "rounds", "rounds", _int, 10, "rounds", _at_least(1)),
    _Field(None, "seed", "seed", _int, 0, "seed", _at_least(0)),
    _Field(None, "strategy", "strategy", str, GREEDY, "strategy", _one_of(STRATEGIES)),
    _Field("training", "loss", "loss", str, learners.SOFTMAX_CE, "loss_kind",
           _one_of(learners.LOSSES)),
    _Field("training", "agg", "agg_rule", str, learners.FEDAVG, "agg_rule",
           _one_of(learners.AGG_RULES)),
    _Field("training", "dataset", "dataset", str, "two_clusters", "dataset",
           _one_of(("two_clusters", "survival"))),
    _Field("training", "samples", "samples", _int, 400, "samples"),
    _Field("training", "features", "features", _int, 2, "features", _at_least(1)),
    _Field("training", "hidden", "hidden", _list_of(_int), [8], "hidden", _at_least(1)),
    _Field("training", "activation", "activation", str, learners.TANH, "activation",
           _one_of(learners.ACTIVATIONS)),
    _Field("training", "separation", "separation", _float, 3.0, "separation"),
    _Field("network", "straggler", "straggler", _straggler, None, None),
    _Field(None, "output", "output_dir", str, "results", None),
)

_SECTIONS = tuple(dict.fromkeys(f.section for f in _FIELDS if f.section))

#: The keys an experiment file may hold, per section (None: the top level).
_KEYS = {name: {f.key for f in _FIELDS if f.section == name} for name in (None, *_SECTIONS)}
_KEYS[None] |= {"scheme", *_SECTIONS}

#: Spec attributes swept over, in the order of a cell's (sigma_n, T, c) tuple.
_SWEEP_ATTRS = ("sigma_n_values", "T_values", "c_values")

#: rounds.csv's columns after the configuration: each RoundTrace attribute path.
_TRACE_COLUMNS = {
    "round": "round_index", "loss": "loss", "accuracy": "accuracy",
    "messages": "message_count", "elements": "element_volume",
    "encode_ops": "encode_ops.count", "encode_elements": "encode_ops.elements",
    "decode_ops": "decode_ops.count", "decode_elements": "decode_ops.elements",
    "train_ops": "train_ops.count", "train_elements": "train_ops.elements",
}
_trace_values = attrgetter(*_TRACE_COLUMNS.values())

ROUND_COLUMNS = ["scheme", "cell", *(f.column for f in _FIELDS if f.column), *_TRACE_COLUMNS]


def load_spec(path: str) -> ExperimentSpec:
    import yaml  # here, not at module level: 15-24 ms that a run without a spec file skips

    if not os.path.isfile(path):
        raise SpecError(f"experiment file {path!r} does not exist or is not a file")
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise SpecError(f"experiment file {path!r} is not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise SpecError("experiment file must hold a mapping at the top level")
    return spec_from_dict(raw)


def spec_from_dict(raw: dict) -> ExperimentSpec:
    try:
        scheme = raw["scheme"]
    except KeyError:
        raise SpecError("missing required key 'scheme'") from None
    sections = {None: raw} | {name: {} if raw.get(name) is None else raw[name]
                              for name in _SECTIONS}
    for name, section in sections.items():
        if not isinstance(section, dict):
            raise SpecError(f"{name} must be a mapping, got {section!r}")
        unknown = [key for key in section if key not in _KEYS[name]]
        if unknown:
            where = f"in {name}" if name else "at the top level"
            raise SpecError(f"unknown key {unknown[0]!r} {where}")
    return ExperimentSpec(scheme=scheme, **{f.attr: sections[f.section].get(f.key, f.default)
                                            for f in _FIELDS})


def _validate(spec: ExperimentSpec) -> None:
    """``ExperimentSpec.__post_init__``: parse each field in place, then check the spec.

    Parsing is idempotent, so a spec made by ``dataclasses.replace`` passes
    through the same parse and checks as one read from a file.
    """
    row = protocols.scheme_row(spec.scheme, SpecError)
    for f in _FIELDS:
        try:
            object.__setattr__(spec, f.attr, f.parse(getattr(spec, f.attr)))  # while built
        except (TypeError, ValueError) as exc:
            raise SpecError(f"{f.path}: {exc}") from None
    for f in _FIELDS:
        if f.check is None or f.coded_only and not row.coded:
            continue
        test, requirement = f.check
        value = getattr(spec, f.attr)
        for item in value if isinstance(value, tuple) else [value]:
            if not test(item):
                raise SpecError(f"{f.path} must be {requirement}, got {item!r}")

    # survival targets are (time, event) pairs, which only the Cox loss reads
    if spec.loss == learners.COX_PH and spec.dataset != "survival":
        raise SpecError(f"training.loss {spec.loss} needs training.dataset survival, "
                        f"got {spec.dataset!r}")
    if spec.dataset == "survival" and spec.loss != learners.COX_PH:
        raise SpecError(f"training.dataset survival needs training.loss {learners.COX_PH}, "
                        f"got {spec.loss!r}")
    if spec.samples < spec.n_nodes:
        raise SpecError("training.samples must be >= network.nodes (one sample per node)")
    try:
        NetworkConfig(n_nodes=spec.n_nodes, straggler=spec.straggler)
    except ValueError as exc:
        raise SpecError(f"network.straggler: {exc}") from None
    if row.coded:
        if any(c > spec.n_nodes for c in spec.c_values):
            raise SpecError("privacy.c must be <= network.nodes")
        if refused := row.K_rule(spec.K, spec.samples):
            raise SpecError(f"plan.K {refused}")


ExperimentSpec = make_dataclass(
    "ExperimentSpec", ["scheme", *(f.attr for f in _FIELDS)], frozen=True,
    namespace={"__module__": __name__, "__post_init__": _validate,
               "__doc__": "A checked experiment: ``scheme`` and one attribute per _FIELDS row."})


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


def run_experiment(spec: ExperimentSpec) -> dict:
    """Build and check every cell, train them all, write the outputs; return the summary."""
    coded = protocols.SCHEME_TABLE[spec.scheme].coded
    cells = list(product(*(getattr(spec, a) for a in _SWEEP_ATTRS))) if coded else [(0.0, 0, 0)]
    try:
        plans = [_plan(spec.K, t_blocks, spec.n_nodes, spec.shift) if coded else None
                 for _, t_blocks, _ in cells]
    except ValueError as exc:  # the shifted noise nodes collide with the data nodes
        raise SpecError(f"plan.shift: {exc}") from None
    try:
        scheme_cfgs = [SchemeConfig(
            scheme=spec.scheme, plan=plan, sigma_n=sigma_n if coded else 0.0,
            lr=spec.lr, batch_size=spec.batch_size,
            epochs_per_round=spec.epochs_per_round, rounds=spec.rounds,
            loss=spec.loss, agg_rule=spec.agg_rule)
            for (sigma_n, _, _), plan in zip(cells, plans)]
    except ValueError as exc:  # _validate has checked every other field SchemeConfig checks
        raise SpecError(f"training.agg: {exc}") from None
    try:
        leakages = [_leakage(spec, cell) for cell in cells]
    except ValueError as exc:  # the exhaustive search exceeds its budget
        raise SpecError(f"strategy: {exc}") from None

    x, y = _make_dataset(spec)
    model_init = learners.init_mlp([spec.features, *spec.hidden, _output_width(spec)],
                                   spec.activation, seed=protocols._derived_seed(spec.seed, 2))
    data = (x, y) if protocols.SCHEME_TABLE[spec.scheme].centralized \
        else protocols._partition(x, y, spec.n_nodes)

    round_rows: list[dict] = []
    summaries: list[dict] = []
    models: list[np.ndarray] = []
    for cell_index, (cell, scheme_cfg, leakage) in enumerate(zip(cells, scheme_cfgs, leakages)):
        net_cfg = NetworkConfig(n_nodes=spec.n_nodes, straggler=spec.straggler,
                                seed=protocols._derived_seed(spec.seed, 3, cell_index))
        traces = run_scheme(scheme_cfg, net_cfg, data, model_init)
        base = _base_row(spec, cell_index, cell)
        round_rows += [base | dict(zip(_TRACE_COLUMNS, _trace_values(t))) for t in traces]
        per_round = [t for t in traces if t.round_index >= 1]
        setup = [t for t in traces if t.round_index == 0]
        models.append(per_round[-1].decoded_model)
        final_loss = _finite_or_none(per_round[-1].loss)
        summaries.append(base | {
            "final_loss": final_loss,
            "final_accuracy": _finite_or_none(per_round[-1].accuracy),
            "diverged": final_loss is None,
            "messages_per_round": per_round[0].message_count,
            "elements_per_round": per_round[0].element_volume,
            "once_messages": setup[0].message_count if setup else 0,
            "once_elements": setup[0].element_volume if setup else 0,
            "leakage": leakage,
        })

    os.makedirs(spec.output_dir, exist_ok=True)
    for cell_index, model in enumerate(models):
        with _rewrite(os.path.join(spec.output_dir, f"model_cell{cell_index}.bin"), "wb") as fh:
            write_tensor(fh, model)
    with _rewrite(os.path.join(spec.output_dir, "rounds.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ROUND_COLUMNS)
        writer.writeheader()
        writer.writerows({k: repr(v) if isinstance(v, float) else str(v) for k, v in row.items()}
                         for row in round_rows)
    summary = {"config": _resolved_config(spec), "cells": summaries}
    with _rewrite(os.path.join(spec.output_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return summary


def _leakage(spec: ExperimentSpec, cell: tuple) -> dict | None:
    """A cell's summary.json leakage report; None for a cell without noise or colluders.

    The report is ``_searched``'s, so a process searches each cell geometry
    once and its later runs reuse the report; ``subsets_evaluated`` counts
    the search that produced it.  The dict is built afresh on every call,
    with ``meets_epsilon`` from this spec's ``epsilon``, which the search
    does not read.
    """
    sigma_n, t_blocks, colluders = cell  # an uncoded run's one cell is (0.0, 0, 0)
    if t_blocks < 1 or sigma_n <= 0 or colluders < 1:
        return None
    report = _searched(spec.K, t_blocks, spec.n_nodes, spec.shift, sigma_n, colluders, spec.s,
                       spec.strategy)
    return report.to_dict() | {"meets_epsilon": bool(report.i_L <= spec.epsilon)}


@functools.lru_cache(maxsize=256)
def _searched(K: int, T: int, N: int, shift: float, sigma_n: float, c: int, s: float,
              strategy: str) -> LeakageReport:
    """The worst-case leakage report of one cell geometry, memoized per process.

    The bound depends on the node geometry and s*sqrt(T)/sigma_n alone, so
    these arguments fix the report and a rerun that changes only the seed,
    the data or the learner reuses it.  A search that raises, such as an
    exhaustive one over its budget, stores nothing.
    """
    privacy = PrivacyConfig(K=K, T=T, sigma_n=sigma_n, c=c, s=s)
    return worst_case_leakage(_plan(K, T, N, shift), privacy, strategy=strategy)


@functools.lru_cache(maxsize=64, typed=True)
def _plan(K: int, T: int, N: int, shift: float) -> CodingPlan:
    """The coding plan of one cell geometry, built once per process (``make_plan``).

    A cell's set-up and its search share it; a plan is about 65 us to build.
    The memo is typed, so a bool or a float count is never a hit on an int's
    plan and ``make_plan`` refuses it; a plan it refuses stores nothing.
    """
    return make_plan(K, T, N, shift)


@contextmanager
def _rewrite(path: str, mode: str, **kwargs):
    """``open(path, mode, **kwargs)`` for writing, in place over the old contents.

    The file is opened without truncating it, created if absent, and cut to
    the length written when the block ends, also when it raises, so it
    holds exactly the bytes written, as after a truncating open.  A rerun
    that writes a file of the length already there then rewrites its
    blocks in place: on ext4 a truncate to zero makes the close flush the
    file's delayed allocation (about 100 us against 7 us for a small file).
    The cost is crash consistency: a crash mid-write can leave the new
    bytes followed by the old file's tail, not a short file.
    """
    with open(path, mode, opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666),
              **kwargs) as fh:
        try:
            yield fh
        finally:
            fh.truncate()


def _base_row(spec: ExperimentSpec, cell_index: int, cell: tuple) -> dict:
    """The configuration columns of one cell's rounds.csv rows."""
    coded = protocols.SCHEME_TABLE[spec.scheme].coded
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
        elif isinstance(value, tuple):
            value = list(value)
        section = config if f.section is None else config.setdefault(f.section, {})
        section[f.key] = value
    return config
