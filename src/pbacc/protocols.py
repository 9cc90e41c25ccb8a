"""Deterministic in-process simulation of the coded learning schemes.

Transport is simulated: every message is a (sender, receiver, element
count, phase tag) tuple, never serialized or sent.  That makes the
per-round communication cost an exact, reproducible count instead of a
wall-clock measurement.  A round sends the same messages every time (the
sizes follow from the model size and K), so each runner builds them once
per run, as immutable :class:`MessageBlock` s with the node names formatted
once, and a :class:`RoundTrace` records a block by reference.  A block
holds rules (:class:`MessageRule`: one message from every sender to every
receiver other than itself) and explicit messages for the small per-node
runs.  Its message and element counts come from the rules in O(1), so
secure aggregation's N(N-1) share exchange is one rule, not N(N-1) tuples.
Recording is O(blocks), not O(messages); the trace's message and element
totals are running counters, and its ordered message list is expanded from
the rules only when it is read.

All schemes share one round driver, ``_run_rounds``.  It numbers the rounds,
gives each a fresh :class:`RoundTrace` and the round's fastest workers
(:func:`select_fastest`), evaluates the resulting model and records it as the
round's decoded model.  A scheme supplies only its per-round ``step``
closure: who encodes, who trains, what is sent and what is decoded from the
fastest subset.  Five schemes are provided:

* ``dlcd_secure_training``   -- master owns the data; the dataset is encoded
  once and workers compute the model execution on encoded batches; the
  master decodes the outputs, evaluates loss/gradients and steps the model.
  Everything fixed by the round's fastest subset is built once per round:
  its decode rows, its shares gathered batch-major, the ledger and the op
  counters.  A batch then does only its own arithmetic: the fastest
  workers' forwards as one stacked forward, the decode product
  (``codec._decode_rows``) and the master's step.
* ``uncoded_dlcd``           -- master partitions the plaintext dataset;
  from then on it is ``uncoded_dldd`` on those parts.
* ``dldd_secure_aggregation``-- nodes own the data, train in plaintext and
  exchange encoded model shares; aggregation happens in the coded domain,
  every holder at once over the owner axis of one owner-major
  (owner, holder, ...) share table, and the master decodes only the
  aggregate.  The table is one stacked encode of every owner's model
  (``encode_stack``), whose noise comes from one generator per round.
* ``dldd_secure_training``   -- the master encodes the global model at a
  single data node; workers run the full local training on encoded
  parameters and decoding natively averages the trained models.
* ``uncoded_dldd``           -- plain federated learning.

The three decentralized runners stack the node datasets once per run, one
stack per group of equal-size datasets (``_partition`` gives at most two),
and each round trains every group with one ``local_train`` call over the
node axis, byte-equal to training each node alone; ``dldd_secure_training``
starts node j from row j of ``shares.payloads``.  The trained models come
back as one (node, w) array of flat models.

The coded runners read ``encode``'s worker-major share array without
reordering it: worker j's share is row j of ``shares.payloads`` (column j of
the batch-major view ``dlcd_secure_training`` takes), and every decoded
result is paired with its encoder node ``plan.betas[j]``.

Rounds are numbered from 1; runners with a one-time sharing phase prepend a
setup trace with ``round_index`` 0 holding those messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .codec import NoiseSpec, _decode_basis, _decode_rows, decode, encode, encode_stack
from .interpolation import CodingPlan
from .learners import (
    FEDAVG,
    ModelParams,
    aggregate,
    backward_from_output,
    evaluate,
    forward,
    forward_with_cache,
    local_train,
    loss_and_output_grad,
    sgd_step,
)

DLCD_SECURE_TRAINING = "dlcd_secure_training"
DLDD_SECURE_AGGREGATION = "dldd_secure_aggregation"
DLDD_SECURE_TRAINING = "dldd_secure_training"
UNCODED_DLCD = "uncoded_dlcd"
UNCODED_DLDD = "uncoded_dldd"
SCHEMES = (DLCD_SECURE_TRAINING, DLDD_SECURE_AGGREGATION, DLDD_SECURE_TRAINING,
           UNCODED_DLCD, UNCODED_DLDD)
#: Schemes that run the Berrut codec and so need a coding plan.
CODED_SCHEMES = (DLCD_SECURE_TRAINING, DLDD_SECURE_AGGREGATION, DLDD_SECURE_TRAINING)
#: Schemes whose data sits at the master as one (inputs, targets) pair.
CENTRALIZED_SCHEMES = (DLCD_SECURE_TRAINING, UNCODED_DLCD)

STRAGGLER_NONE = "none"
DROP_SLOWEST = "drop_slowest"
RANDOM_DELAY = "random_delay"


class Message(NamedTuple):
    sender: str
    receiver: str
    elements: int
    phase: str


@dataclass
class OpCount:
    count: int = 0
    elements: int = 0

    def add(self, elements: int) -> None:
        self.count += 1
        self.elements += int(elements)


class MessageRule(NamedTuple):
    """One message of ``elements`` from every sender to every receiver but itself.

    The messages run sender-major, in the order of ``senders`` and then of
    ``receivers``; a name in both sends no message to itself.  Names are
    distinct within each tuple.  ``count`` is the number of messages,
    computed without building them; ``expand`` builds them.
    """

    senders: tuple[str, ...]
    receivers: tuple[str, ...]
    elements: int
    phase: str

    @property
    def count(self) -> int:
        return (len(self.senders) * len(self.receivers)
                - len(set(self.senders).intersection(self.receivers)))

    def expand(self) -> Iterator[Message]:
        return (Message(sender, receiver, self.elements, self.phase)
                for sender in self.senders for receiver in self.receivers
                if receiver != sender)


class MessageBlock:
    """An immutable run of messages, recorded as one unit.

    ``parts`` are :class:`MessageRule` s and iterables of explicit messages,
    in send order.  ``len(block)`` and ``elements``, the block's total
    element count, are summed once here, from each rule in O(1);
    iterating the block expands its parts in order.
    """

    __slots__ = ("_parts", "_count", "elements")

    def __init__(self, *parts: MessageRule | Iterable[Message]):
        self._parts = tuple(p if isinstance(p, MessageRule) else tuple(p) for p in parts)
        self._count = self.elements = 0
        for part in self._parts:
            if isinstance(part, MessageRule):
                self._count += part.count
                self.elements += part.count * part.elements
            else:
                self._count += len(part)
                self.elements += sum(m.elements for m in part)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Message]:
        for part in self._parts:
            yield from part.expand() if isinstance(part, MessageRule) else part


@dataclass
class RoundTrace:
    """Everything observable about one protocol round.

    The round's messages are recorded as blocks, by reference (one block
    object can sit in every round of a run, and more than once in one).
    ``message_count`` and ``element_volume`` are running counters kept by
    :meth:`record`; ``messages`` is the ordered list of every message,
    expanded from the blocks' rules each time it is read.
    """

    round_index: int
    encode_ops: OpCount = field(default_factory=OpCount)
    decode_ops: OpCount = field(default_factory=OpCount)
    train_ops: OpCount = field(default_factory=OpCount)
    decoded_model: np.ndarray | None = None
    loss: float = float("nan")
    accuracy: float = float("nan")
    message_count: int = field(default=0, init=False)
    element_volume: int = field(default=0, init=False)
    _blocks: list[MessageBlock] = field(default_factory=list, init=False, repr=False)

    def record(self, block: MessageBlock) -> None:
        """Record a prebuilt block of messages, in order."""
        self._blocks.append(block)
        self.message_count += len(block)
        self.element_volume += block.elements

    @property
    def messages(self) -> list[Message]:
        return [m for block in self._blocks for m in block]


@dataclass(frozen=True)
class StragglerModel:
    kind: str = STRAGGLER_NONE
    count: int = 0       # drop_slowest: how many results arrive too late
    keep_n: int = 0      # random_delay: how many results are used
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (STRAGGLER_NONE, DROP_SLOWEST, RANDOM_DELAY):
            raise ValueError(f"unknown straggler model {self.kind!r}")


@dataclass(frozen=True)
class NetworkConfig:
    n_nodes: int
    straggler: StragglerModel = StragglerModel()
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"need at least one node, got {self.n_nodes}")
        if self.straggler.kind == DROP_SLOWEST and not 0 <= self.straggler.count < self.n_nodes:
            raise ValueError("drop_slowest count must be < n_nodes")
        if self.straggler.kind == RANDOM_DELAY and not 1 <= self.straggler.keep_n <= self.n_nodes:
            raise ValueError("random_delay keep_n must be in [1, n_nodes]")


def select_fastest(net_cfg: NetworkConfig, round_index: int) -> list[int]:
    """Indices of the workers whose results the master uses this round.

    Deterministic: per-round delays are drawn from a generator keyed by the
    straggler seed and the round index.
    """
    n = net_cfg.n_nodes
    model = net_cfg.straggler
    if model.kind == STRAGGLER_NONE:
        return list(range(n))
    rng = np.random.default_rng([model.seed, round_index])
    delays = rng.random(n)
    keep = n - model.count if model.kind == DROP_SLOWEST else model.keep_n
    fastest = np.argsort(delays, kind="stable")[:keep]
    return sorted(int(i) for i in fastest)


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str
    plan: CodingPlan | None = None
    sigma_n: float = 0.0
    lr: float = 0.05
    batch_size: int = 10
    epochs_per_round: int = 1
    rounds: int = 10
    loss: str = "softmax_ce"
    agg_rule: str = FEDAVG

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.rounds < 1:
            raise ValueError(f"need rounds >= 1, got {self.rounds}")
        if self.batch_size < 1:
            raise ValueError(f"need batch_size >= 1, got {self.batch_size}")
        if self.epochs_per_round < 1:
            raise ValueError(f"need epochs_per_round >= 1, got {self.epochs_per_round}")
        if not self.lr > 0:
            raise ValueError(f"need lr > 0, got {self.lr}")
        if self.scheme in CODED_SCHEMES and self.plan is None:
            raise ValueError(f"scheme {self.scheme} needs a coding plan")
        if self.scheme == DLDD_SECURE_TRAINING and self.plan.K != 1:
            raise ValueError("secure training over decentralized data encodes the "
                             "model at a single data node; the plan must have K=1")


def _derived_seed(root: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=root, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def _noise_spec(cfg: SchemeConfig, net: NetworkConfig, *key: int) -> NoiseSpec:
    return NoiseSpec(sigma_n=cfg.sigma_n, T=cfg.plan.T,
                     seed=_derived_seed(net.seed, *key))


def _check_sizes(net: NetworkConfig, per_node_datasets=None,
                 plan: CodingPlan | None = None) -> None:
    """Reject a dataset count or a coding plan that does not match the network."""
    n = net.n_nodes
    if per_node_datasets is not None and len(per_node_datasets) != n:
        raise ValueError(f"need one dataset per node ({n}), got {len(per_node_datasets)}")
    if plan is not None and plan.N != n:
        raise ValueError(f"plan encodes for N={plan.N} workers but the network has {n}")


def _pooled(per_node_datasets) -> tuple[np.ndarray, np.ndarray]:
    """All nodes' data in node order: the evaluation set of a decentralized run."""
    return (np.concatenate([d[0] for d in per_node_datasets]),
            np.concatenate([d[1] for d in per_node_datasets]))


def _partition(inputs: np.ndarray, targets: np.ndarray, n: int):
    """Split a dataset into n contiguous, near-equal per-node parts."""
    return [(inputs[idx], targets[idx]) for idx in np.array_split(np.arange(inputs.shape[0]), n)]


def _node_stacks(per_node_datasets) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The nodes grouped by dataset shape, each group's data stacked once.

    Returns one ``(nodes, inputs, targets)`` per group: the group's node
    indices in node order and their datasets stacked on a leading node
    axis.  ``_partition`` gives at most two groups.
    """
    groups: dict[tuple, list[int]] = {}
    for j, (x, y) in enumerate(per_node_datasets):
        groups.setdefault((np.shape(x), np.shape(y)), []).append(j)
    return [(np.array(nodes), np.stack([per_node_datasets[j][0] for j in nodes]),
             np.stack([per_node_datasets[j][1] for j in nodes]))
            for nodes in groups.values()]


def _train_nodes(trace: RoundTrace, cfg: SchemeConfig, model: ModelParams, stacks,
                 starts: np.ndarray | None = None) -> np.ndarray:
    """Every node's local training, one stacked ``local_train`` per group.

    Nodes start from ``model``, or node j from the flat model ``starts[j]``.
    Returns the (nodes, w) array of trained flat models.
    """
    w_elems = model.size
    trained = np.empty((sum(len(nodes) for nodes, _, _ in stacks), w_elems))
    for nodes, x, y in stacks:
        init = model if starts is None else model.with_flat(starts[nodes])
        local = local_train(init, x, y, cfg.loss, cfg.lr, cfg.batch_size, cfg.epochs_per_round)
        trained[nodes] = local.flattened_view
        trace.train_ops.count += len(nodes)
        trace.train_ops.elements += len(nodes) * w_elems
    return trained


def _run_rounds(cfg: SchemeConfig, net: NetworkConfig, model_init: ModelParams,
                eval_set: tuple[np.ndarray, np.ndarray],
                step: Callable[[RoundTrace, ModelParams, int, list[int]], ModelParams]
                ) -> list[RoundTrace]:
    """The round loop every scheme shares.

    Each round gets a fresh trace and the round's fastest workers; ``step``
    records the round's messages and work on the trace and returns the next
    model, which is then evaluated on ``eval_set``.
    """
    traces = []
    model = model_init.copy()
    for r in range(1, cfg.rounds + 1):
        trace = RoundTrace(round_index=r)
        model = step(trace, model, r, select_fastest(net, r))
        trace.loss, trace.accuracy = evaluate(model, *eval_set, cfg.loss)
        trace.decoded_model = model.flattened_view
        traces.append(trace)
    return traces


def _node_names(n: int) -> tuple[str, ...]:
    """The ledger names of nodes 0..n-1, formatted once per run."""
    return tuple(f"node{j}" for j in range(n))


def run_dlcd_secure_training(scheme_cfg: SchemeConfig, net_cfg: NetworkConfig,
                             dataset: tuple[np.ndarray, np.ndarray],
                             model_init: ModelParams) -> list[RoundTrace]:
    """Coded distributed training over the master's own dataset.

    The dataset is encoded exactly once (setup trace) into one worker-major
    share array.  Per round and per encoded batch the master broadcasts the
    current model (plaintext), every worker computes the model execution on
    its encoded batch slice, and the master decodes the batch outputs from
    the fastest subset, evaluates the loss on them, backpropagates through
    its own plaintext activations and steps the model.

    A batch is one coded group of K samples (the last may be short) and a
    round is one pass over the groups, so ``batch_size`` and
    ``epochs_per_round`` play no part here.

    The fastest subset is fixed within a round, so its decode rows are built,
    its shares gathered (batch-major) and the round's messages and op
    counts recorded once per round.  A batch runs only the used workers'
    forwards, as one batched forward over the worker axis (byte-equal per
    worker to the forward of all N), and one ``np.dot`` per decode row; the
    ledger counts every worker's forward.
    """
    cfg, net = scheme_cfg, net_cfg
    plan = cfg.plan
    _check_sizes(net, plan=plan)
    inputs, targets = dataset
    n_samples = inputs.shape[0]
    if n_samples < plan.K:
        raise ValueError("dataset smaller than the coding batch size K")
    w_elems = model_init.size
    nodes = _node_names(net.n_nodes)

    setup = RoundTrace(round_index=0)
    shares, _ = encode(inputs, plan, _noise_spec(cfg, net, 0))
    setup.encode_ops.add(inputs.size)
    share_elems = shares.payloads[0].size
    setup.record(MessageBlock(MessageRule(("master",), nodes, share_elems, "dataset_share")))
    by_batch = shares.payloads.swapaxes(0, 1)[:, :, None]  # (G, N, 1, f): batch g's shares
    n_batches, n_workers = by_batch.shape[:2]
    # Each worker's result is one coded row of model outputs.
    result_elems = model_init.layers[-1][1].size
    batch_messages = MessageBlock(m for node in nodes for m in (
        Message("master", node, w_elems, "model_broadcast"),
        Message(node, "master", result_elems, "inference_result")))

    def step(trace, model, r, fastest):
        # Fixed for the round: the ledger, the decode rows and the used shares.
        for _ in range(n_batches):
            trace.record(batch_messages)
        # every worker's forward and the master's step, per batch
        trace.train_ops.count += n_batches * (n_workers + 1)
        trace.train_ops.elements += n_batches * (n_workers + 1) * w_elems
        trace.decode_ops.count += n_batches
        trace.decode_ops.elements += n_samples * result_elems
        rows = _decode_basis(plan.betas[fastest], plan)
        used = by_batch[:, fastest]   # the fastest workers' shares, batch-major
        for lo, batch_shares in zip(range(0, n_samples, plan.K), used):
            preds = forward(model, batch_shares)             # (n, 1, outputs)
            # the last group may be short: only its first n_samples - lo rows are data
            decoded = _decode_rows(rows, preds.reshape(len(preds), -1))[:n_samples - lo]
            _, dpred = loss_and_output_grad(decoded, targets[lo:lo + plan.K], cfg.loss)
            _, cache = forward_with_cache(model, inputs[lo:lo + plan.K])
            grads = backward_from_output(model, cache, dpred)
            model = sgd_step(model, grads, cfg.lr)
        return model

    return [setup] + _run_rounds(cfg, net, model_init, dataset, step)


def run_uncoded_dlcd(scheme_cfg: SchemeConfig, net_cfg: NetworkConfig,
                     dataset: tuple[np.ndarray, np.ndarray],
                     model_init: ModelParams) -> list[RoundTrace]:
    """Plaintext distributed training: partition once, train locally, aggregate."""
    inputs, targets = dataset
    parts = _partition(inputs, targets, net_cfg.n_nodes)
    row_elems = inputs.shape[1] + (targets[0].size if targets.ndim > 1 else 1)

    setup = RoundTrace(round_index=0)
    setup.record(MessageBlock(Message("master", node, x.shape[0] * row_elems, "dataset_part")
                              for node, (x, _) in zip(_node_names(net_cfg.n_nodes), parts)))
    return [setup] + run_uncoded_dldd(scheme_cfg, net_cfg, parts, model_init)


def run_dldd_secure_aggregation(scheme_cfg: SchemeConfig, net_cfg: NetworkConfig,
                                per_node_datasets: Sequence[tuple[np.ndarray, np.ndarray]],
                                model_init: ModelParams) -> list[RoundTrace]:
    """Federated learning with aggregation in the coded domain.

    Nodes train in plaintext, encode their updated parameters and exchange
    one share with every other node; each node aggregates the shares it
    received and the master decodes only the aggregate.  All owners'
    models are encoded at once (``encode_stack``): one generator, seeded
    from the run seed and the round, draws every owner's noise, and one
    batched product with the encoder basis writes the owner-major
    (owner, holder, G) share table, allocated once per run, so one
    ``aggregate`` call over the owner axis serves every holder.  The ledger
    still counts one encode of w elements per owner.
    """
    cfg, net = scheme_cfg, net_cfg
    plan = cfg.plan
    n = net.n_nodes
    _check_sizes(net, per_node_datasets, plan)
    w_elems = model_init.size
    share_elems = -(-w_elems // plan.K)   # G = ceil(w / K): one share, one aggregate
    nodes = _node_names(n)
    round_messages = MessageBlock(
        MessageRule(("master",), nodes, w_elems, "model_broadcast"),
        MessageRule(nodes, nodes, share_elems, "share_exchange"),   # owner-major
        MessageRule(nodes, ("master",), share_elems, "aggregate_result"))
    stacks = _node_stacks(per_node_datasets)
    table = np.empty((n, n, share_elems))   # table[j, i]: share of node j's model held by node i

    def step(trace, model, r, fastest):
        trace.record(round_messages)
        trained = _train_nodes(trace, cfg, model, stacks)
        encode_stack(trained, plan, _noise_spec(cfg, net, r), out=table)
        trace.encode_ops.count += n
        trace.encode_ops.elements += n * w_elems

        held = aggregate(table, cfg.agg_rule)  # (holder, G): every holder over the owner axis
        merged = decode([(plan.betas[i], held[i]) for i in fastest], plan, out_extent=w_elems)
        trace.decode_ops.add(w_elems)
        return model.with_flat(merged)

    return _run_rounds(cfg, net, model_init, _pooled(per_node_datasets), step)


def run_dldd_secure_training(scheme_cfg: SchemeConfig, net_cfg: NetworkConfig,
                             per_node_datasets: Sequence[tuple[np.ndarray, np.ndarray]],
                             model_init: ModelParams) -> list[RoundTrace]:
    """Federated learning where workers never see the plaintext global model.

    The master encodes the flattened model at the single data node, each
    worker runs its entire local training on the encoded parameter vector,
    and decoding the returned shares natively aggregates the local models.
    """
    cfg, net = scheme_cfg, net_cfg
    plan = cfg.plan
    _check_sizes(net, per_node_datasets, plan)
    w_elems = model_init.size   # K = 1: a share is the size of the model
    round_messages = MessageBlock(m for node in _node_names(net.n_nodes) for m in (
        Message("master", node, w_elems, "encoded_model"),
        Message(node, "master", w_elems, "trained_model")))
    stacks = _node_stacks(per_node_datasets)

    def step(trace, model, r, fastest):
        trace.record(round_messages)
        shares, _ = encode(model.flattened_view, plan, _noise_spec(cfg, net, r))
        trace.encode_ops.add(w_elems)
        trained = _train_nodes(trace, cfg, model, stacks, starts=shares.payloads)
        merged = decode([(plan.betas[j], trained[j]) for j in fastest], plan, out_extent=w_elems)
        trace.decode_ops.add(w_elems)
        return model.with_flat(merged)

    return _run_rounds(cfg, net, model_init, _pooled(per_node_datasets), step)


def run_uncoded_dldd(scheme_cfg: SchemeConfig, net_cfg: NetworkConfig,
                     per_node_datasets: Sequence[tuple[np.ndarray, np.ndarray]],
                     model_init: ModelParams) -> list[RoundTrace]:
    """Plain federated learning: plaintext local training plus aggregation."""
    cfg, net = scheme_cfg, net_cfg
    _check_sizes(net, per_node_datasets)
    w_elems = model_init.size
    round_messages = MessageBlock(m for node in _node_names(net.n_nodes) for m in (
        Message("master", node, w_elems, "model_broadcast"),
        Message(node, "master", w_elems, "local_model")))
    stacks = _node_stacks(per_node_datasets)

    def step(trace, model, r, fastest):
        trace.record(round_messages)
        trained = _train_nodes(trace, cfg, model, stacks)
        return model.with_flat(aggregate(trained[fastest], cfg.agg_rule))

    return _run_rounds(cfg, net, model_init, _pooled(per_node_datasets), step)


def run_scheme(scheme_cfg: SchemeConfig, net_cfg: NetworkConfig, data,
               model_init: ModelParams) -> list[RoundTrace]:
    """Dispatch on the scheme name.

    ``data`` is a (inputs, targets) pair for the centralized-data schemes
    and a sequence of per-node pairs for the decentralized ones.
    """
    runner = {
        DLCD_SECURE_TRAINING: run_dlcd_secure_training,
        UNCODED_DLCD: run_uncoded_dlcd,
        DLDD_SECURE_AGGREGATION: run_dldd_secure_aggregation,
        DLDD_SECURE_TRAINING: run_dldd_secure_training,
        UNCODED_DLDD: run_uncoded_dldd,
    }[scheme_cfg.scheme]
    return runner(scheme_cfg, net_cfg, data, model_init)


def expected_message_counts(scheme: str, n_nodes: int, n_batches: int = 0) -> dict[str, int]:
    """Closed-form per-round (and one-time) message counts for each scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == DLDD_SECURE_AGGREGATION:
        per_round = 2 * n_nodes + n_nodes * (n_nodes - 1)
    elif scheme == DLCD_SECURE_TRAINING:
        per_round = 2 * n_nodes * n_batches
    else:
        per_round = 2 * n_nodes
    once = n_nodes if scheme in CENTRALIZED_SCHEMES else 0
    return {"per_round": per_round, "once": once}
