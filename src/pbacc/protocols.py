"""Deterministic in-process simulation of the coded learning schemes.

Transport is simulated: every message is a (sender, receiver, element
count, phase tag) tuple, never serialized or sent.  That makes the
per-round communication cost an exact, reproducible count instead of a
wall-clock measurement.  Every round of a run sends the same messages
(their sizes follow from the model size and K) and does the same encode,
decode and train ops, so each runner declares that cost once per run, as
a :class:`RoundTrace` ledger holding the round's :class:`MessageBlock` s
by reference and its :class:`OpCount` s.  A block is a run of
:class:`MessageRule` s (one message from every sender to every receiver
other than itself; a single message is a one-to-one rule), each counted
in O(1), so secure aggregation's N(N-1) share exchange is one rule, not
N(N-1) tuples; a trace's message list is expanded only when it is read.

All schemes share one round driver, ``_run_rounds``.  It numbers the rounds,
hands ``step`` the model and the round's fastest workers
(:func:`select_fastest`), evaluates the model ``step`` returns and makes the
round's trace from the runner's ledger.  A scheme supplies its ledger and a
per-round ``step`` closure that only moves the model: who encodes, who
trains and what is decoded from the fastest subset.  Five schemes are
provided:

* ``dlcd_secure_training``   -- master owns the data; the dataset is encoded
  once and workers compute the model execution on encoded batches; the
  master decodes the outputs, evaluates loss/gradients and steps the model.
  Prepared once per run: the targets (a softmax one-hot in float64), the
  decode's output array and, per batch, the views a batch reads of them and
  of the master's samples.  Bound once per round, when the model and the
  fastest subset are fixed: the decode rows, the shares gathered
  batch-major and the forwards' caches (``learners._Binding``: arrays and
  views taken once), one for the workers' stacked forward and, for K >= 2,
  one for the master's forward per group shape.  A batch then does only its
  own arithmetic: the fastest workers' forwards as one stacked forward into
  its cache, the decode product (``codec._decode_rows``, into the reused
  output) and the master's step, which computes the loss gradient but no
  loss value and updates the round's flat model in place.  With K = 1 the
  master's plaintext sample has a share's shape, so it rides in the
  workers' stacked forward as one more slot, bound once per round to views
  of that slot; only its input slot moves, batch by batch.
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

What a scheme is and may do lives in its one row of :data:`SCHEME_TABLE`:
its runner, flags, K rule and message count.  Every check and dispatch,
the harness's included, reads the row and compares no scheme names.

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
setup trace with ``round_index`` 0 holding those messages and ops.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .codec import NoiseSpec, _decode_basis, _decode_rows, decode, encode, encode_stack
from .interpolation import CodingPlan, _check_integer
from .learners import (
    FEDAVG,
    ModelParams,
    _backward,
    _Binding,
    _prepare_targets,
    aggregate,
    backward_from_output,  # noqa: F401 -- uncalled; bench/tracer.py patches it by this name
    evaluate,
    forward,  # noqa: F401 -- uncalled; bench/tracer.py patches it by this name
    forward_with_cache,
    local_train,
    loss_and_output_grad,  # noqa: F401 -- uncalled; bench/tracer.py patches it by this name
    output_grad,
    sgd_step,  # noqa: F401 -- uncalled; bench/tracer.py patches it by this name
)

DLCD_SECURE_TRAINING = "dlcd_secure_training"
DLDD_SECURE_AGGREGATION = "dldd_secure_aggregation"
DLDD_SECURE_TRAINING = "dldd_secure_training"
UNCODED_DLCD = "uncoded_dlcd"
UNCODED_DLDD = "uncoded_dldd"


def _single_data_node(K: int, samples: float) -> str | None:   # dldd_secure_training's K rule
    return None if K == 1 else f"must be 1, as the model is encoded at a single data node; got {K}"


def _within_samples(K: int, samples: float) -> str | None:   # dlcd_secure_training's K rule
    return None if K <= samples else f"must be <= the {samples} samples coded, got {K}"


def _round_trips_per_batch(n: int, n_batches: int) -> int:
    """The messages of a dlcd_secure_training round: a round trip per node and coding batch."""
    _check_integer("n_batches", n_batches)
    if n_batches < 1:
        raise ValueError(f"{DLCD_SECURE_TRAINING} sends its messages per coding batch; "
                         f"need n_batches >= 1, got {n_batches}")
    return 2 * n * n_batches


class SchemeRow(NamedTuple):
    """What one scheme is and may do: one row of :data:`SCHEME_TABLE`."""

    runner: str          # the runner's name in this module, looked up at each call
    coded: bool          # runs the Berrut codec, so needs a coding plan
    centralized: bool    # the master holds one (inputs, targets) pair and sends it out once
    aggregates: bool     # merges the nodes' models with ``SchemeConfig.agg_rule``
    # (K, samples coded, inf if not known yet) -> why the plan's K is refused, or None
    K_rule: Callable[[int, float], str | None] = lambda K, samples: None
    # (n_nodes, n_batches) -> messages per round; by default a round trip per node
    per_round: Callable[[int, int], int] = lambda n, batches: 2 * n


#: Every scheme's row, keyed by its name.
SCHEME_TABLE = {
    DLCD_SECURE_TRAINING: SchemeRow("run_dlcd_secure_training", True, True, False,
                                    _within_samples, _round_trips_per_batch),
    DLDD_SECURE_AGGREGATION: SchemeRow("run_dldd_secure_aggregation", True, False, True,
                                       per_round=lambda n, batches: 2 * n + n * (n - 1)),
    DLDD_SECURE_TRAINING: SchemeRow("run_dldd_secure_training", True, False, False,
                                    _single_data_node),
    UNCODED_DLCD: SchemeRow("run_uncoded_dlcd", False, True, True),
    UNCODED_DLDD: SchemeRow("run_uncoded_dldd", False, False, True),
}
SCHEMES = tuple(SCHEME_TABLE)


def scheme_row(scheme: str, error: type[ValueError] = ValueError) -> SchemeRow:
    """``scheme``'s row; any other name raises ``error``, naming the schemes."""
    if scheme not in SCHEMES:   # a tuple, so an unhashable name is refused too
        raise error(f"unknown scheme {scheme!r}; choose one of {SCHEMES}")
    return SCHEME_TABLE[scheme]


STRAGGLER_NONE = "none"
DROP_SLOWEST = "drop_slowest"
RANDOM_DELAY = "random_delay"


class Message(NamedTuple):
    sender: str
    receiver: str
    elements: int
    phase: str


class OpCount(NamedTuple):
    """``count`` operations over ``elements`` elements in all."""

    count: int = 0
    elements: int = 0


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
    """An immutable run of messages: :class:`MessageRule` s in send order.

    ``len(block)`` and ``elements``, the block's total element count, are
    summed once here, from each rule's count, taken once and in O(1);
    iterating the block expands its rules in order.
    """

    __slots__ = ("_rules", "_count", "elements")

    def __init__(self, *rules: MessageRule):
        self._rules = rules
        counts = [rule.count for rule in rules]
        self._count = sum(counts)
        self.elements = sum(count * rule.elements for count, rule in zip(counts, rules))

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Message]:
        for rule in self._rules:
            yield from rule.expand()


@functools.lru_cache(maxsize=64)
def _node_names(n: int) -> tuple[str, ...]:
    """The ledger names of nodes 0..n-1, formatted once per process and node count."""
    return tuple(f"node{j}" for j in range(n))


@functools.lru_cache(maxsize=64)
def _round_trips(n: int, down: tuple[int, str], up: tuple[int, str]) -> MessageBlock:
    """One message from the master to each of n nodes and one back, node by node.

    ``down`` and ``up`` are the (elements, phase) of the two messages.  A
    block is immutable, so a process builds each one once and every run of
    that ledger shares it.
    """
    return MessageBlock(*(rule for node in _node_names(n) for rule in (
        MessageRule(("master",), (node,), *down), MessageRule((node,), ("master",), *up))))


@dataclass(frozen=True)
class RoundTrace:
    """Everything observable about one protocol round.

    A runner declares its round's ledger once: the round's message blocks,
    by reference (one block can sit in every round, and more than once in
    one), and its op counts.  Each round's trace is that ledger with
    ``round_index``, ``decoded_model``, ``loss`` and ``accuracy`` replaced.
    ``message_count`` and ``element_volume`` are summed over the blocks once
    per trace, on their first read; ``messages`` expands the blocks' rules,
    in order, each time it is read.
    """

    round_index: int = 0
    blocks: tuple[MessageBlock, ...] = ()
    encode_ops: OpCount = OpCount()
    decode_ops: OpCount = OpCount()
    train_ops: OpCount = OpCount()
    decoded_model: np.ndarray | None = None
    loss: float = float("nan")
    accuracy: float = float("nan")

    @functools.cached_property
    def message_count(self) -> int:
        return sum(len(block) for block in self.blocks)

    @functools.cached_property
    def element_volume(self) -> int:
        return sum(block.elements for block in self.blocks)

    @property
    def messages(self) -> list[Message]:
        return [m for block in self.blocks for m in block]


@dataclass(frozen=True)
class StragglerModel:
    kind: str = STRAGGLER_NONE
    count: int = 0       # drop_slowest: how many results arrive too late
    keep_n: int = 0      # random_delay: how many results are used
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (STRAGGLER_NONE, DROP_SLOWEST, RANDOM_DELAY):
            raise ValueError(f"unknown straggler model {self.kind!r}")
        for name in ("count", "keep_n", "seed"):
            _check_integer(name, getattr(self, name))
        if self.seed < 0:
            raise ValueError(f"need a straggler seed >= 0, got {self.seed}")


@dataclass(frozen=True)
class NetworkConfig:
    n_nodes: int
    straggler: StragglerModel = StragglerModel()
    seed: int = 0

    def __post_init__(self):
        _check_integer("n_nodes", self.n_nodes)
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
        row = scheme_row(self.scheme)
        for name in ("rounds", "batch_size", "epochs_per_round"):
            _check_integer(name, getattr(self, name))
        if self.rounds < 1:
            raise ValueError(f"need rounds >= 1, got {self.rounds}")
        if self.batch_size < 1:
            raise ValueError(f"need batch_size >= 1, got {self.batch_size}")
        if self.epochs_per_round < 1:
            raise ValueError(f"need epochs_per_round >= 1, got {self.epochs_per_round}")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ValueError(f"need a finite lr > 0, got {self.lr}")
        if row.coded and self.plan is None:
            raise ValueError(f"scheme {self.scheme} needs a coding plan")
        if refused := row.coded and row.K_rule(self.plan.K, math.inf):
            raise ValueError(f"{self.scheme} plan.K {refused}")
        if self.agg_rule != FEDAVG and not row.aggregates:
            raise ValueError(f"{self.scheme} does not aggregate with an agg_rule, so it takes "
                             f"only {FEDAVG!r}, got {self.agg_rule!r}")


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
    """Split a dataset into n contiguous, near-equal per-node parts, each a pair of views."""
    return list(zip(np.array_split(inputs, n), np.array_split(targets, n)))


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


def _train_nodes(cfg: SchemeConfig, model: ModelParams, stacks,
                 starts: np.ndarray | None = None) -> np.ndarray:
    """Every node's local training, one stacked ``local_train`` per group.

    Nodes start from ``model``, or node j from the flat model ``starts[j]``.
    Returns the (nodes, w) array of trained flat models.
    """
    trained = np.empty((sum(len(nodes) for nodes, _, _ in stacks), model.size))
    for nodes, x, y in stacks:
        init = model if starts is None else model.with_flat(starts[nodes])
        local = local_train(init, x, y, cfg.loss, cfg.lr, cfg.batch_size, cfg.epochs_per_round)
        trained[nodes] = local.flattened_view
    return trained


def _run_rounds(cfg: SchemeConfig, net: NetworkConfig, model_init: ModelParams,
                eval_set: tuple[np.ndarray, np.ndarray], ledger: RoundTrace,
                step: Callable[[ModelParams, int, list[int]], ModelParams]
                ) -> list[RoundTrace]:
    """The round loop every scheme shares.

    ``step`` takes the model, the round number and the round's fastest
    workers and returns the next model, which is evaluated on ``eval_set``;
    it never writes the model it is given, so ``model_init`` is not copied.
    Each round's trace is ``ledger``, the messages and ops every round
    costs, with the round's number, model and metrics filled in.
    """
    traces = []
    model = model_init
    for r in range(1, cfg.rounds + 1):
        model = step(model, r, select_fastest(net, r))
        loss, accuracy = evaluate(model, *eval_set, cfg.loss)
        traces.append(replace(ledger, round_index=r, decoded_model=model.flattened_view,
                              loss=loss, accuracy=accuracy))
    return traces


def run_dlcd_secure_training(scheme_cfg: SchemeConfig, net_cfg: NetworkConfig,
                             dataset: tuple[np.ndarray, np.ndarray],
                             model_init: ModelParams) -> list[RoundTrace]:
    """Coded distributed training over the master's own dataset.

    The dataset is encoded exactly once (setup trace) into one worker-major
    share array.  Per round and per encoded batch the master broadcasts the
    current model (plaintext), every worker computes the model execution on
    its encoded batch slice, and the master decodes the batch outputs from
    the fastest subset, evaluates the loss on them, backpropagates through
    its own plaintext activations and steps the model.  The targets are
    checked and prepared once per run, before the encode, so a bad label is
    rejected before any batch runs; a batch computes only the loss gradient
    (``output_grad`` on its slice of the prepared targets), and the loss
    value is read once per round, from ``evaluate``.

    A batch is one coded group of K samples (the last may be short) and a
    round is one pass over the groups, so ``batch_size`` and
    ``epochs_per_round`` play no part here.

    Each decode is written into one ``(K, outputs)`` array allocated per
    run, and each batch's view of it (the last group may be short), its
    targets and the master's own samples are sliced once per run.  The
    fastest subset is fixed within a round, so its decode rows are built and
    its shares gathered (batch-major) once per round; when every worker is
    used, the run's batch-major table is used as it is, with no gather.  A
    batch runs only the used workers' forwards, as one batched forward over
    the worker axis (byte-equal per worker to the forward of all N), and one
    ``np.dot`` per decode row; the ledger counts every worker's forward.
    The model is copied once per round into one flat array
    (``ModelParams.with_flat``) and stepped in place, one scale and one
    subtraction per batch.  Every batch of a round has the same shapes, so
    the round binds the forwards' caches once
    (``learners._Binding``) and each batch's ``forward_with_cache`` only
    computes into them; the workers' results are one view of the stacked
    cache.  With K = 1 the master's own ``(1, f)`` sample is one more slot
    of that forward, after the N workers' shares in the batch-major table,
    and the master backpropagates through a binding of that slot's views;
    per batch only its input slot is pointed at the batch's sample.  For
    K >= 2 the master runs its own forward, into one binding per group
    shape, since a ``(K, f)`` product is not byte-equal to K ``(1, f)``
    slices.
    """
    cfg, net = scheme_cfg, net_cfg
    plan = cfg.plan
    _check_sizes(net, plan=plan)
    inputs, targets = dataset
    n_samples = inputs.shape[0]
    if refused := SCHEME_TABLE[DLCD_SECURE_TRAINING].K_rule(plan.K, n_samples):
        raise ValueError(f"coding batch size K {refused}")
    # Each worker's result is one coded row of model outputs.
    result_elems = model_init.layers[-1][1].size
    prepared = _prepare_targets(targets, cfg.loss, (n_samples, result_elems))
    w_elems = model_init.size
    nodes = _node_names(net.n_nodes)

    shares, _ = encode(inputs, plan, _noise_spec(cfg, net, 0))
    setup = RoundTrace(
        blocks=(MessageBlock(MessageRule(("master",), nodes, shares.payloads[0].size,
                                         "dataset_share")),),
        encode_ops=OpCount(1, inputs.size))
    x = np.asarray(inputs, float)
    by_batch = shares.payloads.swapaxes(0, 1)[:, :, None]  # (G, N, 1, f): batch g's shares
    n_batches, n_workers = by_batch.shape[:2]
    fold = plan.K == 1   # the master's (1, f) sample rides in the workers' forward, slot N
    if fold:
        by_batch = np.concatenate([by_batch, x[:, None, None]], axis=1)
    batch_messages = _round_trips(net.n_nodes, (w_elems, "model_broadcast"),
                                  (result_elems, "inference_result"))
    train_ops = n_batches * (n_workers + 1)   # every worker's forward and the master's step
    ledger = RoundTrace(blocks=(batch_messages,) * n_batches,
                        train_ops=OpCount(train_ops, train_ops * w_elems),
                        decode_ops=OpCount(n_batches, n_samples * result_elems))

    decoded = np.empty((plan.K, result_elems))   # each batch's decode, written in place
    # Fixed for the run, per batch: the master's own samples, their targets
    # and the rows of the decode the gradient reads (the last group may be short).
    batches = [(x[lo:lo + plan.K], prepared[lo:lo + plan.K], decoded[:n_samples - lo])
               for lo in range(0, n_samples, plan.K)]
    master_shapes = {batch.shape for batch, _, _ in batches}

    def step(model, r, fastest):
        model = model.with_flat(model.flattened_view)   # owned, stepped in place batch by batch
        # Fixed for the round: the decode rows, the used shares, and the
        # forwards' caches with the views of them each batch reads.
        rows = _decode_basis(plan.betas[fastest], plan)
        n = len(fastest)
        # batch-major, and gathered only when some worker is left out
        gather = fastest + [n_workers] if fold else fastest
        used = by_batch if n == n_workers else by_batch[:, gather]
        workers = _Binding(model, used.shape[1:])   # (n[+1], 1, f)
        results = workers.pre[-1][:n].reshape(n, -1)
        if fold:   # the master's forward is slot n of the stacked one
            master = workers.slot(n)
        else:
            masters = {shape: _Binding(model, shape) for shape in master_shapes}
        for batch_shares, (batch, batch_targets, batch_decoded) in zip(used, batches):
            forward_with_cache(model, batch_shares, workers)
            _decode_rows(rows, results, decoded)
            dpred = output_grad(batch_decoded, batch_targets, cfg.loss)
            if fold:
                master.inputs = batch   # the input slot: this batch's sample
            else:
                master = masters[batch.shape]
                forward_with_cache(model, batch, master)
            _backward(model, master, dpred, cfg.lr)
        return model

    return [setup] + _run_rounds(cfg, net, model_init, dataset, ledger, step)


def run_uncoded_dlcd(scheme_cfg: SchemeConfig, net_cfg: NetworkConfig,
                     dataset: tuple[np.ndarray, np.ndarray],
                     model_init: ModelParams) -> list[RoundTrace]:
    """Plaintext distributed training: partition once, train locally, aggregate."""
    inputs, targets = dataset
    parts = _partition(inputs, targets, net_cfg.n_nodes)
    row_elems = inputs.shape[1] + (targets[0].size if targets.ndim > 1 else 1)

    setup = RoundTrace(blocks=(MessageBlock(*(
        MessageRule(("master",), (node,), x.shape[0] * row_elems, "dataset_part")
        for node, (x, _) in zip(_node_names(net_cfg.n_nodes), parts))),))
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

    With ``coord_median`` the result is the Berrut decode of the holders'
    coordinate medians of noisy shares, not a share of the models' median:
    the median is not linear, so once the shares carry noise it does not
    pass through the code.  At N=20, K=1, T=4 it is 2.1% off the models'
    median at sigma_n=0 (the decode's own error) and 7-13% off per round at
    sigma_n=10 on two_clusters models (sup-norm, relative).
    """
    cfg, net = scheme_cfg, net_cfg
    plan = cfg.plan
    n = net.n_nodes
    _check_sizes(net, per_node_datasets, plan)
    w_elems = model_init.size
    share_elems = -(-w_elems // plan.K)   # G = ceil(w / K): one share, one aggregate
    nodes = _node_names(n)
    ledger = RoundTrace(
        blocks=(MessageBlock(
            MessageRule(("master",), nodes, w_elems, "model_broadcast"),
            MessageRule(nodes, nodes, share_elems, "share_exchange"),   # owner-major
            MessageRule(nodes, ("master",), share_elems, "aggregate_result")),),
        train_ops=OpCount(n, n * w_elems), encode_ops=OpCount(n, n * w_elems),
        decode_ops=OpCount(1, w_elems))
    stacks = _node_stacks(per_node_datasets)
    table = np.empty((n, n, share_elems))   # table[j, i]: share of node j's model held by node i

    def step(model, r, fastest):
        trained = _train_nodes(cfg, model, stacks)
        encode_stack(trained, plan, _noise_spec(cfg, net, r), out=table)
        held = aggregate(table, cfg.agg_rule)  # (holder, G): every holder over the owner axis
        merged = decode([(plan.betas[i], held[i]) for i in fastest], plan, out_extent=w_elems)
        return model.with_flat(merged)

    return _run_rounds(cfg, net, model_init, _pooled(per_node_datasets), ledger, step)


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
    n = net.n_nodes
    w_elems = model_init.size   # K = 1: a share is the size of the model
    ledger = RoundTrace(
        blocks=(_round_trips(n, (w_elems, "encoded_model"), (w_elems, "trained_model")),),
        encode_ops=OpCount(1, w_elems), train_ops=OpCount(n, n * w_elems),
        decode_ops=OpCount(1, w_elems))
    stacks = _node_stacks(per_node_datasets)

    def step(model, r, fastest):
        shares, _ = encode(model.flattened_view, plan, _noise_spec(cfg, net, r))
        trained = _train_nodes(cfg, model, stacks, starts=shares.payloads)
        merged = decode([(plan.betas[j], trained[j]) for j in fastest], plan, out_extent=w_elems)
        return model.with_flat(merged)

    return _run_rounds(cfg, net, model_init, _pooled(per_node_datasets), ledger, step)


def run_uncoded_dldd(scheme_cfg: SchemeConfig, net_cfg: NetworkConfig,
                     per_node_datasets: Sequence[tuple[np.ndarray, np.ndarray]],
                     model_init: ModelParams) -> list[RoundTrace]:
    """Plain federated learning: plaintext local training plus aggregation."""
    cfg, net = scheme_cfg, net_cfg
    _check_sizes(net, per_node_datasets)
    n = net.n_nodes
    w_elems = model_init.size
    ledger = RoundTrace(
        blocks=(_round_trips(n, (w_elems, "model_broadcast"), (w_elems, "local_model")),),
        train_ops=OpCount(n, n * w_elems))
    stacks = _node_stacks(per_node_datasets)

    def step(model, r, fastest):
        trained = _train_nodes(cfg, model, stacks)
        return model.with_flat(aggregate(trained[fastest], cfg.agg_rule))

    return _run_rounds(cfg, net, model_init, _pooled(per_node_datasets), ledger, step)


def run_scheme(scheme_cfg: SchemeConfig, net_cfg: NetworkConfig, data,
               model_init: ModelParams) -> list[RoundTrace]:
    """Run the scheme's runner, looked up by name here at each call.

    ``data`` is a (inputs, targets) pair of arrays for the centralized-data
    schemes and a sequence of per-node pairs for the decentralized ones;
    the other form is refused.
    """
    row = SCHEME_TABLE[scheme_cfg.scheme]
    if row.centralized != (len(data) == 2 and all(isinstance(a, np.ndarray) for a in data)):
        form = ("one (inputs, targets) pair of arrays" if row.centralized
                else "a sequence of per-node (inputs, targets) pairs")
        raise ValueError(f"{scheme_cfg.scheme} takes its data as {form}")
    return globals()[row.runner](scheme_cfg, net_cfg, data, model_init)


def expected_message_counts(scheme: str, n_nodes: int, n_batches: int = 0) -> dict[str, int]:
    """Closed-form per-round and one-time message counts of ``scheme`` on ``n_nodes`` nodes.

    Only ``dlcd_secure_training`` reads ``n_batches``, its coding batches per round.
    """
    row = scheme_row(scheme)
    _check_integer("n_nodes", n_nodes)
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    return {"per_round": row.per_round(n_nodes, n_batches),
            "once": n_nodes if row.centralized else 0}
