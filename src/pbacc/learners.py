"""Desk-scale differentiable models, losses, optimizer and aggregation.

Everything here is plain real arithmetic (matrix products, elementwise
maps), so the same code runs unchanged on plaintext and on encoded tensors;
the only data-dependent branching lives inside the activations.  Gradients
are hand-written reverse accumulation, checked against central differences.

Samples run along axis -2 and features along axis -1, so the forward,
backward, loss and SGD functions also take a leading node axis: ``(N, B, f)``
inputs train N models at once (``local_train``), from one shared start model or from a stacked
:class:`ModelParams` whose layers carry the node axis, ``(N, f, o)`` weights
and ``(N, o)`` biases.  A stacked ``matmul`` runs one BLAS call per node
slice, so slice k of a stacked result is byte-equal to the single-node
computation on node k; every reduction runs within a node, over axis -1 or
-2.  Products are never flattened across nodes: an ``(N*B, f)`` product
can differ in the last ulp.

Training pays only for a loss's gradient.  A dataset's targets are checked
against the predictions' shape and converted once (``_prepare_targets``:
MSE targets made float, softmax labels validated and one-hot encoded, Cox
pairs shape-checked), and every batch scores against a slice of them.  Each
loss is one block of ``_loss_kernel``: its intermediates, then the value or
the gradient, whichever the caller asked for.  Training steps ask for the
gradient (``output_grad``); ``evaluate`` asks for the value.  No training
step computes a value or scans raw labels.

There is one backward, ``_layer_grads``: it yields each layer's gradient,
last layer first.  ``backward_from_output`` collects it into a gradient
model; training steps descend in place instead (``_descend``), writing
each layer's update into the model's own arrays as its gradient arrives,
byte-equal to ``sgd_step`` on the collected gradients.  ``local_train``
copies its start model once per call into arrays it owns, so a caller's
model is never written.

The Cox partial likelihood takes Breslow's convention for tied times
(Breslow 1974): the risk set of sample i is every j with t_j >= t_i, so a
run of equal times shares one risk set.  Its risk sums and its gradient's
sums over events are cumulative sums along one stable sort of each node's
times, O(n log n) per node, with no n×n risk-set matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RELU = "relu"
TANH = "tanh"
IDENTITY = "identity"
ACTIVATIONS = (RELU, TANH, IDENTITY)

MSE = "mse"
SOFTMAX_CE = "softmax_ce"
COX_PH = "cox_ph"
LOSSES = (MSE, SOFTMAX_CE, COX_PH)


@dataclass
class ModelParams:
    """A stack of affine layers with one activation between them."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    activation: str = RELU

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def node_shape(self) -> tuple[int, ...]:
        """The leading node axes: ``()`` for one model, ``(N,)`` for a stack."""
        return self.layers[0][1].shape[:-1]

    @property
    def flattened_view(self) -> np.ndarray:
        """All parameters of each model concatenated along the last axis."""
        lead = self.node_shape + (-1,)
        return np.concatenate([t.reshape(lead) for w, b in self.layers for t in (w, b)],
                              axis=-1)

    @property
    def size(self) -> int:
        """The parameter count of one model."""
        return sum(w.shape[-2] * w.shape[-1] + b.shape[-1] for w, b in self.layers)

    def with_flat(self, flat: np.ndarray) -> "ModelParams":
        """Rebuild a params object of this shape from a flat vector.

        A ``(N, size)`` array of flat models gives a stack of N models.
        """
        flat = np.asarray(flat, dtype=float)
        if flat.ndim not in (1, 2) or flat.shape[-1] != self.size:
            raise ValueError(f"expected flat vectors of length {self.size}, got {flat.shape}")
        lead = flat.shape[:-1]
        layers, pos = [], 0
        for w, b in self.layers:
            w_shape, b_shape = w.shape[-2:], b.shape[-1:]
            nw = flat[..., pos:pos + w_shape[0] * w_shape[1]].reshape(lead + w_shape)
            pos += w_shape[0] * w_shape[1]
            nb = flat[..., pos:pos + b_shape[0]].reshape(lead + b_shape)
            pos += b_shape[0]
            layers.append((nw, nb))
        return ModelParams(layers=layers, activation=self.activation)

    def copy(self) -> "ModelParams":
        return ModelParams(layers=[(w.copy(), b.copy()) for w, b in self.layers],
                           activation=self.activation)


def init_mlp(sizes: list[int], activation: str = RELU, seed: int = 0) -> ModelParams:
    """Gaussian-initialized MLP with layer widths ``sizes``."""
    rng = np.random.default_rng(seed)
    layers = []
    for nin, nout in zip(sizes[:-1], sizes[1:]):
        w = rng.normal(0.0, 1.0 / np.sqrt(nin), size=(nin, nout))
        b = np.zeros(nout)
        layers.append((w, b))
    return ModelParams(layers=layers, activation=activation)


def _act(h: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    """The activation of ``h``, written into ``out`` if given (identity returns ``h``).

    ``out`` is passed on only when given: even as ``out=None`` the keyword
    costs a ufunc call about 0.03 us, which every fresh forward would pay.
    """
    if kind == RELU:
        return np.maximum(h, 0.0) if out is None else np.maximum(h, 0.0, out=out)
    if kind == TANH:
        return np.tanh(h) if out is None else np.tanh(h, out=out)
    return h


def _act_grad(h: np.ndarray, out: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative at pre-activation ``h``, whose image is ``out``."""
    if kind == RELU:
        return (h > 0.0).astype(float)
    if kind == TANH:
        return 1.0 - out ** 2
    return np.ones_like(h)


def forward_with_cache(params: ModelParams, inputs: np.ndarray, cache=None):
    """Affine+activation chain; returns output and the per-layer cache.

    Features run along the last axis.  A stacked ``(N, B, f)`` input is one
    batched matrix product per layer, byte-equal to N separate ``(B, f)``
    forwards, with one shared model or a stack of N models; a flattened
    ``(N*B, f)`` product can differ in the last ulp.

    The cache is ``(pre, post)``: each layer's pre-activation, and the
    input followed by each layer's output (the last layer's output, and an
    identity activation's, is its pre-activation array itself; relu and tanh
    write distinct arrays, since relu's gradient reads ``pre``).  Given the
    cache of an earlier call on inputs of the same shape, this writes the
    matmul, bias and activation results into its arrays, points its input
    slot ``post[0]`` at ``inputs`` and returns that same cache, byte-equal
    to a fresh call.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[-1] != params.layers[0][0].shape[-2]:
        raise ValueError(f"input features {x.shape[-1]} do not match "
                         f"first layer extent {params.layers[0][0].shape[-2]}")
    last = len(params.layers) - 1
    if cache is None:
        cache = ([None] * (last + 1), [None] * (last + 2))
    pre, post = cache
    post[0] = h = x
    for li, (w, b) in enumerate(params.layers):
        z = pre[li] = np.matmul(h, w, out=pre[li])
        z += b[..., None, :]
        h = post[li + 1] = z if li == last else _act(z, params.activation, out=post[li + 1])
    return h, cache


def forward(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    out, _ = forward_with_cache(params, inputs)
    return out


def _layer_grads(params: ModelParams, cache, dout: np.ndarray):
    """Yield each layer's ``(index, gw, gb)``, last layer first: the one backward.

    A layer is yielded only after the delta it passes down has been
    computed, so the caller may update that layer's arrays in place.
    """
    pre, post = cache
    delta = np.asarray(dout, dtype=float)
    last = len(params.layers) - 1
    for li in range(last, -1, -1):
        if li != last:
            delta = delta * _act_grad(pre[li], post[li + 1], params.activation)
        gw, gb = post[li].swapaxes(-1, -2) @ delta, np.add.reduce(delta, axis=-2)
        if li > 0:
            delta = delta @ params.layers[li][0].swapaxes(-1, -2)
        yield li, gw, gb


def backward_from_output(params: ModelParams, cache, dout: np.ndarray) -> ModelParams:
    """Backpropagate a gradient w.r.t. the network output to all parameters.

    No runner calls it: training descends in place (``_descend``).  It stays
    as the tests' functional reference for the gradients, and
    ``bench/tracer.py`` patches it by name through ``protocols``.
    """
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    for li, gw, gb in _layer_grads(params, cache, dout):
        grads[li] = (gw, gb)
    return ModelParams(layers=grads, activation=params.activation)


def _descend(params: ModelParams, cache, dout: np.ndarray, lr: float) -> None:
    """One SGD step written into ``params``' own arrays, layer by layer.

    Byte-equal to ``sgd_step(params, backward_from_output(params, cache,
    dout), lr)``: ``lr * gw`` is the same product either way.  ``params``
    must own its arrays, already in the gradients' node shape.
    """
    for li, gw, gb in _layer_grads(params, cache, dout):
        w, b = params.layers[li]
        gw *= lr
        w -= gw
        gb *= lr
        b -= gb


def _prepare_targets(targets: np.ndarray, loss: str, outputs: tuple[int, ...]) -> np.ndarray:
    """Check and convert a dataset's targets once, for every batch cut from it.

    ``outputs`` is the shape of the predictions the targets are scored
    against, ``(..., n, outputs)``; the targets must share its node and
    sample axes.  The result has the samples on the same axis as the
    predictions, so a batch's targets are the same slice of it: MSE targets
    as floats in that shape (a trailing output axis of 1 may be left off);
    softmax labels, ``(..., n)`` or ``(..., n, 1)``, as a boolean one-hot of
    that shape, each row True at its label's class; Cox ``(time, event)``
    pairs as floats, ``(..., n, 2)``.
    """
    targets = np.asarray(targets)
    lead = outputs[:-1]   # the node axes and the sample axis
    if loss == MSE:
        if targets.shape != outputs and (targets.shape != lead or outputs[-1] != 1):
            raise ValueError(_misfit(targets, outputs))
        return np.asarray(targets, dtype=float).reshape(outputs)
    if loss == SOFTMAX_CE:
        if targets.shape not in (lead, lead + (1,)):
            raise ValueError(_misfit(targets, outputs))
        classes = outputs[-1]
        # a label equals exactly one class index if it is an integer in
        # [0, classes), and none otherwise (NaN included)
        labels = targets.reshape(lead + (1,))
        onehot = labels == np.arange(classes, dtype=float)
        if np.count_nonzero(onehot) != labels.size:
            bad = labels[..., 0][~onehot.any(axis=-1)][0]
            raise ValueError(f"class label {bad} is not an integer in [0, {classes})")
        return onehot
    if loss == COX_PH:
        if targets.shape != lead + (2,) or outputs[-1] != 1:
            raise ValueError("cox partial likelihood needs (time, event) targets "
                             f"and a single risk-score output: {_misfit(targets, outputs)}")
        return np.asarray(targets, dtype=float)
    raise ValueError(f"unknown loss {loss!r}")


def _misfit(targets: np.ndarray, outputs: tuple[int, ...]) -> str:
    """The shape error of :func:`_prepare_targets`, formatted only when raised."""
    return f"targets of shape {targets.shape} do not fit predictions of shape {outputs}"


def _loss_kernel(preds: np.ndarray, prepared: np.ndarray, loss: str, value: bool):
    """The loss value per node if ``value``, else its gradient w.r.t. ``preds``.

    ``preds`` is ``(..., B, outputs)`` and ``prepared`` the batch's slice of
    :func:`_prepare_targets`.  Each loss is one block: the intermediates
    its value and its gradient share, then the one of the two asked for.
    The value has the node shape ``...`` (a scalar for one model).
    """
    if loss == MSE:
        diff = preds - prepared
        count = diff.shape[-2] * diff.shape[-1]
        if value:
            # np.mean's own sum and division, without its per-call overhead
            return (diff * diff).sum(axis=(-2, -1)) / count
        return 2.0 * diff / count
    if loss == SOFTMAX_CE:
        # ufunc reductions: the ndarray methods' sums and maxima, without their wrappers
        shifted = preds - np.maximum.reduce(preds, axis=-1, keepdims=True)
        probs = np.exp(shifted)
        logz = np.log(np.add.reduce(probs, axis=-1, keepdims=True))
        if value:
            nll = logz[..., 0] - shifted[prepared].reshape(preds.shape[:-1])   # each row's own class
            return np.add.reduce(nll, axis=-1) / preds.shape[-2]
        probs /= np.exp(logz)
        probs -= prepared   # 1 at each row's class, 0 (exactly) elsewhere
        probs /= preds.shape[-2]
        return probs
    if loss != COX_PH:
        raise ValueError(f"unknown loss {loss!r}")
    # Cox: every per-sample array below is in ascending time order, per node.
    order = np.argsort(prepared[..., 0], axis=-1, kind="stable")
    times = np.take_along_axis(prepared[..., 0], order, axis=-1)
    events = np.take_along_axis(prepared[..., 1], order, axis=-1)
    n_events = events.sum(axis=-1, keepdims=True)
    # The partial likelihood is a product over events.  A node with none
    # has the empty product 1, so its loss and its gradient are zero.
    has_events = n_events > 0
    if not has_events.any():
        return np.zeros(preds.shape[:-2])[()] if value else np.zeros_like(preds)
    partial = not has_events.all()   # never for one model
    if partial:
        n_events = np.where(has_events, n_events, 1.0)
    eta = np.take_along_axis(preds[..., 0], order, axis=-1)
    shift = eta.max(axis=-1, keepdims=True)
    exp_eta = np.exp(eta - shift)
    # Breslow's risk set of i is every j with t_j >= t_i, ties included:
    # the sum from the end of the order back to the first member of i's
    # run of equal times, shifted
    starts = np.ones(times.shape, dtype=bool)   # starts[p]: a run of equal times starts at p
    starts[..., 1:] = times[..., 1:] != times[..., :-1]
    pos = np.arange(times.shape[-1])
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=-1)
    tail_sums = np.cumsum(exp_eta[..., ::-1], axis=-1)[..., ::-1]
    risk_sums = np.take_along_axis(tail_sums, first, axis=-1)
    if value:
        log_risk = np.log(risk_sums) + shift
        out = -np.sum(events * (eta - log_risk), axis=-1, keepdims=True)
    else:
        # d/d eta_j: -(1/E) [ delta_j - exp(eta_j) * sum_{i: delta_i, t_i <= t_j} 1/S_i ],
        # the running sum from the start of the order to the last member of j's run
        ends = np.roll(starts, -1, axis=-1)   # a run ends where the next starts, or at the row's end
        last = np.minimum.accumulate(np.where(ends, pos, pos[-1])[..., ::-1], axis=-1)[..., ::-1]
        head_sums = np.cumsum(events / risk_sums, axis=-1)
        out = -(events - exp_eta * np.take_along_axis(head_sums, last, axis=-1))
    out = out / n_events
    if partial:
        out = np.where(has_events, out, 0.0)
    if value:
        return out[..., 0][()]
    deta = np.empty_like(out)
    np.put_along_axis(deta, order, out, axis=-1)
    return deta[..., None]


def output_grad(preds: np.ndarray, prepared: np.ndarray, loss: str) -> np.ndarray:
    """The loss gradient w.r.t. the predictions, per node of a stack, and no value.

    ``prepared`` is the batch's slice of :func:`_prepare_targets`, so no
    label is checked or converted here.  This is all a training step
    computes of its loss.
    """
    return _loss_kernel(preds, prepared, loss, value=False)


def loss_and_output_grad(preds: np.ndarray, targets: np.ndarray, loss: str):
    """Loss value and its gradient w.r.t. the predictions, per node of a stack.

    Prepares ``targets`` once for both; the gradient is byte-equal to
    :func:`output_grad` on the prepared targets.  No runner calls it: it is
    the tests' functional reference for a loss, and ``bench/tracer.py``
    patches it by name through ``protocols``.
    """
    preds = np.asarray(preds, dtype=float)
    prepared = _prepare_targets(targets, loss, preds.shape)
    return (_loss_kernel(preds, prepared, loss, value=True),
            _loss_kernel(preds, prepared, loss, value=False))


def sgd_step(params: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """One step along ``grads``; per-node gradients turn a shared model into a stack.

    No runner calls it: it is the tests' functional reference for the
    in-place step training runs (``_descend``), and ``bench/tracer.py``
    patches it by name through ``protocols``.
    """
    if lr <= 0:
        raise ValueError(f"need lr > 0, got {lr}")
    layers = [(w - lr * gw, b - lr * gb)
              for (w, b), (gw, gb) in zip(params.layers, grads.layers)]
    return ModelParams(layers=layers, activation=params.activation)


FEDAVG = "fedavg"
COORD_MEDIAN = "coord_median"
AGG_RULES = (FEDAVG, COORD_MEDIAN)


def aggregate(models: list[np.ndarray] | np.ndarray, rule: str = FEDAVG) -> np.ndarray:
    """Combine equally shaped parameter arrays into one, elementwise over the list.

    ``models`` is a list of arrays or one stacked (models, ...) array; a
    float64 array is used as it is, without a copy.
    """
    if len(models) == 0:
        raise ValueError("cannot aggregate an empty model list")
    stack = np.asarray(models, dtype=float)
    if rule == FEDAVG:
        return stack.mean(axis=0)
    if rule == COORD_MEDIAN:
        return np.median(stack, axis=0)
    raise ValueError(f"unknown aggregation rule {rule!r}")


def local_train(params: ModelParams, inputs: np.ndarray, targets: np.ndarray,
                loss: str, lr: float, batch_size: int, epochs: int) -> ModelParams:
    """Sequential mini-batch SGD; batch order is fixed, so runs are repeatable.

    ``inputs`` is ``(n, f)`` for one node, or ``(N, n, f)`` with ``(N, n, ...)``
    targets for N nodes of n samples each, trained at once from ``params``:
    one shared model, or a stack of N start models (a stack of any other
    node shape is rejected).  A stack returns a stack
    whose model k is byte-equal to training node k alone (once a step has
    run; with n = 0 the start model comes back as it is).

    The targets are checked and prepared once per call, so a bad label is
    rejected before any batch runs.  The start model is copied once, into
    arrays of the inputs' node shape that the returned model owns, and
    ``params`` is never written.  A step is the forward, the gradient alone
    (``output_grad`` on the batch's slice of the prepared targets) and the
    backward descended in place (``_descend``); no loss value is computed.
    """
    if batch_size < 1:
        raise ValueError(f"need batch_size >= 1, got {batch_size}")
    if epochs < 1:
        raise ValueError(f"need epochs >= 1, got {epochs}")
    if not lr > 0:
        raise ValueError(f"need lr > 0, got {lr}")
    lead = inputs.shape[:-1]   # the node axes and the sample axis
    prepared = _prepare_targets(targets, loss, lead + params.layers[-1][1].shape[-1:])
    node_shape = lead[:-1]
    if params.node_shape not in ((), node_shape):
        raise ValueError(f"a stack of {params.node_shape} start models does not fit "
                         f"inputs of node shape {node_shape}")
    nodes = (slice(None),) * (inputs.ndim - 2)
    batches = [nodes + (slice(start, start + batch_size),)
               for start in range(0, lead[-1], batch_size)]
    if not batches:
        return params
    model = ModelParams([(np.array(np.broadcast_to(w, node_shape + w.shape[-2:]), float, order="C"),
                          np.array(np.broadcast_to(b, node_shape + b.shape[-1:]), float, order="C"))
                         for w, b in params.layers], params.activation)
    for _ in range(epochs):
        for rows in batches:
            preds, cache = forward_with_cache(model, inputs[rows])
            _descend(model, cache, output_grad(preds, prepared[rows], loss), lr)
    return model


def evaluate(params: ModelParams, inputs: np.ndarray, targets: np.ndarray, loss: str):
    """Dataset loss plus accuracy (NaN for non-classification losses).

    Floats for one model; for a stack, or stacked inputs, node-shaped
    arrays whose entry k scores node k alone.
    """
    preds = forward(params, inputs)
    prepared = _prepare_targets(targets, loss, preds.shape)
    value = _loss_kernel(preds, prepared, loss, value=True)
    if loss == SOFTMAX_CE:   # the share of each node's rows whose top class is their label's
        top = np.argmax(preds, axis=-1)[..., None]
        acc = np.mean(np.take_along_axis(prepared, top, axis=-1), axis=(-2, -1))
    else:
        acc = np.full(preds.shape[:-2], np.nan)
    if preds.ndim == 2:
        return float(value), float(acc)
    return value, acc


def make_two_clusters(n: int, features: int = 2, separation: float = 3.0,
                      seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Balanced two-Gaussian-cluster classification data."""
    rng = np.random.default_rng(seed)
    half = n // 2
    center = np.full(features, separation / 2.0)
    x0 = rng.normal(0.0, 1.0, size=(half, features)) - center
    x1 = rng.normal(0.0, 1.0, size=(n - half, features)) + center
    x = np.concatenate([x0, x1])
    y = np.concatenate([np.zeros(half), np.ones(n - half)])
    perm = rng.permutation(n)
    return x[perm], y[perm]


def make_survival(n: int, features: int = 4, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Exponential survival times with log-linear hazard and 30% random censoring."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, size=(n, features))
    coef = rng.normal(0.0, 0.5, size=features)
    hazard = np.exp(x @ coef)
    times = rng.exponential(1.0 / hazard)
    events = (rng.random(n) > 0.3).astype(float)
    if events.sum() == 0:
        events[0] = 1.0
    return x, np.column_stack([times, events])
