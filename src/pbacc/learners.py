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
MSE targets made float, softmax labels validated and one-hot encoded as
float64, Cox pairs shape-checked), and every batch scores against a slice
of them, in float64 throughout.  Each
loss is one block of ``_loss_kernel``: its intermediates, then the value or
the gradient, whichever the caller asked for.  Training steps ask for the
gradient (``output_grad``); ``evaluate`` asks for the value.  No training
step computes a value or scans raw labels.

There is one forward and one backward, and both run on a binding, the
cache a forward returns (:class:`_Binding`).  The first forward for a model
and an input shape binds one: it allocates every array the forward writes
and takes each layer's bias row once.  A forward given that cache checks
that the model is the bound one and the inputs have the bound shape and
dtype, then only computes into the bound arrays.  The first backward
allocates the binding's gradient buffer, one flat array laid out as a flat
model, and takes the views the backward reads, so ``forward`` and
``evaluate`` never pay for them.  ``backward_from_output`` returns copies
of the gradients; a training step gives ``_backward`` a learning rate
instead, and after the last layer it updates the model's one flat array
(``ModelParams.with_flat``) with one scale and one subtraction, byte-equal
to ``sgd_step`` on the collected gradients.  ``local_train`` copies its
start model once per call into such an array, so a caller's model is never
written, and keeps one binding per batch shape for the call.

The Cox partial likelihood takes Breslow's convention for tied times
(Breslow 1974): the risk set of sample i is every j with t_j >= t_i, so a
run of equal times shares one risk set.  Its risk sums and its gradient's
sums over events are cumulative sums along one stable sort of each node's
times, O(n log n) per node, with no n×n risk-set matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .interpolation import _check_integer

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
    #: The one array every layer is a view of, for a model built by ``with_flat``
    #: (a training step updates it with one subtraction); None otherwise.
    _flat: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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

        A ``(N, size)`` array of flat models gives a stack of N models.  Its
        layers are views of ``flat``, which a training step updates in place.
        """
        flat = np.asarray(flat, dtype=float)
        if flat.ndim not in (1, 2) or flat.shape[-1] != self.size:
            raise ValueError(f"expected flat vectors of length {self.size}, got {flat.shape}")
        return self._over(flat)

    def _over(self, flat: np.ndarray) -> "ModelParams":
        """A model of this shape whose layers are views of ``flat``, ``(..., size)`` float64."""
        model = ModelParams(layers=_layer_views(flat, self.layers), activation=self.activation)
        model._flat = flat
        return model

    def copy(self) -> "ModelParams":
        return ModelParams(layers=[(w.copy(), b.copy()) for w, b in self.layers],
                           activation=self.activation)


def _layer_views(flat: np.ndarray, layers) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's ``(w, b)`` as views of ``flat``, ``(..., size)``, shaped like ``layers``.

    The layout is ``flattened_view``'s: per layer, w's entries row by row, then b's.
    """
    lead = flat.shape[:-1]
    views, pos = [], 0
    for w, _ in layers:
        rows, cols = w.shape[-2:]
        end = pos + rows * cols
        views.append((flat[..., pos:end].reshape(lead + (rows, cols)), flat[..., end:end + cols]))
        pos = end + cols
    return views


def init_mlp(sizes: list[int], activation: str = RELU, seed: int = 0) -> ModelParams:
    """Gaussian-initialized MLP with layer widths ``sizes``, inputs first."""
    if len(sizes) < 2:
        raise ValueError(f"need at least two layer sizes (inputs and outputs), got {list(sizes)}")
    rng = np.random.default_rng(seed)
    layers = []
    for nin, nout in zip(sizes[:-1], sizes[1:]):
        w = rng.normal(0.0, 1.0 / np.sqrt(nin), size=(nin, nout))
        b = np.zeros(nout)
        layers.append((w, b))
    return ModelParams(layers=layers, activation=activation)


#: Each hidden activation's map, written into a given array, and its
#: derivative at (pre-activation, activation).  Identity has neither: its
#: output is its pre-activation and its derivative is 1.
_ACTIVATION_MAPS = {
    RELU: (lambda z, out: np.maximum(z, 0.0, out=out), lambda z, a: z > 0.0),
    TANH: (np.tanh, lambda z, a: 1.0 - np.square(a)),
}

_FLOAT = np.dtype(float)


class _Binding:
    """A model's forward and backward bound to one input shape: the cache.

    It holds the arrays a forward writes, ``pre`` (each layer's
    pre-activation) and ``post`` (each layer's output: the last layer's, and
    an identity activation's, is its ``pre`` array itself; relu and tanh
    write distinct arrays, since relu's derivative reads ``pre``), and the
    input slot ``inputs``, which each forward points at its input.  It also
    takes, once, each layer's bias row ``b[..., None, :]`` and the
    activation and its derivative.  The weights are the model's own arrays,
    so an in-place step is seen by the next forward.  The first backward
    takes the rest (``_bind_backward``): the gradient buffer ``grad``, of the
    product's node shape and laid out as a flat model, its per-layer
    ``(gw, gb)`` views ``grads`` and the transposes the backward reads.

    ``arrays`` binds given ``(pre, post)`` arrays, such as one slot's views
    of another binding's arrays; by default they are allocated for inputs of
    ``shape``, which a forward then fills.
    """

    __slots__ = ("model", "shape", "inputs", "pre", "post", "_act", "_dact",
                 "_forward", "_steps", "grad", "grads")

    def __init__(self, params: ModelParams, shape: tuple[int, ...], arrays=None):
        layers = params.layers
        act, dact = _ACTIVATION_MAPS.get(params.activation, (None, None))
        self._act, self._dact = act, dact
        if arrays is None:   # the product's node axes: the inputs' and the model's, broadcast
            nodes, model_nodes = shape[:-2], layers[0][1].shape[:-1]
            if model_nodes not in ((), nodes):
                nodes = np.broadcast_shapes(nodes, model_nodes)
            pre = [np.empty(nodes + (shape[-2], w.shape[-1])) for w, _ in layers]
            arrays = pre, [z if act is None else np.empty(z.shape) for z in pre[:-1]] + pre[-1:]
        self.model, self.shape, self.inputs = params, shape, None
        self.pre, self.post = arrays
        self._steps = None   # the backward's views, taken by its first run
        # Per layer, in layer order: w, the bias row, the pre-activation, and
        # the output array if the layer applies an activation, else None.
        self._forward = [(w, b[..., None, :], z, None if a is z else a)
                         for (w, b), z, a in zip(layers, *arrays)]

    def _bind_backward(self) -> list[tuple]:
        """Allocate the gradient buffer and take the backward's views; return its steps.

        A step per layer, last layer first: ``(gw, gb)``, w's transpose and
        the layer input's (both None for the first layer, whose input is the
        slot), and what the activation's derivative reads (both None for none).
        """
        layers = self.model.layers
        self.grad = np.empty(self.pre[0].shape[:-2] + (self.model.size,))
        self.grads = _layer_views(self.grad, layers)
        steps, h_t = [], None
        for (w, _), (gw, gb), z, a in zip(layers, self.grads, self.pre, self.post):
            hidden = a is not z
            steps.append((gw, gb, None if h_t is None else w.mT, h_t,
                          z if hidden else None, a if hidden else None))
            h_t = a.mT
        steps.reverse()   # the backward runs last layer first
        self._steps = steps
        return steps

    def slot(self, k: int) -> "_Binding":
        """Slot ``k`` of the leading input axis, bound to views of this binding's arrays.

        Only for a binding of one shared model, whose weights every slot reads.
        """
        if self.model.node_shape:
            raise ValueError("a slot of a stack of models is not bound")
        pre = [z[k] for z in self.pre]
        post = [zk if a is z else a[k] for z, zk, a in zip(self.pre, pre, self.post)]
        return _Binding(self.model, self.shape[1:], (pre, post))


def forward_with_cache(params: ModelParams, inputs: np.ndarray, cache: _Binding | None = None):
    """Affine+activation chain; returns the output and the cache it was computed in.

    Features run along the last axis.  A stacked ``(N, B, f)`` input is one
    batched matrix product per layer, byte-equal to N separate ``(B, f)``
    forwards, with one shared model or a stack of N models; a flattened
    ``(N*B, f)`` product can differ in the last ulp.

    Without ``cache`` this is the first forward for ``params`` and the
    inputs' shape: it binds a new cache (:class:`_Binding`), which allocates
    every array the forward writes and takes every view a later step reads.
    Given the cache of such a call, it checks that ``params`` is the very
    model the cache was bound to and that ``inputs`` is a float64 array of
    the bound shape, and refuses anything else with a ``ValueError``; then
    it only computes, writing the matmul, bias and activation results into
    the cache's arrays and pointing its input slot at ``inputs``.  The
    output is the cache's last ``pre`` array, byte-equal to a fresh call's.
    """
    if cache is None:
        x = np.asarray(inputs, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[-1] != params.layers[0][0].shape[-2]:
            raise ValueError(f"input features {x.shape[-1]} do not match "
                             f"first layer extent {params.layers[0][0].shape[-2]}")
        cache = _Binding(params, x.shape)
    elif params is not cache.model:
        raise ValueError("the cache is bound to another model")
    elif not isinstance(inputs, np.ndarray) or inputs.dtype != _FLOAT or inputs.shape != cache.shape:
        raise ValueError(f"the cache is bound to float64 inputs of shape {cache.shape}, got "
                         f"{np.shape(inputs)} {getattr(inputs, 'dtype', type(inputs).__name__)}")
    else:
        x = inputs
    cache.inputs = h = x
    act = cache._act
    for w, bias, z, a in cache._forward:
        np.matmul(h, w, out=z)
        z += bias
        h = z if a is None else act(z, a)
    return h, cache


def forward(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    out, _ = forward_with_cache(params, inputs)
    return out


def _backward(params: ModelParams, cache: _Binding, dout: np.ndarray, lr: float | None = None):
    """The one backward: each layer's gradient, last layer first, from ``cache``'s views.

    Each gradient is written into the cache's flat gradient buffer.  Without
    ``lr`` it returns copies of every layer's ``(gw, gb)``, in layer order.
    With ``lr`` it is the training step: after the last layer it scales the
    buffer and subtracts it from ``params``' flat array, which must exist
    (``ModelParams.with_flat``) in the gradients' node shape.  Every
    gradient is computed before the update and each entry is updated by the
    same elementwise ops, so this is byte-equal to
    ``sgd_step(params, backward_from_output(params, cache, dout), lr)``.
    ``cache`` must be bound to ``params`` itself, so a step never writes a
    model that did not run the cached forward.
    """
    if params is not cache.model:
        raise ValueError("the cache is bound to another model")
    if lr is not None and params._flat is None:
        raise ValueError("an in-place step needs a flat-backed model (ModelParams.with_flat)")
    delta, dact = dout, cache._dact
    for gw, gb, w_t, h_t, z, a in cache._steps or cache._bind_backward():
        if z is not None:   # a hidden layer: delta is the product passed down, owned here
            delta *= dact(z, a)
        np.matmul(cache.inputs.mT if h_t is None else h_t, delta, out=gw)
        np.add.reduce(delta, axis=-2, out=gb)
        if w_t is not None:
            delta = delta @ w_t
    if lr is None:
        return [(gw.copy(), gb.copy()) for gw, gb in cache.grads]
    grad = cache.grad
    grad *= lr
    params._flat -= grad


def backward_from_output(params: ModelParams, cache: _Binding, dout: np.ndarray) -> ModelParams:
    """Backpropagate a gradient w.r.t. the network output to all parameters.

    No runner calls it: training steps in place (``_backward`` with a
    learning rate).  It stays as the tests' functional reference for the
    gradients, and ``bench/tracer.py`` patches it by name through
    ``protocols``.
    """
    grads = _backward(params, cache, np.asarray(dout, dtype=float))
    return ModelParams(layers=grads, activation=params.activation)


def _prepare_targets(targets: np.ndarray, loss: str, outputs: tuple[int, ...]) -> np.ndarray:
    """Check and convert a dataset's targets once, for every batch cut from it.

    ``outputs`` is the shape of the predictions the targets are scored
    against, ``(..., n, outputs)``; the targets must share its node and
    sample axes.  The result has the samples on the same axis as the
    predictions, so a batch's targets are the same slice of it: MSE targets
    as floats in that shape (a trailing output axis of 1 may be left off);
    softmax labels, ``(..., n)`` or ``(..., n, 1)``, as a float64 one-hot of
    that shape, each row 1.0 at its label's class and 0.0 elsewhere; Cox
    ``(time, event)`` pairs as floats, ``(..., n, 2)``.  Every result is
    float64, so a batch's gradient subtracts it without a casting loop.
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
        return onehot.astype(float)
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
        count = float(diff.shape[-2] * diff.shape[-1])   # a float divides faster than an int
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
            own = shifted[prepared.astype(bool)].reshape(preds.shape[:-1])   # each row's own class
            nll = logz[..., 0] - own
            return np.add.reduce(nll, axis=-1) / preds.shape[-2]
        probs /= np.exp(logz)
        probs -= prepared   # 1 at each row's class, 0 (exactly) elsewhere
        probs /= float(preds.shape[-2])   # a float divides faster than an int
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
    out = np.where(has_events, out / n_events, 0.0)
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
    in-place step training runs (``_backward`` with a learning rate), and
    ``bench/tracer.py`` patches it by name through ``protocols``.
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
    one flat array of the inputs' node shape that the returned model owns,
    and ``params`` is never written.  Each batch's inputs and targets are
    views taken once per call, and the call keeps one cache per batch shape
    (the full batches' and a short last batch's), bound by its first
    forward.  A step is the forward into that cache, the gradient alone
    (``output_grad`` on the batch's targets) and the backward with its one
    flat update (``_backward``); no loss value is computed.
    """
    for name, count in (("batch_size", batch_size), ("epochs", epochs)):
        _check_integer(name, count)
    if batch_size < 1:
        raise ValueError(f"need batch_size >= 1, got {batch_size}")
    if epochs < 1:
        raise ValueError(f"need epochs >= 1, got {epochs}")
    if not (lr > 0 and math.isfinite(lr)):
        raise ValueError(f"need a finite lr > 0, got {lr}")
    lead = inputs.shape[:-1]   # the node axes and the sample axis
    prepared = _prepare_targets(targets, loss, lead + params.layers[-1][1].shape[-1:])
    node_shape = lead[:-1]
    if params.node_shape not in ((), node_shape):
        raise ValueError(f"a stack of {params.node_shape} start models does not fit "
                         f"inputs of node shape {node_shape}")
    x = np.asarray(inputs, dtype=float)
    nodes = (slice(None),) * (x.ndim - 2)
    rows = [nodes + (slice(start, start + batch_size),) for start in range(0, lead[-1], batch_size)]
    batches = [(x[r], prepared[r]) for r in rows]
    if not batches:
        return params
    flat = np.asarray(params.flattened_view, dtype=float)   # a fresh array, the result's own
    if flat.shape[:-1] != node_shape:   # one shared start model for a stack of nodes
        flat = np.array(np.broadcast_to(flat, node_shape + flat.shape[-1:]), order="C")
    model = params._over(flat)
    caches = {}
    for _ in range(epochs):
        for batch, batch_targets in batches:
            preds, cache = forward_with_cache(model, batch, caches.get(batch.shape))
            caches[batch.shape] = cache
            _backward(model, cache, output_grad(preds, batch_targets, loss), lr)
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
