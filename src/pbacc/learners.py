"""Desk-scale differentiable models, losses, optimizer and aggregation.

Everything here is plain real arithmetic (matrix products, elementwise
maps), so the same code runs unchanged on plaintext and on encoded tensors;
the only data-dependent branching lives inside the activations.  Gradients
are hand-written reverse accumulation, checked against central differences.
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
    def flattened_view(self) -> np.ndarray:
        """All parameters concatenated along axis 0."""
        return np.concatenate([t.ravel() for w, b in self.layers for t in (w, b)])

    @property
    def size(self) -> int:
        return sum(w.size + b.size for w, b in self.layers)

    def with_flat(self, flat: np.ndarray) -> "ModelParams":
        """Rebuild a params object of this shape from a flat vector."""
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.size,):
            raise ValueError(f"expected flat vector of length {self.size}, got {flat.shape}")
        layers, pos = [], 0
        for w, b in self.layers:
            nw = flat[pos:pos + w.size].reshape(w.shape)
            pos += w.size
            nb = flat[pos:pos + b.size].reshape(b.shape)
            pos += b.size
            layers.append((nw, nb))
        return ModelParams(layers=layers, activation=self.activation)

    def copy(self) -> "ModelParams":
        return ModelParams(layers=[(w.copy(), b.copy()) for w, b in self.layers],
                           activation=self.activation)


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets disagree in leading extent")


def init_mlp(sizes: list[int], activation: str = RELU, seed: int = 0) -> ModelParams:
    """Gaussian-initialized MLP with layer widths ``sizes``."""
    rng = np.random.default_rng(seed)
    layers = []
    for nin, nout in zip(sizes[:-1], sizes[1:]):
        w = rng.normal(0.0, 1.0 / np.sqrt(nin), size=(nin, nout))
        b = np.zeros(nout)
        layers.append((w, b))
    return ModelParams(layers=layers, activation=activation)


def _act(h: np.ndarray, kind: str) -> np.ndarray:
    if kind == RELU:
        return np.maximum(h, 0.0)
    if kind == TANH:
        return np.tanh(h)
    return h


def _act_grad(h: np.ndarray, kind: str) -> np.ndarray:
    if kind == RELU:
        return (h > 0.0).astype(float)
    if kind == TANH:
        return 1.0 - np.tanh(h) ** 2
    return np.ones_like(h)


def forward_with_cache(params: ModelParams, inputs: np.ndarray):
    """Affine+activation chain; returns output and the per-layer cache.

    Features run along the last axis.  A stacked ``(N, B, f)`` input is one
    batched matrix product per layer, byte-equal to N separate ``(B, f)``
    forwards; a flattened ``(N*B, f)`` product can differ in the last ulp.
    """
    x = np.asarray(inputs, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[-1] != params.layers[0][0].shape[0]:
        raise ValueError(f"input features {x.shape[-1]} do not match "
                         f"first layer extent {params.layers[0][0].shape[0]}")
    pre, post = [], [x]
    h = x
    last = len(params.layers) - 1
    for li, (w, b) in enumerate(params.layers):
        z = h @ w + b
        pre.append(z)
        h = z if li == last else _act(z, params.activation)
        post.append(h)
    return h, (pre, post)


def forward(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    out, _ = forward_with_cache(params, inputs)
    return out


def backward_from_output(params: ModelParams, cache, dout: np.ndarray) -> ModelParams:
    """Backpropagate a gradient w.r.t. the network output to all parameters."""
    pre, post = cache
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    delta = np.asarray(dout, dtype=float)
    last = len(params.layers) - 1
    for li in range(last, -1, -1):
        w, _ = params.layers[li]
        if li != last:
            delta = delta * _act_grad(pre[li], params.activation)
        grads[li] = (post[li].T @ delta, delta.sum(axis=0))
        if li > 0:
            delta = delta @ w.T
    return ModelParams(layers=grads, activation=params.activation)


def _loss_value(preds: np.ndarray, targets: np.ndarray, loss: str):
    """Loss value, plus the intermediates its gradient reuses (None if it is 0).

    The one place each loss is computed: ``loss_and_output_grad`` takes its
    value from here, and ``evaluate`` uses the value alone, without
    building the gradient.
    """
    n = preds.shape[0]
    if loss == MSE:
        targets = np.asarray(targets, dtype=float).reshape(preds.shape)
        diff = preds - targets
        return float(np.mean(diff * diff)), diff
    if loss == SOFTMAX_CE:
        labels = np.asarray(targets).reshape(n).astype(int)
        if labels.min() < 0 or labels.max() >= preds.shape[1]:
            raise ValueError("class labels out of range for the logit width")
        shifted = preds - preds.max(axis=1, keepdims=True)
        logz = np.log(np.sum(np.exp(shifted), axis=1))
        return float(np.mean(logz - shifted[np.arange(n), labels])), (shifted, logz, labels)
    if loss == COX_PH:
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != 2 or targets.shape[1] != 2 or preds.shape[1] != 1:
            raise ValueError("cox partial likelihood needs (time, event) targets "
                             "and a single risk-score output")
        times, events = targets[:, 0], targets[:, 1]
        n_events = events.sum()
        if n_events == 0:
            # The partial likelihood is a product over events.  With none it is
            # the empty product 1, so the loss and its gradient are zero.
            return 0.0, None
        eta = preds[:, 0]
        shift = eta.max()
        exp_eta = np.exp(eta - shift)
        # sum over the risk set of i (row i: t_j >= t_i), shifted
        risk_sums = (times[None, :] >= times[:, None]) @ exp_eta
        log_risk = np.log(risk_sums) + shift
        value = float(-np.sum(events * (eta - log_risk)) / n_events)
        return value, (times, events, n_events, exp_eta, risk_sums)
    raise ValueError(f"unknown loss {loss!r}")


def loss_and_output_grad(preds: np.ndarray, targets: np.ndarray, loss: str):
    """Loss value and its gradient w.r.t. the predictions."""
    preds = np.asarray(preds, dtype=float)
    value, terms = _loss_value(preds, targets, loss)
    if loss == MSE:
        diff = terms
        return value, 2.0 * diff / diff.size
    if loss == SOFTMAX_CE:
        shifted, logz, labels = terms
        n = preds.shape[0]
        probs = np.exp(shifted) / np.exp(logz)[:, None]
        probs[np.arange(n), labels] -= 1.0
        return value, probs / n
    if terms is None:
        return value, np.zeros_like(preds)
    times, events, n_events, exp_eta, risk_sums = terms
    # d/d eta_j: -(1/E) [ delta_j - exp(eta_j) * sum_{i: delta_i, t_i <= t_j} 1/S_i ]
    inv_sums = events / risk_sums
    # the risk sets j is in (row j: t_j >= t_i), the transpose of the matrix
    # above built as its own contiguous comparison: casting a transposed
    # view for the product costs twice the product
    in_risk_sets = times[:, None] >= times[None, :]
    deta = -(events - exp_eta * (in_risk_sets @ inv_sums)) / n_events
    return value, deta[:, None]


def loss_and_grad(params: ModelParams, batch: Batch, loss: str):
    """Analytic loss and parameter gradients on one batch."""
    preds, cache = forward_with_cache(params, batch.inputs)
    value, dpred = loss_and_output_grad(preds, batch.targets, loss)
    return value, backward_from_output(params, cache, dpred)


def sgd_step(params: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    if lr <= 0:
        raise ValueError(f"need lr > 0, got {lr}")
    layers = [(w - lr * gw, b - lr * gb)
              for (w, b), (gw, gb) in zip(params.layers, grads.layers)]
    return ModelParams(layers=layers, activation=params.activation)


FEDAVG = "fedavg"
COORD_MEDIAN = "coord_median"
AGG_RULES = (FEDAVG, COORD_MEDIAN)


def aggregate(models: list[np.ndarray] | np.ndarray, rule: str = FEDAVG,
              weights: list[float] | None = None) -> np.ndarray:
    """Combine equally shaped parameter arrays into one, elementwise over the list.

    ``models`` is a list of arrays or one stacked (models, ...) array; a
    float64 array is used as it is, without a copy.
    """
    if len(models) == 0:
        raise ValueError("cannot aggregate an empty model list")
    stack = np.asarray(models, dtype=float)
    if rule == FEDAVG:
        if weights is None:
            return stack.mean(axis=0)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(models),):
            raise ValueError("one weight per model required")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        return np.tensordot(weights, stack, axes=(0, 0))
    if rule == COORD_MEDIAN:
        return np.median(stack, axis=0)
    raise ValueError(f"unknown aggregation rule {rule!r}")


def local_train(params: ModelParams, inputs: np.ndarray, targets: np.ndarray,
                loss: str, lr: float, batch_size: int, epochs: int) -> ModelParams:
    """Sequential mini-batch SGD; batch order is fixed, so runs are repeatable."""
    model = params
    n = inputs.shape[0]
    for _ in range(epochs):
        for start in range(0, n, batch_size):
            batch = Batch(inputs[start:start + batch_size], targets[start:start + batch_size])
            _, grads = loss_and_grad(model, batch, loss)
            model = sgd_step(model, grads, lr)
    return model


def evaluate(params: ModelParams, inputs: np.ndarray, targets: np.ndarray, loss: str):
    """Dataset loss plus accuracy (NaN for non-classification losses)."""
    preds = forward(params, inputs)
    value, _ = _loss_value(preds, targets, loss)
    if loss == SOFTMAX_CE:
        labels = np.asarray(targets).reshape(-1).astype(int)
        acc = float(np.mean(np.argmax(preds, axis=1) == labels))
    else:
        acc = float("nan")
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


def make_survival(n: int, features: int = 4, seed: int = 0,
                  censor_rate: float = 0.3) -> tuple[np.ndarray, np.ndarray]:
    """Exponential survival times with log-linear hazard and random censoring."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, size=(n, features))
    coef = rng.normal(0.0, 0.5, size=features)
    hazard = np.exp(x @ coef)
    times = rng.exponential(1.0 / hazard)
    events = (rng.random(n) > censor_rate).astype(float)
    if events.sum() == 0:
        events[0] = 1.0
    return x, np.column_stack([times, events])
