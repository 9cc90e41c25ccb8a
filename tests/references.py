"""Functional references that several test modules compare against.

Each is composed from the library's own functional pieces, never from a
runner's in-place training path, so a test can value one batch's loss and
gradients directly.
"""

import numpy as np

from pbacc.learners import backward_from_output, forward_with_cache, loss_and_output_grad


def loss_and_grad(params, inputs, targets, loss):
    """Analytic loss and parameter gradients on one batch."""
    preds, cache = forward_with_cache(params, inputs)
    value, dpred = loss_and_output_grad(preds, targets, loss)
    return value, backward_from_output(params, cache, dpred)


def central_diff_grads(params, x, targets, loss, h=1e-6):
    """Central-difference gradients of :func:`loss_and_grad`'s loss, parameter by parameter."""
    flat = params.flattened_view
    out = np.empty_like(flat)
    for i in range(flat.size):
        plus, minus = flat.copy(), flat.copy()
        plus[i] += h
        minus[i] -= h
        lp, _ = loss_and_grad(params.with_flat(plus), x, targets, loss)
        lm, _ = loss_and_grad(params.with_flat(minus), x, targets, loss)
        out[i] = (lp - lm) / (2 * h)
    return out
