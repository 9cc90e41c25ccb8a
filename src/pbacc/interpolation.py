"""Interpolation nodes and the Berrut rational interpolant.

The encoder and decoder both rest on Berrut's barycentric rational
interpolant, whose weights alternate in sign along the sorted node line
(:func:`berrut_weights`).  That keeps the denominator free of real zeros
for any distinct nodes, so the interpolant has no poles on the real line.
This module is the only one that knows that order: callers list nodes in
any order they like.  Three node families are used:

* Chebyshev points of the first kind   -- data nodes (decode targets),
* Chebyshev points of the second kind  -- encoder nodes (one per worker),
* shifted Chebyshev points of the first kind -- noise nodes.

The shift places the noise block away from the data interval (-1, 1); it
moves decoding accuracy against privacy, not the absence of poles.

Coincidence rule.  A point z lies on node a_j when |z - a_j| is below the
node's guard band, :data:`COINCIDENCE_GUARD` * max(1, |a_j|).  There the
basis row is node j's indicator, the interpolation limit u(a_j) = X_j; when
a point lies on several nodes the first one wins.  ``make_plan`` nudges any
encoder node that lies on an interpolation node, and a set of nodes in
which one node lies on another counts as colliding.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Relative half-width of the node-coincidence guard band.
COINCIDENCE_GUARD = 1e-12

#: Offset applied to an encoder node that collides with an interpolation node.
COLLISION_NUDGE = 1e-9

#: Default shift of the noise-node block (see module docstring).
DEFAULT_NOISE_SHIFT = -2.0


def chebyshev_first(count: int) -> np.ndarray:
    """Chebyshev points of the first kind, cos((2j+1)pi/2n), j = 0..n-1."""
    _check_count("count", count, 1)
    j = np.arange(count)
    return np.cos((2 * j + 1) * np.pi / (2 * count))


def chebyshev_second(count: int) -> np.ndarray:
    """Chebyshev points of the second kind, cos(j*pi/(n-1)), j = 0..n-1."""
    _check_count("count", count, 2)
    j = np.arange(count)
    return np.cos(j * np.pi / (count - 1))


def shifted_chebyshev_first(count: int, shift: float) -> np.ndarray:
    """First-kind Chebyshev points translated by ``shift``."""
    return shift + chebyshev_first(count)


def berrut_weights(nodes: np.ndarray) -> np.ndarray:
    """Berrut's weights: node i gets (-1)^r, r its rank in descending order.

    For a descending node list the rank is the index.
    """
    nodes = np.asarray(nodes, dtype=float)
    weights = np.empty(len(nodes))
    weights[np.argsort(-nodes, kind="stable")] = (-1.0) ** np.arange(len(nodes))
    return weights


def _guard_band_mask(diff: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """True where ``diff[i, j]``, point i minus node j, lies in node j's guard band."""
    return np.abs(diff) < COINCIDENCE_GUARD * np.maximum(1.0, np.abs(nodes))


def _has_coincident_pair(nodes: np.ndarray) -> bool:
    """True when some node lies inside another node's guard band."""
    hits = _guard_band_mask(nodes[:, None] - nodes[None, :], nodes)
    np.fill_diagonal(hits, False)
    return bool(hits.any())


def berrut_basis_matrix(zs: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Berrut basis rows q_i(z) = (w_i/(z-a_i)) / sum_j w_j/(z-a_j), one per z.

    The w are the :func:`berrut_weights` of the nodes.  Each row is a
    partition of unity: it sums to 1 up to rounding.  A point on a node gets
    that node's indicator row (see the module docstring).
    """
    zs = np.asarray(zs, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    diff = zs[:, None] - nodes[None, :]
    hits = _guard_band_mask(diff, nodes)
    if hits.any():
        on_node = hits.any(axis=1)
        rows = np.zeros(diff.shape)
        rows[on_node, hits[on_node].argmax(axis=1)] = 1.0  # argmax: first hit
        rows[~on_node] = berrut_basis_matrix(zs[~on_node], nodes)
        return rows
    terms = berrut_weights(nodes) / diff
    return terms / terms.sum(axis=1, keepdims=True)


def berrut_basis(z: float, nodes: np.ndarray) -> np.ndarray:
    """The :func:`berrut_basis_matrix` row of the single point ``z``."""
    return berrut_basis_matrix([z], nodes)[0]


def berrut_eval(z: float, nodes: np.ndarray, payloads) -> np.ndarray:
    """Evaluate the Berrut interpolant through ``(nodes, payloads)`` at ``z``.

    Payloads may be an array stacked along axis 0 or a sequence of
    equally-shaped arrays.  At a node the basis row is an indicator, so the
    node's (finite) payload comes back exactly: u(a_j) = X_j.
    """
    nodes = np.asarray(nodes, dtype=float)
    stack = np.asarray(payloads, dtype=float)
    if stack.ndim == 0:
        raise ValueError("payloads must be at least 1-dimensional")
    if stack.shape[0] != len(nodes):
        raise ValueError(f"{len(nodes)} nodes but {stack.shape[0]} payloads")
    return np.tensordot(berrut_basis(z, nodes), stack, axes=(0, 0))


@dataclass(frozen=True, eq=False)
class CodingPlan:
    """All interpolation points of one coding configuration, as plain arrays.

    ``alphas`` holds the K + T interpolation nodes: the K data nodes (decode
    targets, first-kind Chebyshev) followed by the T noise nodes (shifted
    first-kind Chebyshev).  ``betas`` holds the N encoder nodes, one per
    worker (second-kind Chebyshev); those that collided with an
    interpolation node have been nudged by :data:`COLLISION_NUDGE`, and
    their indices are in ``perturbed``.  ``encoder_basis`` is the (N, K+T)
    :func:`berrut_basis_matrix` of ``betas`` over ``alphas``: row j maps the
    K+T coefficients to worker j's share.  All three arrays are read-only.
    """

    K: int
    T: int
    N: int
    alphas: np.ndarray
    betas: np.ndarray
    encoder_basis: np.ndarray
    perturbed: tuple[int, ...] = ()

    def worker_subset(self, subset: Sequence[int]) -> list[int]:
        """``subset`` as a list, checked to be nonempty, distinct worker indices."""
        subset = list(subset)
        if not subset:
            raise ValueError("subset must be nonempty")
        for j in subset:
            _check_count("subset index", j)
        if len(set(subset)) != len(subset):
            raise ValueError("subset indices must be distinct")
        if any(j >= self.N for j in subset):
            raise ValueError(f"subset indices must lie in [0, {self.N})")
        return subset


def _check_count(name: str, value, least: int = 0) -> None:
    """Refuse a count that is not an integer of at least ``least``; a numpy integer will do, a bool will not."""
    # a plain int passes without the slower abstract-class check
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"need an integer {name}, got {value!r}")
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")


def make_plan(K: int, T: int, N: int, shift: float = DEFAULT_NOISE_SHIFT) -> CodingPlan:
    """Construct a coding plan with K data, T noise and N encoder nodes.

    Raises when the K+T interpolation nodes are not pairwise distinct
    (possible when the shifted noise block overlaps the data block).
    """
    _check_count("K", K, 1)
    _check_count("T", T)
    _check_count("N", N, 2)   # N workers, one encoder node each
    if not math.isfinite(shift):
        raise ValueError(f"need a finite shift, got {shift}")
    alphas = chebyshev_first(K)
    if T > 0:
        alphas = np.concatenate([alphas, shifted_chebyshev_first(T, shift)])
    if _has_coincident_pair(alphas):
        raise ValueError(
            f"interpolation nodes collide for K={K}, T={T}, shift={shift}; "
            "move the noise shift away from the data interval")

    betas = chebyshev_second(N)
    collides = _guard_band_mask(betas[:, None] - alphas[None, :], alphas).any(axis=1)
    betas[collides] += COLLISION_NUDGE
    basis = berrut_basis_matrix(betas, alphas)
    for array in (alphas, betas, basis):
        array.flags.writeable = False
    return CodingPlan(K=K, T=T, N=N, alphas=alphas, betas=betas,
                      encoder_basis=basis, perturbed=tuple(np.flatnonzero(collides).tolist()))
