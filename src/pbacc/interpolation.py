"""Interpolation nodes and the Berrut rational interpolant.

The encoder and decoder both rest on the barycentric rational interpolant
with alternating weights (-1)^i.  On a monotonically ordered node sequence
this weight pattern keeps the denominator sign-alternating, so the
interpolant has no poles on the real line.  Three node families are used:

* Chebyshev points of the first kind   -- data nodes (decode targets),
* Chebyshev points of the second kind  -- encoder nodes (one per worker),
* shifted Chebyshev points of the first kind -- noise nodes.

The shift places the noise block outside the data interval (-1, 1).  A
negative shift puts the noise block *below* the data block, which continues
the alternating sign pattern of the concatenated (data, noise) node list for
every (K, T) and therefore keeps the encoder pole-free.  A positive shift
does the same only when K + T is even; for odd K + T the denominator gains a
real zero between the two blocks, inside the encoder-node range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Relative half-width of the node-coincidence guard band.
COINCIDENCE_GUARD = 1e-12

#: Offset applied to an encoder node that collides with an interpolation node.
COLLISION_NUDGE = 1e-9

#: Default shift of the noise-node block (see module docstring).
DEFAULT_NOISE_SHIFT = -2.0


class NodeCoincidenceError(ValueError):
    """Evaluation point lies within the guard band of node ``index``."""

    def __init__(self, z: float, index: int, node: float):
        super().__init__(f"z={z!r} coincides with node {index} ({node!r})")
        self.index = index


def chebyshev_first(count: int) -> np.ndarray:
    """Chebyshev points of the first kind, cos((2j+1)pi/2n), j = 0..n-1."""
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    j = np.arange(count)
    return np.cos((2 * j + 1) * np.pi / (2 * count))


def chebyshev_second(count: int) -> np.ndarray:
    """Chebyshev points of the second kind, cos(j*pi/(n-1)), j = 0..n-1."""
    if count < 2:
        raise ValueError(f"need count >= 2, got {count}")
    j = np.arange(count)
    return np.cos(j * np.pi / (count - 1))


def shifted_chebyshev_first(count: int, shift: float) -> np.ndarray:
    """First-kind Chebyshev points translated by ``shift``."""
    return shift + chebyshev_first(count)


def berrut_weights(count: int) -> np.ndarray:
    """Alternating barycentric weights (-1)^i."""
    return (-1.0) ** np.arange(count)


def _guard_band(nodes: np.ndarray) -> np.ndarray:
    """Half-width of each node's coincidence guard band."""
    return COINCIDENCE_GUARD * np.maximum(1.0, np.abs(nodes))


def _coincident_index(z: float, nodes: np.ndarray) -> int | None:
    """Index of the node within the guard band of ``z``, or None."""
    hits = np.nonzero(np.abs(z - nodes) < _guard_band(nodes))[0]
    return int(hits[0]) if hits.size else None


def _has_coincident_pair(nodes: np.ndarray) -> bool:
    """True when two nodes are closer than the widest guard band of the set."""
    if len(nodes) < 2:
        return False
    gaps = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(gaps, np.inf)
    return bool(gaps.min() < _guard_band(nodes).max())


def berrut_basis(z: float, nodes: np.ndarray) -> np.ndarray:
    """Berrut basis q_i(z) = ((-1)^i/(z-a_i)) / sum_j (-1)^j/(z-a_j).

    The basis is a partition of unity: sum_i q_i(z) = 1 up to rounding.
    Raises :class:`NodeCoincidenceError` when ``z`` falls inside the guard
    band of a node; callers take the interpolation limit there.
    """
    nodes = np.asarray(nodes, dtype=float)
    hit = _coincident_index(z, nodes)
    if hit is not None:
        raise NodeCoincidenceError(z, hit, float(nodes[hit]))
    terms = berrut_weights(len(nodes)) / (z - nodes)
    return terms / terms.sum()


def berrut_basis_matrix(zs: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Stacked Berrut basis rows, one per evaluation point.

    All evaluation points must be clear of the nodes; a CodingPlan
    guarantees this for its encoder nodes, so a violation here is an
    internal error rather than bad input.
    """
    zs = np.asarray(zs, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    diff = zs[:, None] - nodes[None, :]
    if np.any(np.abs(diff) < _guard_band(nodes)[None, :]):
        raise RuntimeError("evaluation point collides with a node; "
                           "the coding plan should have prevented this")
    terms = berrut_weights(len(nodes))[None, :] / diff
    return terms / terms.sum(axis=1, keepdims=True)


def berrut_eval(z: float, nodes: np.ndarray, payloads) -> np.ndarray:
    """Evaluate the Berrut interpolant through ``(nodes, payloads)`` at ``z``.

    Payloads may be an array stacked along axis 0 or a sequence of
    equally-shaped arrays.  At a node (within the guard band) the exact
    payload is returned, realizing the interpolation property u(a_j) = X_j.
    """
    nodes = np.asarray(nodes, dtype=float)
    stack = np.asarray(payloads, dtype=float)
    if stack.shape[0] != len(nodes):
        raise ValueError(f"{len(nodes)} nodes but {stack.shape[0]} payloads")
    if stack.ndim == 0:
        raise ValueError("payloads must be at least 1-dimensional")
    hit = _coincident_index(z, nodes)
    if hit is not None:
        return stack[hit].copy()
    q = berrut_basis(z, nodes)
    return np.tensordot(q, stack, axes=(0, 0))


@dataclass(frozen=True)
class CodingPlan:
    """All interpolation points of one coding configuration, as plain arrays.

    ``alphas`` holds the K + T interpolation nodes: the K data nodes (decode
    targets, first-kind Chebyshev) followed by the T noise nodes (shifted
    first-kind Chebyshev).  ``betas`` holds the N encoder nodes, one per
    worker (second-kind Chebyshev); those that collided with an
    interpolation node have been nudged by :data:`COLLISION_NUDGE`, and
    their indices are in ``perturbed``.  Both arrays are read-only.
    """

    K: int
    T: int
    N: int
    shift: float
    alphas: np.ndarray
    betas: np.ndarray
    perturbed: tuple[int, ...] = ()


def make_plan(K: int, T: int, N: int, shift: float = DEFAULT_NOISE_SHIFT) -> CodingPlan:
    """Construct a coding plan with K data, T noise and N encoder nodes.

    Raises when the K+T interpolation nodes are not pairwise distinct
    (possible when the shifted noise block overlaps the data block).
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    if T < 0:
        raise ValueError(f"need T >= 0, got {T}")
    alphas = chebyshev_first(K)
    if T > 0:
        alphas = np.concatenate([alphas, shifted_chebyshev_first(T, shift)])
    if _has_coincident_pair(alphas):
        raise ValueError(
            f"interpolation nodes collide for K={K}, T={T}, shift={shift}; "
            "move the noise shift away from the data interval")

    betas = chebyshev_second(N)
    perturbed = []
    for j in range(N):
        if _coincident_index(betas[j], alphas) is not None:
            betas[j] += COLLISION_NUDGE
            perturbed.append(j)
    alphas.flags.writeable = False
    betas.flags.writeable = False
    return CodingPlan(K=K, T=T, N=N, shift=shift, alphas=alphas, betas=betas,
                      perturbed=tuple(perturbed))
