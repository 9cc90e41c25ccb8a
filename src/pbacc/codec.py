"""Encoding of real tensors into worker shares and approximate decoding.

``encode`` compresses the leading (coding) axis by a factor K: contiguous
groups of K slices are mapped to the K data nodes and padded with T Gaussian
noise blocks at the noise nodes, then the resulting rational interpolant is
evaluated at every worker's encoder node at once, as the plan's (N, K+T)
encoder basis applied to the stacked coefficients.  ``decode`` rebuilds the
function values at the data nodes from whatever subset of worker results
arrived, which is what gives the scheme its straggler tolerance.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .interpolation import (
    CodingPlan,
    berrut_basis,  # noqa: F401 -- uncalled; bench/tracer.py patches it by this name
    berrut_basis_matrix,
    _has_coincident_pair,
)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise configuration: T blocks of i.i.d. N(0, sigma_n^2 / T) entries."""

    sigma_n: float
    T: int
    seed: int

    def __post_init__(self):
        if self.sigma_n < 0:
            raise ValueError(f"need sigma_n >= 0, got {self.sigma_n}")
        if self.T < 0:
            raise ValueError(f"need T >= 0, got {self.T}")


class Share(NamedTuple):
    """One worker's evaluation of the encoding interpolant."""

    beta: float
    payload: np.ndarray


@dataclass(frozen=True, eq=False)
class Shares:
    """The N shares of one encode, worker-major.

    ``betas`` (N,) are the plan's encoder nodes and ``payloads``
    (N, ceil(extent / K), *rest) the interpolant evaluated at each of them.
    ``shares[j]`` is worker j's :class:`Share`, whose payload is a view of
    ``payloads[j]``.
    """

    betas: np.ndarray
    payloads: np.ndarray

    def __len__(self) -> int:
        return len(self.betas)

    def __getitem__(self, j: int) -> Share:
        return Share(float(self.betas[j]), self.payloads[j])

    def __iter__(self) -> Iterator[Share]:
        return (self[j] for j in range(len(self)))


def encode(x: np.ndarray, plan: CodingPlan, noise: NoiseSpec,
           pad: bool = True) -> tuple[Shares, list[np.ndarray]]:
    """Encode ``x`` along its leading axis into N shares plus T noise blocks.

    The leading (coding) axis is processed in contiguous groups of K slices;
    the final short group is zero-padded when ``pad`` is true (decode
    truncates via its ``out_extent`` argument).  Each share's leading extent
    is ceil(extent / K).  Noise is drawn once per call from ``noise.seed``
    and shared by all encoder-node evaluations; each of the T blocks has the
    share payload shape, so distinct groups see independent noise entries.

    Returns the shares as one worker-major :class:`Shares` and the drawn
    noise blocks.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        raise ValueError("need a tensor of rank >= 1 to encode")
    if noise.T != plan.T:
        raise ValueError(f"noise spec has T={noise.T} but plan has T={plan.T}")
    extent = x.shape[0]
    K, T = plan.K, plan.T
    groups, rem = divmod(extent, K)
    if rem:
        if not pad:
            raise ValueError(
                f"coding-axis extent {extent} is not a multiple of K={K} and padding is disabled")
        groups += 1
        padding = np.zeros((groups * K - extent,) + x.shape[1:])
        x = np.concatenate([x, padding], axis=0)

    # (K, groups, *rest): element i of group g sits at data node alpha_i.
    stacked = x.reshape(groups, K, *x.shape[1:]).swapaxes(0, 1)
    if T > 0:
        rng = np.random.default_rng(noise.seed)
        blocks = rng.normal(0.0, noise.sigma_n / np.sqrt(T), size=(T, groups) + x.shape[1:])
        coeffs = np.concatenate([stacked, blocks], axis=0)
    else:
        blocks = np.empty((0, groups) + x.shape[1:])
        coeffs = stacked

    payloads = np.tensordot(plan.encoder_basis, coeffs, axes=(1, 0))  # (N, groups, *rest)
    return Shares(plan.betas, payloads), list(blocks)


def decode(results: Sequence[tuple[float, np.ndarray]], plan: CodingPlan,
           out_extent: int | None = None) -> np.ndarray:
    """Decode worker results back to the data nodes.

    ``results`` holds (encoder node value, payload) pairs from any nonempty
    subset of workers, for example ``[shares[j] for j in subset]``; payloads
    must share one shape, with the coding axis leading.  Results are sorted
    by node value descending (the natural second-kind order) before the
    alternating weights are assigned, which keeps the decoding interpolant
    pole-free.  The interpolant is evaluated at each of the K data nodes and
    the outputs are re-interleaved along the leading axis; ``out_extent``
    truncates encode-time padding.
    """
    order, rows = _decode_basis(np.array([float(b) for b, _ in results]), plan)
    payloads = [np.asarray(p, dtype=float) for _, p in results]
    if any(p.shape != payloads[0].shape for p in payloads):
        raise ValueError("result payloads disagree in shape")
    return _apply_decode(rows, np.stack([payloads[i] for i in order]), out_extent)


def _decode_basis(betas: np.ndarray, plan: CodingPlan) -> tuple[np.ndarray, np.ndarray]:
    """The decoding interpolant of one worker subset, evaluated at the data nodes.

    ``betas`` are the subset's encoder node values in any order.  Returns the
    descending order of ``betas`` and the (K, n) Berrut basis of the data
    nodes over the nodes in that order; a result sitting on a data node gets
    its indicator row.  A caller that decodes many payloads from the same
    subset builds this once.
    """
    if len(betas) == 0:
        raise ValueError("need at least one result to decode")
    if _has_coincident_pair(betas):
        raise ValueError("duplicate encoder node values in results")
    order = np.argsort(-betas)
    return order, berrut_basis_matrix(plan.alphas[:plan.K], betas[order])


def _apply_decode(rows: np.ndarray, stack: np.ndarray, out_extent: int | None) -> np.ndarray:
    """Apply :func:`_decode_basis` rows to results stacked in its order.

    ``stack`` is (n, G, *rest); the result is (G*K, *rest) with the K data
    nodes re-interleaved along the leading axis, truncated to ``out_extent``.
    One product per row: a single (K, n) product rounds differently for K >= 2.
    """
    groups = stack.shape[1]
    per_node = np.empty((len(rows),) + stack.shape[1:])
    for i, row in enumerate(rows):
        per_node[i] = np.tensordot(row, stack, axes=(0, 0))
    out = per_node.swapaxes(0, 1).reshape((groups * len(rows),) + stack.shape[2:])
    if out_extent is not None:
        if not 0 < out_extent <= out.shape[0]:
            raise ValueError(f"out_extent {out_extent} not in (0, {out.shape[0]}]")
        out = out[:out_extent]
    return out


def roundtrip_error(x: np.ndarray, f: Callable[[np.ndarray], np.ndarray],
                    plan: CodingPlan, noise: NoiseSpec,
                    subset: Sequence[int]) -> float:
    """Sup-norm relative error of encode -> apply f per share -> decode.

    The reference is ``f`` applied directly to ``x``; the error is
    max |decoded - f(x)| normalized by max |f(x)| (or 1 if f(x) is zero).
    """
    subset = plan.worker_subset(subset)
    x = np.asarray(x, dtype=float)
    shares, _ = encode(x, plan, noise)
    results = [(shares[j].beta, f(shares[j].payload)) for j in subset]
    decoded = decode(results, plan, out_extent=x.shape[0])
    expected = f(x)
    scale = np.max(np.abs(expected))
    return float(np.max(np.abs(decoded - expected)) / max(scale, np.finfo(float).tiny))


# Tensor wire format: uint32 rank, rank x uint64 extents, then row-major
# float64 payload, all little-endian.  Used for golden files.

def tensor_to_bytes(x: np.ndarray) -> bytes:
    x = np.ascontiguousarray(x, dtype="<f8")
    header = struct.pack("<I", x.ndim) + struct.pack(f"<{x.ndim}Q", *x.shape)
    return header + x.tobytes()


def tensor_from_bytes(raw: bytes) -> np.ndarray:
    (rank,) = struct.unpack_from("<I", raw, 0)
    shape = struct.unpack_from(f"<{rank}Q", raw, 4)
    offset = 4 + 8 * rank
    count = int(np.prod(shape)) if rank else 1
    data = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
    return data.reshape(shape).copy()


def write_tensor(fp: BinaryIO | str, x: np.ndarray) -> None:
    if isinstance(fp, str):
        with open(fp, "wb") as fh:
            fh.write(tensor_to_bytes(x))
    else:
        fp.write(tensor_to_bytes(x))


def read_tensor(fp: BinaryIO | str) -> np.ndarray:
    if isinstance(fp, str):
        with open(fp, "rb") as fh:
            return tensor_from_bytes(fh.read())
    return tensor_from_bytes(fp.read())
