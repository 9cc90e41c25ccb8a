"""Encoding of real tensors into worker shares and approximate decoding.

``encode`` compresses the leading (coding) axis by a factor K: contiguous
groups of K slices are mapped to the K data nodes and padded with T Gaussian
noise blocks at the noise nodes, then the resulting rational interpolant is
evaluated at every worker's encoder node at once, as the plan's (N, K+T)
encoder basis applied to the stacked coefficients.  ``decode`` rebuilds the
function values at the data nodes from whatever subset of worker results
arrived, which is what gives the scheme its straggler tolerance.  It is one
linear combination of the n results per data node, computed in one pass
over the results: they are copied per span of blocks into one staging
buffer and multiplied per cache-sized block of coding groups, so each
result is read once and no stacked copy of them is made.  Results that fit
one block (every decode the protocols make) are multiplied by one dot per
data node, whose bytes the golden outputs pin; results that span blocks
are multiplied by one (K, n) product per block, which reads the staged
block once instead of K times.
"""

from __future__ import annotations

import math
import numbers
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
        if not (self.sigma_n >= 0 and math.isfinite(self.sigma_n)):
            raise ValueError(f"need a finite sigma_n >= 0, got {self.sigma_n}")
        if self.T < 0:
            raise ValueError(f"need T >= 0, got {self.T}")
        if not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"need an integer noise seed, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"need a noise seed >= 0, got {self.seed}")


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


def encode(x: np.ndarray, plan: CodingPlan, noise: NoiseSpec) -> tuple[Shares, list[np.ndarray]]:
    """Encode ``x`` along its leading axis into N shares plus T noise blocks.

    The leading (coding) axis is processed in contiguous groups of K slices;
    a final short group is zero-padded (decode truncates via its
    ``out_extent`` argument).  Each share's leading extent is
    ceil(extent / K).  Noise is drawn once per call from ``noise.seed``
    and shared by all encoder-node evaluations; each of the T blocks has the
    share payload shape, so distinct groups see independent noise entries.

    Returns the shares as one worker-major :class:`Shares` and the drawn
    noise blocks.  This is :func:`encode_stack` of the one tensor ``x``,
    byte for byte.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        raise ValueError("need a tensor of rank >= 1 to encode")
    payloads, blocks = encode_stack(x[None], plan, noise)
    # a copy of the blocks, so that holding them does not hold every coefficient
    return Shares(plan.betas, payloads[0]), list(blocks[0].copy())


def encode_stack(xs: np.ndarray, plan: CodingPlan, noise: NoiseSpec,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Encode M tensors of one shape at once, each as :func:`encode` does.

    ``xs`` is (M, extent, *rest): tensor m is ``xs[m]``, coded along its
    leading axis.  The coefficients of all M are one (K+T, M, G, *rest)
    array: the data at the K data nodes, then the noise blocks, which one
    generator seeded ``noise.seed`` fills in place as one (T, M, G, *rest)
    draw.  For M = 1 that is the draw :func:`encode` makes.  The shares are
    one batched product with the (N, K+T) encoder basis, one BLAS call per
    tensor on its strided (K+T, G·width) coefficient matrix, byte-equal to
    the product on a contiguous copy of it.

    Returns the (M, N, G, *rest) payloads, tensor-major, and the
    (M, T, G, *rest) noise blocks, a view of the coefficients.  ``out``, a
    C-contiguous float64 array of the payload shape, receives the payloads
    and is returned; by default they go to a fresh array.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim < 2:
        raise ValueError("need a stack of tensors of rank >= 1 to encode")
    if noise.T != plan.T:
        raise ValueError(f"noise spec has T={noise.T} but plan has T={plan.T}")
    M, extent, rest = xs.shape[0], xs.shape[1], xs.shape[2:]
    K, T = plan.K, plan.T
    groups, rem = divmod(extent, K)
    if rem:
        groups += 1
        padding = np.zeros((M, groups * K - extent) + rest)
        xs = np.concatenate([xs, padding], axis=1)

    coeffs = np.empty((K + T, M, groups) + rest)
    # element i of group g sits at data node alpha_i
    coeffs[:K] = np.moveaxis(xs.reshape(M, groups, K, *rest), 2, 0)
    blocks = coeffs[K:]
    if T > 0:
        np.random.default_rng(noise.seed).standard_normal(out=blocks)
        # the 0 + scale * z of rng.normal(0, scale), signed zeros included
        blocks *= noise.sigma_n / np.sqrt(T)
        blocks += 0.0

    shape = (M, plan.N, groups) + rest
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}, "
                         f"got {out.dtype} {out.shape}")
    # per tensor, the product np.tensordot(basis, coeffs[:, m], axes=(1, 0)) makes
    width = groups * math.prod(rest)
    np.matmul(plan.encoder_basis, coeffs.reshape(K + T, M, width).swapaxes(0, 1),
              out=out.reshape(M, plan.N, width))
    return out, blocks.swapaxes(0, 1)


def decode(results: Sequence[tuple[float, np.ndarray]], plan: CodingPlan,
           out_extent: int | None = None) -> np.ndarray:
    """Decode worker results back to the data nodes.

    ``results`` holds (encoder node value, payload) pairs from any nonempty
    subset of workers, for example ``[shares[j] for j in subset]``; payloads
    must share one shape, with the coding axis leading.  The interpolant is
    evaluated at each of the K data nodes and the outputs are re-interleaved
    along the leading axis; ``out_extent``, an integer, truncates encode-time
    padding.  ``results`` is read once, so an iterator will do.
    """
    results = list(results)
    rows = _decode_basis(np.array([float(b) for b, _ in results]), plan)
    payloads = [np.asarray(p, dtype=float) for _, p in results]
    if any(p.shape != payloads[0].shape for p in payloads):
        raise ValueError("result payloads disagree in shape")
    return _apply_decode(rows, payloads, out_extent)


def _decode_basis(betas: np.ndarray, plan: CodingPlan) -> np.ndarray:
    """The decoding interpolant of one worker subset, evaluated at the data nodes.

    ``betas`` are the subset's encoder node values, in any order.  Returns the
    (K, n) Berrut basis of the data nodes over them, column j for ``betas[j]``;
    a result sitting on a data node gets its indicator row.  A caller that
    decodes many payloads from the same subset builds this once.
    """
    if len(betas) == 0:
        raise ValueError("need at least one result to decode")
    if _has_coincident_pair(betas):
        raise ValueError("duplicate encoder node values in results")
    return berrut_basis_matrix(plan.alphas[:plan.K], betas)


#: Bytes of the (n, block, *rest) stack of results that ``_apply_decode``
#: multiplies at once (results are copied per span, multiplied per block):
#: half of a 2 MiB L2 cache, so a block's products read it from cache.
_DECODE_BLOCK_BYTES = 1 << 20
#: Bytes of the span of whole blocks that ``_apply_decode`` copies from each
#: result at once, capped at 1/8 of the results' bytes; a span is at least
#: one block.
_GATHER_BYTES = 8 << 20


def _apply_decode(rows: np.ndarray, results: Sequence[np.ndarray],
                  out_extent: int | None) -> np.ndarray:
    """Apply :func:`_decode_basis` rows to the results, one result per column.

    ``results`` is a sequence of n (G, *rest) arrays; the result is
    (G*K, *rest) with the K data nodes re-interleaved along the leading
    axis, truncated to ``out_extent``.

    Each result is read once, copied per span and multiplied per block.  A
    block holds as many groups as fit ``_DECODE_BLOCK_BYTES``, a span as many
    whole blocks as fit ``_GATHER_BYTES`` (at most 1/8 of the results' bytes,
    at least one block); a ragged last block is a span of its own.  Each
    result's slice of a span is copied with one assignment into a reused
    (span, n, block, *rest) buffer; a span of one block is the results'
    slices end to end, so it is filled by one ``np.concatenate``.
    Each block's (n, block, *rest) stack is multiplied by the K rows into
    one reused (K, block * width) array.  When the results fit one block,
    :func:`_decode_rows` makes the product, one dot per row, and the result
    is exactly the unblocked product, byte for byte.  With several blocks
    one ``np.matmul`` of the (K, n) rows makes it, so the block is read
    once, not K times; for K = 1 that is the dot's bytes.  Its rounding
    differs from the dots', and each product is narrower than the unblocked
    one, so the result is ulp-close to the unblocked one (within about
    2e-14 on unit-scale data), not byte-equal.  The span only sets how many
    copies are made; the bytes are those of copying and multiplying one
    block at a time.
    """
    n, K = len(results), len(rows)
    if results[0].ndim == 0:
        raise ValueError("result payloads are 0-d: decode needs a leading coding axis")
    groups, rest = results[0].shape[0], results[0].shape[1:]
    if out_extent is not None and (isinstance(out_extent, bool)
                                   or not isinstance(out_extent, numbers.Integral)
                                   or not 0 < out_extent <= groups * K):
        raise ValueError(f"out_extent {out_extent!r} is not an integer in (0, {groups * K}]")
    width = math.prod(rest)
    group_bytes = 8 * n * max(width, 1)  # one group of every result
    block = max(1, min(groups, _DECODE_BLOCK_BYTES // group_bytes))
    whole = groups - groups % block  # the groups in whole blocks
    gather = min(_GATHER_BYTES, group_bytes * groups // 8)
    span = max(1, gather // (group_bytes * block))
    multiply = np.matmul if groups > block else _decode_rows
    spans = [(lo, min(lo + span * block, whole)) for lo in range(0, whole, span * block)]
    if whole < groups:
        spans.append((whole, groups))
    buffer = np.empty(span * n * block * width)
    products = np.empty(K * block * width)
    out = np.empty((groups, K) + rest)
    for lo, hi in spans:
        size = min(block, hi - lo)
        nb = (hi - lo) // size
        stage = buffer[:nb * n * size * width].reshape((nb, n, size) + rest)
        if nb == 1:   # the results' slices end to end are the block's stack: one copy
            pieces = results if size == groups else [result[lo:hi] for result in results]
            np.concatenate(pieces, out=stage.reshape((n * size,) + rest))
        else:
            piece = (nb, size) + rest
            for dst, result in zip(stage.swapaxes(0, 1), results):
                dst[...] = result[lo:hi].reshape(piece)
        product = products[:K * size * width].reshape(K, size * width)
        dest = out[lo:hi].reshape((nb, size, K) + rest)
        for b in range(nb):
            multiply(rows, stage[b].reshape(n, -1), product)
            dest[b] = product.reshape((K, size) + rest).swapaxes(0, 1)
    out = out.reshape((groups * K,) + rest)
    return out if out_extent is None else out[:out_extent]


def _decode_rows(rows: np.ndarray, flat: np.ndarray, out: np.ndarray) -> None:
    """The decode product: each :func:`_decode_basis` row times the (n, m) results.

    Writes (K, m), row i the values at data node i, into ``out``, a
    C-contiguous float64 (K, m) array.  This is the product of every decode
    whose results fit one block in :func:`_apply_decode`; a caller holding
    one coding group's n results as an (n, m) array calls it directly,
    without the blocking and checks, and can reuse one ``out`` for every
    group.  One ``np.dot(row, flat)`` per row, not one (K, n) product: the
    latter rounds differently for K >= 2, and the golden outputs pin these
    bytes.
    """
    for row, dest in zip(rows, out):
        np.dot(row, flat, out=dest)


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
