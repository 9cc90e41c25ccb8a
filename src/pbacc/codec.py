"""Encoding of real tensors into worker shares and approximate decoding.

``encode`` compresses the leading (coding) axis by a factor K: contiguous
groups of K slices are mapped to the K data nodes and padded with T Gaussian
noise blocks at the noise nodes, then the resulting rational interpolant is
evaluated at every worker's encoder node at once, as the plan's (N, K+T)
encoder basis applied to the stacked coefficients.  ``decode`` rebuilds the
function values at the data nodes from whatever subset of worker results
arrived, which is what gives the scheme its straggler tolerance.  It is one
linear combination of the n results per data node, computed in one pass
over the results, one chunk of coding groups at a time: each chunk's
slices of the results are copied into one staging buffer and multiplied
there, so each result is read once and no stacked copy of them is made.
Results that fit one ``_DECODE_BLOCK_BYTES`` block (every decode the
protocols make) are one chunk, multiplied by one dot per data node, whose
bytes the golden outputs pin; larger results are multiplied by one (K, n)
product per chunk, which reads the staged chunk once instead of K times.
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
    _check_integer,
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
        _check_integer("T", self.T)
        if self.T < 0:
            raise ValueError(f"need T >= 0, got {self.T}")
        _check_integer("noise seed", self.seed)
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
    if not np.isfinite(betas).all():
        raise ValueError("need finite encoder node values in results")
    if _has_coincident_pair(betas):
        raise ValueError("duplicate encoder node values in results")
    return berrut_basis_matrix(plan.alphas[:plan.K], betas)


#: Bytes of results that ``_apply_decode`` multiplies by one dot per data
#: node, as :func:`_decode_rows` does: every decode the protocols make fits,
#: and the golden outputs pin those bytes.
_DECODE_BLOCK_BYTES = 1 << 20
#: Bytes of one chunk's stage and product in ``_apply_decode`` when the
#: results do not fit ``_DECODE_BLOCK_BYTES``, capped at 1/8 of the results'
#: bytes; a chunk is at least one coding group.
_GATHER_BYTES = 8 << 20


def _apply_decode(rows: np.ndarray, results: Sequence[np.ndarray],
                  out_extent: int | None) -> np.ndarray:
    """Apply :func:`_decode_basis` rows to the results, one result per column.

    ``results`` is a sequence of n (G, *rest) arrays; the result is
    (G*K, *rest) with the K data nodes re-interleaved along the leading
    axis, truncated to ``out_extent``.

    The coding groups are decoded one chunk at a time, so each result is
    read once and no stacked copy of them is made.  A chunk's slices of the
    n results are copied end to end by one ``np.concatenate`` into a reused
    (n, chunk * width) stage, multiplied by the K rows into a reused
    (K, chunk * width) product, and written transposed into the output.
    When the results fit ``_DECODE_BLOCK_BYTES`` they are one chunk and
    :func:`_decode_rows` makes the product, one dot per row: the result is
    exactly the unchunked product, byte for byte.  Otherwise a chunk holds
    as many groups as let its stage and product fit ``_GATHER_BYTES`` (at
    most 1/8 of the results' bytes, at least one group), and one
    ``np.matmul`` of the (K, n) rows makes the product, so the stage is
    read once, not K times; for K = 1 that is the dot's bytes.  Its rounding differs from the dots', and each
    product is narrower than the unchunked one, so the result is ulp-close
    to the unchunked one (within about 2e-14 on unit-scale data), not
    byte-equal.
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
    group_bytes = 8 * max(width, 1)  # one group of one result
    if groups == 1 or n * groups * group_bytes <= _DECODE_BLOCK_BYTES:
        chunk, multiply = max(groups, 1), _decode_rows
    else:
        budget = min(_GATHER_BYTES, n * groups * group_bytes // 8)
        chunk, multiply = max(1, budget // ((n + K) * group_bytes)), np.matmul
    stage = np.empty(n * chunk * width)
    products = np.empty(K * chunk * width)
    out = np.empty((groups, K) + rest)
    for lo in range(0, groups, chunk):
        size = min(chunk, groups - lo)
        pieces = results if size == groups else [result[lo:lo + size] for result in results]
        staged = stage[:n * size * width]
        np.concatenate(pieces, out=staged.reshape((n * size,) + rest))
        product = products[:K * size * width].reshape(K, size * width)
        multiply(rows, staged.reshape(n, size * width), product)
        out[lo:lo + size] = product.reshape((K, size) + rest).swapaxes(0, 1)
    out = out.reshape((groups * K,) + rest)
    return out if out_extent is None else out[:out_extent]


def _decode_rows(rows: np.ndarray, flat: np.ndarray, out: np.ndarray) -> None:
    """The decode product: each :func:`_decode_basis` row times the (n, m) results.

    Writes (K, m), row i the values at data node i, into ``out``, a
    C-contiguous float64 (K, m) array.  This is the product of every decode
    whose results fit one ``_DECODE_BLOCK_BYTES`` block, and so one chunk,
    in :func:`_apply_decode`; a caller holding one coding group's n results
    as an (n, m) array calls it directly, without the staging and checks,
    and can reuse one ``out`` for every group.  One ``np.dot(row, flat)``
    per row, not one (K, n) product: the latter rounds differently for
    K >= 2, and the golden outputs pin these bytes.
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
