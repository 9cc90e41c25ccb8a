"""Encode/decode round trips, noise handling, and the wire format."""

import io
import re
import tracemalloc

import numpy as np
import pytest

from pbacc import codec
from pbacc.codec import (
    _apply_decode,
    _decode_basis,
    _decode_rows,
    NoiseSpec,
    decode,
    encode,
    encode_stack,
    read_tensor,
    roundtrip_error,
    tensor_from_bytes,
    tensor_to_bytes,
    write_tensor,
)
from pbacc.interpolation import berrut_eval, make_plan

from oracles import encode_share_mp

NO_NOISE = NoiseSpec(0.0, 0, 0)

# first-run regression value: relu, K=4, T=4, N=128, sigma=0.1, fastest 120
RELU_GOLDEN = 0.007953011730120757


def full(plan):
    return list(range(plan.N))


def test_k1_t0_shares_equal_input_exactly():
    plan = make_plan(1, 0, 8)
    x = np.array([[1.5, -2.0], [0.25, 3.0], [7.0, -0.5]])
    shares, blocks = encode(x, plan, NO_NOISE)
    assert blocks == []
    for share in shares:
        assert np.array_equal(share.payload, x)


def test_interpolation_property_at_data_nodes():
    # evaluating the encoding interpolant at a data node returns that slice
    plan = make_plan(2, 0, 16)
    a, b = 3.25, -1.75
    out = berrut_eval(float(plan.alphas[0]), plan.alphas, np.array([[a], [b]]))
    assert out[0] == a


def test_encode_matches_extended_precision_oracle():
    plan = make_plan(2, 2, 8)
    x = np.array([1.0, 2.0])
    shares, blocks = encode(x, plan, NoiseSpec(1.0, 2, seed=7))
    noise_scalars = [float(blk[0]) for blk in blocks]
    alphas = [float(a) for a in plan.alphas]
    for share in shares:
        expected = encode_share_mp(float(share.beta), alphas, [1.0, 2.0], noise_scalars)
        assert abs(float(share.payload[0]) - float(expected)) <= 1e-12 * max(1.0, abs(float(expected)))


@pytest.mark.parametrize("seed, message", [
    (-3, "need a noise seed >= 0, got -3"), (2.5, "need an integer noise seed, got 2.5")])
def test_noise_spec_rejects_a_bad_seed_when_built(seed, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NoiseSpec(sigma_n=1.0, T=1, seed=seed)


def test_encode_deterministic_per_seed():
    plan = make_plan(3, 4, 16)
    x = np.arange(12.0).reshape(6, 2)
    a, _ = encode(x, plan, NoiseSpec(2.0, 4, seed=99))
    b, _ = encode(x, plan, NoiseSpec(2.0, 4, seed=99))
    c, _ = encode(x, plan, NoiseSpec(2.0, 4, seed=100))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.payload, sb.payload)
    assert any(not np.array_equal(sa.payload, sc.payload) for sa, sc in zip(a, c))


@pytest.mark.parametrize("K,T,extent", [(1, 0, 5), (2, 3, 6), (3, 4, 7)])
def test_encode_applies_the_plan_encoder_basis(K, T, extent):
    plan = make_plan(K, T, 9)
    x = np.random.default_rng(3).standard_normal((extent, 2))
    shares, blocks = encode(x, plan, NoiseSpec(1.5, T, seed=4))
    groups = -(-extent // K)
    padded = np.concatenate([x, np.zeros((groups * K - extent, 2))])
    coeffs = np.concatenate([padded.reshape(groups, K, 2).swapaxes(0, 1),
                             np.reshape(blocks, (T, groups, 2))])
    expected = np.tensordot(plan.encoder_basis, coeffs, axes=(1, 0))
    assert shares.payloads.tobytes() == expected.tobytes()


@pytest.mark.parametrize("K,T,shape", [(1, 0, (5,)), (1, 3, (22,)), (1, 42, (97,)),
                                       (2, 3, (7, 2)), (3, 4, (7, 2, 3))])
def test_encode_stack_is_one_draw_and_one_product_per_tensor(K, T, shape):
    plan = make_plan(K, T, 9)
    M = 4
    xs = np.random.default_rng(7).standard_normal((M,) + shape)
    noise = NoiseSpec(0.7, T, seed=8)
    payloads, blocks = encode_stack(xs, plan, noise)
    groups = -(-shape[0] // K)
    assert payloads.shape == (M, 9, groups) + shape[1:]
    # every tensor's noise from one (T, M, G, *rest) draw of one generator
    assert blocks.shape == (M, T, groups) + shape[1:]
    if T:
        drawn = np.random.default_rng(8).normal(0.0, 0.7 / np.sqrt(T),
                                                size=(T, M, groups) + shape[1:])
        assert blocks.swapaxes(0, 1).tobytes() == drawn.tobytes()
    for m in range(M):
        padded = np.concatenate([xs[m], np.zeros((groups * K - shape[0],) + shape[1:])])
        coeffs = np.concatenate([padded.reshape(groups, K, *shape[1:]).swapaxes(0, 1), blocks[m]])
        expected = np.tensordot(plan.encoder_basis, coeffs, axes=(1, 0))
        assert payloads[m].tobytes() == expected.tobytes()
    # the single-tensor encode is the stack of one, byte for byte
    one, one_blocks = encode_stack(xs[:1], plan, noise)
    shares, first_blocks = encode(xs[0], plan, noise)
    assert shares.payloads.tobytes() == one[0].tobytes()
    assert np.array(first_blocks).reshape(one_blocks[0].shape).tobytes() == one_blocks[0].tobytes()


def test_encode_stack_rejects_a_bare_tensor():
    with pytest.raises(ValueError, match="stack"):
        encode_stack(np.ones(4), make_plan(1, 1, 3), NoiseSpec(1.0, 1, seed=0))


def test_encode_stack_rejects_an_unfit_out():
    plan = make_plan(2, 1, 5)
    xs = np.ones((1, 6, 2))  # payloads (1, 5, 3, 2)
    noise = NoiseSpec(1.0, 1, seed=0)
    for bad in (np.empty((1, 5, 3)), np.empty((1, 5, 3, 2), dtype=np.float32),
                np.empty((1, 5, 2, 3)).swapaxes(2, 3)):
        with pytest.raises(ValueError, match="out must be"):
            encode_stack(xs, plan, noise, out=bad)


def test_encode_linearity_without_noise():
    plan = make_plan(4, 0, 24)
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
    ex, _ = encode(x, plan, NO_NOISE)
    ey, _ = encode(y, plan, NO_NOISE)
    exy, _ = encode(2.0 * x - 3.0 * y, plan, NO_NOISE)
    for sx, sy, sxy in zip(ex, ey, exy):
        np.testing.assert_allclose(sxy.payload, 2.0 * sx.payload - 3.0 * sy.payload,
                                   rtol=1e-12, atol=1e-12)


def test_noise_blocks_shape_and_scale():
    plan = make_plan(2, 8, 16)
    x = np.zeros((6, 5))
    shares, blocks = encode(x, plan, NoiseSpec(4.0, 8, seed=0))
    assert len(blocks) == 8
    assert all(blk.shape == (3, 5) for blk in blocks)  # groups x slice shape
    spread = np.std(np.concatenate([b.ravel() for b in blocks]))
    assert spread == pytest.approx(4.0 / np.sqrt(8), rel=0.2)


def test_encode_rejects_bad_arguments():
    plan = make_plan(2, 0, 8)
    with pytest.raises(ValueError):
        encode(np.arange(4.0), plan, NoiseSpec(1.0, 3, 0))  # T mismatch
    with pytest.raises(ValueError):
        encode(np.float64(4.0), plan, NO_NOISE)  # no coding axis


def test_decode_constant_payloads_reproduced():
    plan = make_plan(3, 0, 12)
    payload = np.full((2, 4), -3.75)
    results = [(float(b), payload) for b in plan.betas]
    out = decode(results, plan)
    np.testing.assert_allclose(out, -3.75, rtol=1e-12)
    assert out.shape == (6, 4)


def test_decode_single_result_is_that_payload():
    plan = make_plan(3, 0, 12)
    payload = np.array([[1.0, 2.0]])
    out = decode([(0.4, payload)], plan)
    np.testing.assert_allclose(out, np.repeat(payload, 3, axis=0), rtol=1e-12)


def test_decode_rejects_bad_results():
    plan = make_plan(2, 0, 8)
    payload = np.zeros((1, 2))
    with pytest.raises(ValueError):
        decode([], plan)
    with pytest.raises(ValueError):
        decode([(0.5, payload), (0.5, payload)], plan)
    with pytest.raises(ValueError):
        decode([(0.5, payload), (0.6, np.zeros((1, 3)))], plan)


def test_decode_result_on_a_data_node_is_that_payload_exactly():
    plan = make_plan(3, 1, 9)
    rng = np.random.default_rng(4)
    payloads = rng.normal(size=(4, 2, 5))
    on_node = float(plan.alphas[1])
    for z in (on_node, on_node + 1e-14):  # on the node and inside its guard band
        betas = [0.95, z, -0.2, 0.6]
        out = decode(list(zip(betas, payloads)), plan, out_extent=5)
        # data node 1 is element 1 of every group of K=3 along the coding axis
        assert out[1::3].tobytes() == payloads[1][:2].tobytes()
        assert not np.array_equal(out[0::3], payloads[1])


@pytest.mark.parametrize("K", [1, 2, 3])
def test_hoisted_decode_basis_matches_decode(K):
    plan = make_plan(K, 2, 12)
    rng = np.random.default_rng(K)
    x = rng.normal(size=(3 * K + 1, 4))  # padded last group for K > 1
    shares, _ = encode(x, plan, NoiseSpec(0.3, 2, seed=K))
    for rep in range(3):
        subset = rng.choice(plan.N, size=int(rng.integers(1, plan.N + 1)), replace=False)
        betas = np.array([shares[j].beta for j in subset])
        rows = _decode_basis(betas, plan)  # one basis, many payload sets
        for scale in (1.0, -2.5):
            results = [(shares[j].beta, np.tanh(scale * shares[j].payload)) for j in subset]
            stack = np.stack([payload for _, payload in results])
            hoisted = _apply_decode(rows, list(stack), x.shape[0])
            assert hoisted.tobytes() == decode(results, plan, out_extent=x.shape[0]).tobytes()


@pytest.mark.parametrize("K", [1, 2, 3])
def test_decode_does_not_depend_on_result_order(K):
    plan = make_plan(K, 3, 20)
    rng = np.random.default_rng(20 + K)
    x = rng.normal(size=(4 * K, 3))
    shares, _ = encode(x, plan, NoiseSpec(0.5, 3, seed=K))
    subset = sorted(rng.choice(plan.N, size=14, replace=False).tolist())
    results = [(shares[j].beta, np.tanh(shares[j].payload)) for j in subset]
    reference = decode(results, plan)
    scale = np.max(np.abs(reference))
    for _ in range(3):
        permuted = [results[i] for i in rng.permutation(len(results))]
        np.testing.assert_allclose(decode(permuted, plan), reference,
                                   rtol=0, atol=1e-13 * scale)


def test_decode_rejects_0d_payloads():
    plan = make_plan(2, 0, 8)
    with pytest.raises(ValueError, match="coding axis"):
        decode([(0.5, 1.0), (0.2, 1.0)], plan)
    rows = _decode_basis(np.array([0.5, 0.2]), plan)
    with pytest.raises(ValueError, match="coding axis"):
        _apply_decode(rows, list(np.ones(2)), None)


def test_decode_checks_out_extent_before_any_product(monkeypatch):
    plan = make_plan(2, 0, 8)
    results = [(0.5, np.ones((3, 2))), (0.2, np.ones((3, 2)))]

    def product_ran(*args, **kwargs):
        raise AssertionError("a product ran before out_extent was checked")

    monkeypatch.setattr(np, "dot", product_ran)
    monkeypatch.setattr(np, "matmul", product_ran)
    monkeypatch.setattr(np, "tensordot", product_ran)
    for bad in (0, -1, 7):  # 3 groups of K=2 decode to extent 6
        with pytest.raises(ValueError, match="out_extent"):
            decode(results, plan, out_extent=bad)


def test_decode_takes_only_an_integer_out_extent():
    plan = make_plan(2, 0, 8)
    results = [(0.5, np.ones((3, 2))), (0.2, np.ones((3, 2)))]
    for bad in (5.0, True, "5"):
        with pytest.raises(ValueError, match=r"^out_extent .* is not an integer in \(0, 6\]$"):
            decode(results, plan, out_extent=bad)
    assert decode(results, plan, out_extent=np.int64(5)).shape == (5, 2)


def test_decode_reads_an_iterator_of_results_once():
    plan = make_plan(3, 1, 9)
    payloads = np.random.default_rng(5).normal(size=(6, 4, 2))
    results = list(zip(plan.betas[:6], payloads))
    assert (decode((r for r in results), plan, out_extent=11).tobytes()
            == decode(results, plan, out_extent=11).tobytes())


def single_product(rows, stack):
    """The unblocked decode: one product per row over the whole (n, G, *rest) stack."""
    per_node = np.stack([np.tensordot(row, stack, axes=(0, 0)) for row in rows])
    return per_node.swapaxes(0, 1).reshape((-1,) + stack.shape[2:])


def decode_inputs(K, rest, n, groups, seed):
    """Basis rows over n random workers and their (groups, *rest) results."""
    plan = make_plan(K, 2, n + 3)
    rng = np.random.default_rng(seed)
    betas = rng.choice(plan.betas, size=n, replace=False)
    rows = _decode_basis(betas, plan)
    return rows, rng.normal(size=(n, groups) + rest)


@pytest.mark.parametrize("K", [1, 2, 3, 8])
@pytest.mark.parametrize("rest", [(), (3,), (2, 4)])
def test_blocked_decode_matches_the_single_product(K, rest, monkeypatch):
    n, groups = 9, 23
    rows, stack = decode_inputs(K, rest, n, groups, seed=K)
    reference = single_product(rows, stack)
    scale = np.max(np.abs(reference))
    extent = groups * K - (K - 1)  # a padded last group
    group_bytes = 8 * n * int(np.prod(rest))
    # 1 and 2 groups per block, and 5 with a ragged last block of 3
    for per_block in (1, 2, 5):
        monkeypatch.setattr(codec, "_DECODE_BLOCK_BYTES", per_block * group_bytes)
        out = _apply_decode(rows, list(stack), extent)
        assert out.shape == (extent,) + rest
        np.testing.assert_allclose(out, reference[:extent], rtol=1e-13, atol=1e-13 * scale)


@pytest.mark.parametrize("K", [1, 2, 3, 8])
@pytest.mark.parametrize("rest", [(), (3,), (2, 4)])
def test_one_block_decode_is_the_single_product_byte_for_byte(K, rest):
    rows, stack = decode_inputs(K, rest, n=30, groups=17, seed=10 + K)
    assert stack.nbytes <= codec._DECODE_BLOCK_BYTES
    reference = single_product(rows, stack)
    for results in (list(stack), [np.asfortranarray(r) for r in stack]):
        assert _apply_decode(rows, results, None).tobytes() == reference.tobytes()


def per_block_products(rows, results, block, product):
    """The blocked decode's reference: ``product(rows, flat)`` per block of groups."""
    decoded = []
    for lo in range(0, len(results[0]), block):
        stack = np.stack([r[lo:lo + block] for r in results])
        flat = product(rows, stack.reshape(len(stack), -1))
        decoded.append(flat.reshape((len(rows),) + stack.shape[1:]).swapaxes(0, 1))
    return np.concatenate(decoded).reshape((-1,) + results[0].shape[1:])


def per_row_dots(rows, flat):
    out = np.empty((len(rows), flat.shape[1]))
    _decode_rows(rows, flat, out)
    return out


@pytest.mark.parametrize("K", [1, 2, 3, 8])
@pytest.mark.parametrize("rest", [(), (3,), (2, 4)])
def test_span_decode_is_one_matmul_per_block_byte_for_byte(K, rest, monkeypatch):
    n, groups, block = 9, 59, 2
    rows, stack = decode_inputs(K, rest, n, groups, seed=40 + K)
    group_bytes = 8 * n * int(np.prod(rest))
    # 29 blocks of 2 groups and a ragged group: 9 spans of 3 blocks, a span
    # of 2 and the ragged block alone
    monkeypatch.setattr(codec, "_DECODE_BLOCK_BYTES", block * group_bytes)
    monkeypatch.setattr(codec, "_GATHER_BYTES", 3 * block * group_bytes)
    assert stack.nbytes // 8 >= codec._GATHER_BYTES
    for results in (list(stack), [np.asfortranarray(r) for r in stack]):
        reference = per_block_products(rows, results, block, np.matmul)
        assert _apply_decode(rows, results, None).tobytes() == reference.tobytes()


@pytest.mark.parametrize("K", [1, 2, 8])
def test_decode_takes_one_product_per_block_past_one_block(K, monkeypatch):
    n, rest = 8, (4,)
    groups = codec._DECODE_BLOCK_BYTES // (8 * n * 4)  # results of exactly one block
    rows, stack = decode_inputs(K, rest, n, groups + 1, seed=60 + K)
    one_block = [r[:groups] for r in stack]
    assert sum(r.nbytes for r in one_block) == codec._DECODE_BLOCK_BYTES
    dots = per_block_products(rows, one_block, groups, per_row_dots)
    assert _apply_decode(rows, one_block, None).tobytes() == dots.tobytes()

    def no_dots(*args):
        raise AssertionError("a decode of two blocks made per-row dots")

    results = list(stack)  # one group more: a block and a ragged group
    matmuls = per_block_products(rows, results, groups, np.matmul)
    with monkeypatch.context() as patch:
        patch.setattr(codec, "_decode_rows", no_dots)
        out = _apply_decode(rows, results, None)
    assert out.tobytes() == matmuls.tobytes()
    if K == 1:  # and a K = 1 product is the per-row dot's bytes
        assert out.tobytes() == per_block_products(rows, results, groups, per_row_dots).tobytes()


def test_decode_staging_stays_within_the_gather_budget(monkeypatch):
    n, groups, rest = 16, 4096, (8,)
    rows, stack = decode_inputs(2, rest, n, groups, seed=50)
    group_bytes = 8 * n * 8
    # blocks of 16 groups, spans of 16 blocks: 256 KiB of the 4 MiB of results
    monkeypatch.setattr(codec, "_DECODE_BLOCK_BYTES", 16 * group_bytes)
    monkeypatch.setattr(codec, "_GATHER_BYTES", 256 * group_bytes)
    results = list(stack)
    tracemalloc.start()
    try:
        out = _apply_decode(rows, results, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= codec._GATHER_BYTES + out.nbytes + (64 << 10), f"decode peaked at {peak} bytes"


@pytest.mark.parametrize("K", [1, 2, 3])
def test_decode_rows_is_the_one_group_decode_byte_for_byte(K):
    rows, stack = decode_inputs(K, (1, 2), n=12, groups=1, seed=30 + K)
    # one coding group of n results, as dlcd_secure_training decodes each batch
    out = np.empty((K, 2))
    _decode_rows(rows, stack.reshape(len(stack), -1), out)
    assert out.tobytes() == _apply_decode(rows, list(stack), None).tobytes()
    assert out.tobytes() == single_product(rows, stack).tobytes()


def test_decode_does_not_copy_the_results():
    plan = make_plan(8, 0, 72)
    rng = np.random.default_rng(8)
    payloads = rng.normal(size=(64, 2048, 8))  # 64 results, 8 MiB in all
    results = list(zip(plan.betas, payloads))
    tracemalloc.start()
    try:
        out = decode(results, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (2048 * 8, 8)
    assert peak <= payloads.nbytes / 2, f"decode peaked at {peak} bytes"


def test_decode_basis_rejects_empty_and_duplicate_nodes():
    plan = make_plan(2, 0, 8)
    with pytest.raises(ValueError):
        _decode_basis(np.array([]), plan)
    with pytest.raises(ValueError):
        _decode_basis(np.array([0.5, 0.1, 0.5]), plan)
    with pytest.raises(ValueError):
        _decode_basis(np.array([0.5, 0.5 + 1e-14]), plan)


@pytest.mark.parametrize("K, T, shift", [(2, 10, -1.0), (1, 30, 2.0), (1, 30, -2.0)])
def test_roundtrip_has_no_poles_on_unsorted_node_lists(K, T, shift):
    # the first two node lists are unsorted: the data nodes sit among or
    # below the noise nodes
    plan = make_plan(K, T, 50, shift)
    x = np.random.default_rng(0).standard_normal(4 * K)
    assert roundtrip_error(x, lambda v: v, plan, NoiseSpec(10.0, T, seed=1), full(plan)) < 0.2


def test_roundtrip_identity_k1():
    plan = make_plan(1, 0, 16)
    x = np.linspace(-2.0, 2.0, 7)
    assert roundtrip_error(x, lambda v: v, plan, NO_NOISE, full(plan)) <= 1e-12


def test_roundtrip_error_shrinks_with_more_workers():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    errors = {}
    for n in (32, 64):
        plan = make_plan(4, 0, n)
        errors[n] = roundtrip_error(x, lambda v: v, plan, NO_NOISE, full(plan))
    assert errors[64] < errors[32]


def test_affine_error_at_most_square_error():
    # affine maps commute with the encoder, so only decoding error remains
    plan = make_plan(4, 0, 64)
    x = np.linspace(-1.5, 2.1, 16)
    affine = roundtrip_error(x, lambda v: 2.0 * v + 1.0, plan, NO_NOISE, full(plan))
    square = roundtrip_error(x, lambda v: v * v, plan, NO_NOISE, full(plan))
    assert affine <= square


def test_relu_roundtrip_regression():
    plan = make_plan(4, 4, 128)
    x = np.random.default_rng(123).normal(0.0, 1.0, size=16)
    err = roundtrip_error(x, lambda v: np.maximum(v, 0.0), plan,
                          NoiseSpec(0.1, 4, seed=9), subset=list(range(120)))
    assert err == pytest.approx(RELU_GOLDEN, rel=1e-9)


def test_straggler_error_non_increasing_on_average():
    plan = make_plan(4, 0, 32)
    rng = np.random.default_rng(21)
    x = np.sort(rng.normal(0.0, 1.0, size=8))
    means = []
    for n in (8, 16, 32):
        errs = []
        for rep in range(20):
            subset = sorted(np.random.default_rng(100 + rep).choice(32, n, replace=False).tolist())
            errs.append(roundtrip_error(x, lambda v: v * v, plan, NO_NOISE, subset))
        means.append(np.mean(errs))
    assert means[0] >= means[1] >= means[2]


def test_noise_placement_error_shrinks_with_far_shift():
    x = np.array([1.0, -0.5, 2.0, 0.7])
    errs = {}
    for shift in (2.0, 10.0, -2.0, -10.0):
        plan = make_plan(2, 2, 32, shift=shift)
        errs[shift] = roundtrip_error(x, lambda v: v, plan,
                                      NoiseSpec(0.5, 2, seed=3), full(plan))
    assert errs[10.0] < errs[2.0]
    assert errs[-10.0] < errs[-2.0]


def test_roundtrip_rejects_bad_subsets():
    plan = make_plan(2, 0, 8)
    x = np.arange(4.0)
    with pytest.raises(ValueError):
        roundtrip_error(x, lambda v: v, plan, NO_NOISE, [])
    with pytest.raises(ValueError):
        roundtrip_error(x, lambda v: v, plan, NO_NOISE, [1, 1])
    with pytest.raises(ValueError):
        roundtrip_error(x, lambda v: v, plan, NO_NOISE, [8])


def test_padding_roundtrip_truncates():
    plan = make_plan(4, 0, 32)
    x = np.arange(10.0)  # extent 10 needs 2 pad slices for K=4
    shares, _ = encode(x, plan, NO_NOISE)
    assert shares[0].payload.shape == (3,)
    out = decode([(s.beta, s.payload) for s in shares], plan, out_extent=10)
    assert out.shape == (10,)
    # full groups decode tightly; the zero-padded tail group is rougher
    np.testing.assert_allclose(out[:8], x[:8], atol=5e-3)
    np.testing.assert_allclose(out[8:], x[8:], atol=0.5)


def test_share_metadata():
    # one worker-major payload array; shares[j] is a (beta, payload) view of row j
    plan = make_plan(2, 1, 8)
    x = np.random.default_rng(6).normal(size=(5, 3))
    shares, _ = encode(x, plan, NoiseSpec(0.5, 1, seed=2))
    assert isinstance(shares.payloads, np.ndarray)
    assert shares.payloads.shape == (plan.N, 3, 3)  # (N, ceil(5 / K), 3)
    assert np.array_equal(shares.betas, plan.betas)
    assert len(shares) == plan.N
    for j, share in enumerate(shares):
        beta, payload = share
        assert beta == share.beta == shares[j].beta == plan.betas[j]
        assert payload is share.payload
        assert payload.tobytes() == shares.payloads[j].tobytes()
        assert np.shares_memory(payload, shares.payloads)
    subset = [6, 0, 3, 5]
    pairs = [(float(plan.betas[j]), shares.payloads[j].copy()) for j in subset]
    assert (decode([shares[j] for j in subset], plan, out_extent=5).tobytes()
            == decode(pairs, plan, out_extent=5).tobytes())


def test_tensor_wire_format_roundtrip():
    x = np.random.default_rng(0).normal(size=(3, 4, 2))
    raw = tensor_to_bytes(x)
    assert raw[:4] == (3).to_bytes(4, "little")
    np.testing.assert_array_equal(tensor_from_bytes(raw), x)
    buf = io.BytesIO()
    write_tensor(buf, x)
    buf.seek(0)
    np.testing.assert_array_equal(read_tensor(buf), x)


def test_tensor_wire_format_on_disk(tmp_path):
    path = str(tmp_path / "t.bin")
    x = np.arange(6.0).reshape(2, 3)
    write_tensor(path, x)
    np.testing.assert_array_equal(read_tensor(path), x)
