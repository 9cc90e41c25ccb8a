"""Node families, coding plans and the Berrut interpolant.

Frozen reference values were computed with a 50-digit mpmath evaluation of
the same closed forms (see tests/oracles.py for the oracle used at runtime).
"""

import re

import numpy as np
import pytest

from pbacc.interpolation import (
    berrut_basis,
    berrut_basis_matrix,
    berrut_eval,
    berrut_weights,
    chebyshev_first,
    chebyshev_second,
    make_plan,
    shifted_chebyshev_first,
)

from oracles import berrut_basis_mp

# mpmath (dps=50) evaluation of the basis closed form, first-kind nodes, K=3, z=0.3
BASIS_K3_Z03 = [0.41643764420872808813, 0.78571428571428571429, -0.20215192992301380242]
# mpmath evaluation of the interpolant through payloads [1,2,3,4], K=4, z=0.1
EVAL_K4_Z01 = 2.3896555407279599891


def test_chebyshev_first_single_node_is_zero():
    assert chebyshev_first(1) == pytest.approx([0.0], abs=1e-15)


def test_chebyshev_second_two_nodes_are_endpoints():
    np.testing.assert_allclose(chebyshev_second(2), [1.0, -1.0], atol=1e-15)


def test_shifted_first_kind_closed_form():
    np.testing.assert_allclose(
        shifted_chebyshev_first(2, shift=3.0), [3.0 + np.sqrt(2) / 2, 3.0 - np.sqrt(2) / 2],
        rtol=1e-15)


def test_node_family_ranges():
    first = chebyshev_first(9)
    assert np.all((first > -1.0) & (first < 1.0))
    second = chebyshev_second(9)
    assert second[0] == 1.0 and second[-1] == -1.0
    shifted = shifted_chebyshev_first(9, shift=2.0)
    assert np.all((shifted > 1.0) & (shifted < 3.0))


def test_node_families_are_pairwise_distinct():
    for count in (1, 2, 5, 17, 64):
        vals = chebyshev_first(count)
        assert len(np.unique(vals)) == count
    for count in (2, 5, 17, 64):
        vals = chebyshev_second(count)
        assert len(np.unique(vals)) == count


def test_node_functions_reject_bad_counts():
    with pytest.raises(ValueError):
        chebyshev_first(0)
    with pytest.raises(ValueError):
        chebyshev_second(1)
    with pytest.raises(ValueError):
        shifted_chebyshev_first(0, shift=-2.0)


def test_basis_single_node_is_constant_one():
    np.testing.assert_allclose(berrut_basis(0.7, np.array([0.0])), [1.0])
    np.testing.assert_allclose(berrut_basis(-3.2, np.array([0.0])), [1.0])


def test_basis_symmetry_two_nodes():
    nodes = chebyshev_first(2)
    np.testing.assert_allclose(berrut_basis(0.0, nodes), [0.5, 0.5], rtol=1e-15)


def test_basis_matches_extended_precision_oracle():
    nodes = chebyshev_first(3)
    q = berrut_basis(0.3, nodes)
    np.testing.assert_allclose(q, BASIS_K3_Z03, rtol=1e-13)
    assert abs(q.sum() - 1.0) <= 1e-12


def test_partition_of_unity_random_nodes_and_points():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(1, 40))
        nodes = chebyshev_first(k)
        z = rng.uniform(-2.0, 2.0, size=200)
        keep = np.min(np.abs(z[:, None] - nodes[None, :]), axis=1) > 1e-6
        for zi in z[keep]:
            assert abs(berrut_basis(zi, nodes).sum() - 1.0) <= 1e-12


def test_basis_takes_the_limit_at_a_node():
    # on a node and inside its guard band the row is that node's indicator
    nodes = chebyshev_first(5)
    for z in (float(nodes[3]), float(nodes[3]) + 1e-14):
        assert berrut_basis(z, nodes).tobytes() == np.eye(5)[3].tobytes()
    # just outside the guard band it is the ordinary Berrut row
    z = float(nodes[3]) + 1e-9
    terms = (-1.0) ** np.arange(5) / (z - nodes)
    assert berrut_basis(z, nodes).tobytes() == (terms / terms.sum()).tobytes()
    # a point inside two guard bands takes the first node's indicator
    assert berrut_basis(0.5, np.array([-0.5, 0.5, 0.5 + 1e-13])).tolist() == [0.0, 1.0, 0.0]


def test_eval_reproduces_constants():
    rng = np.random.default_rng(3)
    nodes = chebyshev_first(8)
    payload = np.full((8, 3), 2.5)
    for z in rng.uniform(-1.0, 1.0, size=1000):
        if np.min(np.abs(z - nodes)) < 1e-6:
            continue
        out = berrut_eval(z, nodes, payload)
        np.testing.assert_allclose(out, 2.5, rtol=1e-12)


def test_eval_interpolation_property_is_exact():
    nodes = chebyshev_first(6)
    rng = np.random.default_rng(5)
    payloads = rng.normal(size=(6, 4))
    for z in (float(nodes[2]), float(nodes[2]) + 1e-14):  # on the node, inside its band
        out = berrut_eval(z, nodes, payloads)
        assert np.array_equal(out, payloads[2])


def test_eval_matches_extended_precision_oracle():
    nodes = chebyshev_first(4)
    payloads = np.array([[1.0], [2.0], [3.0], [4.0]])
    out = berrut_eval(0.1, nodes, payloads)
    np.testing.assert_allclose(out, [EVAL_K4_Z01], rtol=1e-12)


def test_eval_rejects_shape_mismatch():
    nodes = chebyshev_first(2)
    with pytest.raises(ValueError):
        berrut_eval(0.3, nodes, [np.zeros(3), np.zeros(4)])
    with pytest.raises(ValueError):
        berrut_eval(0.3, nodes, 1.0)


def test_no_real_poles_between_sorted_nodes():
    # alternating weights on a sorted family keep the denominator away from zero
    rng = np.random.default_rng(17)
    for k in (2, 7, 33, 64):
        nodes = chebyshev_first(k)
        z = rng.uniform(-1.0, 1.0, size=100_000)
        keep = np.min(np.abs(z[:, None] - nodes[None, :]), axis=1) > 1e-9
        z = z[keep]
        weights = (-1.0) ** np.arange(k)
        denom = (weights[None, :] / (z[:, None] - nodes[None, :])).sum(axis=1)
        assert np.all(denom != 0.0)
        assert np.min(np.abs(denom)) > 1e-12


def test_plan_concatenated_nodes_are_distinct():
    plan = make_plan(K=4, T=4, N=32)
    alphas = plan.alphas
    gaps = np.abs(alphas[:, None] - alphas[None, :])
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() > 1e-6


def test_plan_holds_read_only_node_arrays():
    # alphas: the K data nodes, then the T noise nodes; betas: one per worker
    plan = make_plan(K=3, T=2, N=8, shift=-2.0)
    assert plan.alphas.tobytes() == np.concatenate(
        [chebyshev_first(3), shifted_chebyshev_first(2, shift=-2.0)]).tobytes()
    assert plan.betas.tobytes() == chebyshev_second(8).tobytes()
    assert plan.alphas is plan.alphas  # stored once, not rebuilt per access
    for nodes in (plan.alphas, plan.betas, plan.alphas[:plan.K]):
        with pytest.raises(ValueError):
            nodes[0] = 0.0
    assert make_plan(K=2, T=0, N=8).alphas.tobytes() == chebyshev_first(2).tobytes()


@pytest.mark.parametrize("K,T,N", [(3, 2, 8), (2, 0, 5), (1, 30, 50)])
def test_plan_encoder_basis_is_the_read_only_basis_matrix(K, T, N):
    # (2, 0, 5) has nudged encoder nodes; the basis is built once, from betas as nudged
    plan = make_plan(K=K, T=T, N=N)
    assert plan.encoder_basis.shape == (N, K + T)
    assert plan.encoder_basis.tobytes() == berrut_basis_matrix(plan.betas, plan.alphas).tobytes()
    assert plan.encoder_basis is plan.encoder_basis
    with pytest.raises(ValueError):
        plan.encoder_basis[0, 0] = 0.0


def test_plan_rejects_colliding_noise_shift():
    # shift 0 with K=1, T=1 puts the noise node on the data node
    with pytest.raises(ValueError):
        make_plan(K=1, T=1, N=8, shift=0.0)


def test_plan_names_the_worker_count_when_below_two():
    with pytest.raises(ValueError, match=re.escape(
            "need N >= 2 workers (one encoder node each), got 1")):
        make_plan(1, 0, 1)


def test_plan_refuses_non_integer_counts():
    for K, T, N, name in ((1.5, 2, 5, "K"), (1, 2.0, 5, "T"), (1, 2, "5", "N"), (1, True, 5, "T")):
        with pytest.raises(ValueError, match=rf"^need an integer {name}, got "):
            make_plan(K, T, N)
    plan = make_plan(np.int64(2), np.int32(1), np.int64(6))
    assert (plan.K, plan.T, plan.N) == (2, 1, 6)


def test_plan_perturbs_encoder_nodes_on_collision():
    # K=2, N=5: encoder nodes at cos(j*pi/4) include both data nodes
    plan = make_plan(K=2, T=0, N=5)
    assert plan.perturbed == (1, 3)
    raw = chebyshev_second(5)
    assert plan.betas[1] == raw[1] + 1e-9
    gaps = np.abs(plan.betas[:, None] - plan.alphas[None, :])
    assert gaps.min() > 1e-10
    # untouched nodes stay exact
    assert plan.betas[0] == raw[0]


def test_plans_compare_by_identity():
    plan, twin = make_plan(2, 2, 8), make_plan(2, 2, 8)
    assert plan == plan
    assert (plan == twin) is False
    assert plan != twin
    assert {plan, twin, plan} == {plan, twin}
    assert len({plan, twin}) == 2


def test_plan_without_collisions_keeps_encoder_nodes_exact():
    plan = make_plan(K=1, T=30, N=50)
    assert plan.perturbed == ()
    np.testing.assert_array_equal(plan.betas, chebyshev_second(50))


def test_basis_matrix_takes_the_limit_row_by_row():
    nodes = chebyshev_first(3)
    zs = np.array([0.5, float(nodes[0]), -0.2, float(nodes[2]) + 1e-14, float(nodes[1]) + 1e-9])
    rows = berrut_basis_matrix(zs, nodes)
    assert rows[1].tobytes() == np.eye(3)[0].tobytes()
    assert rows[3].tobytes() == np.eye(3)[2].tobytes()
    # the other rows are what the same points give evaluated alone
    for i in (0, 2, 4):
        assert rows[i].tobytes() == berrut_basis_matrix(zs[i:i + 1], nodes)[0].tobytes()
        assert rows[i].tobytes() == berrut_basis(float(zs[i]), nodes).tobytes()


@pytest.mark.parametrize("shift", [-2.0, -1.5, -1.0, -0.5, 2.0])
@pytest.mark.parametrize("K, T", [(1, 30), (10, 30), (1, 18), (2, 5), (2, 10), (3, 4)])
def test_encoder_is_pole_free_at_every_shift(shift, K, T):
    # the weight signs alternate along the sorted line, so the denominator
    # stays away from zero on [-1, 1] even where the node list is unsorted
    alphas = make_plan(K=K, T=T, N=64, shift=shift).alphas
    z = np.linspace(-1.0, 1.0, 20001)
    z = z[np.min(np.abs(z[:, None] - alphas[None, :]), axis=1) > 1e-3]
    denom = (berrut_weights(alphas)[None, :] / (z[:, None] - alphas[None, :])).sum(axis=1)
    assert np.min(np.abs(denom)) > 1e-3


def test_weights_alternate_along_the_sorted_line():
    nodes = np.array([0.3, -0.9, 2.0, -0.1, 0.8])  # descending: 2.0, 0.8, 0.3, -0.1, -0.9
    np.testing.assert_array_equal(berrut_weights(nodes), [1.0, 1.0, 1.0, -1.0, -1.0])
    descending = np.sort(nodes)[::-1]
    np.testing.assert_array_equal(berrut_weights(descending), (-1.0) ** np.arange(5))


@pytest.mark.parametrize("K, T, N, shift", [
    (2, 10, 50, -1.0), (1, 30, 50, 2.0), (1, 30, 50, -0.5),
    (2, 10, 50, -1.5), (3, 4, 20, 2.0), (10, 30, 50, -1.0)])
def test_unsorted_plan_encoder_basis_matches_the_oracle(K, T, N, shift):
    plan = make_plan(K, T, N, shift)
    assert np.any(np.diff(plan.alphas) > 0)  # the node list is not sorted
    alphas = [float(a) for a in plan.alphas]
    for j, beta in enumerate(plan.betas):
        expected = np.array([float(q) for q in berrut_basis_mp(float(beta), alphas)])
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(plan.encoder_basis[j], expected, rtol=0, atol=1e-12 * scale)
