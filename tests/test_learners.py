"""Models, losses, analytic gradients, optimizer and aggregation rules."""

import re
import tracemalloc

import numpy as np
import pytest

from pbacc import learners
from pbacc.learners import (
    COORD_MEDIAN,
    COX_PH,
    FEDAVG,
    IDENTITY,
    LOSSES,
    MSE,
    ModelParams,
    RELU,
    SOFTMAX_CE,
    TANH,
    aggregate,
    backward_from_output,
    evaluate,
    forward,
    forward_with_cache,
    init_mlp,
    local_train,
    loss_and_output_grad,
    make_survival,
    make_two_clusters,
    output_grad,
    sgd_step,
)

from oracles import cox_loss_and_grad_mp
from references import central_diff_grads, loss_and_grad


def test_zero_parameters_give_zero_output():
    params = ModelParams(layers=[(np.zeros((3, 4)), np.zeros(4)),
                                 (np.zeros((4, 2)), np.zeros(2))], activation=RELU)
    out = forward(params, np.random.default_rng(0).normal(size=(5, 3)))
    assert np.array_equal(out, np.zeros((5, 2)))


def test_identity_single_layer_passes_input_through():
    params = ModelParams(layers=[(np.eye(3), np.zeros(3))], activation=IDENTITY)
    x = np.random.default_rng(1).normal(size=(4, 3))
    np.testing.assert_allclose(forward(params, x), x, rtol=1e-15)


def test_fixed_relu_network_matches_hand_computation():
    w1 = np.array([[1.0, -1.0], [2.0, 0.5]])
    b1 = np.array([0.5, -1.0])
    w2 = np.array([[1.0], [-2.0]])
    b2 = np.array([0.25])
    params = ModelParams(layers=[(w1, b1), (w2, b2)], activation=RELU)
    # x = (1, 2): pre1 = (5.5, -1) -> relu (5.5, 0) -> out 5.5*1 + 0*(-2) + 0.25
    out = forward(params, np.array([1.0, 2.0]))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(5.75, rel=1e-15)


def test_init_mlp_needs_an_input_and_an_output_size():
    for sizes in ([], [2]):
        with pytest.raises(ValueError, match="at least two layer sizes"):
            init_mlp(sizes)


def test_forward_rejects_feature_mismatch():
    params = init_mlp([3, 2], seed=0)
    with pytest.raises(ValueError):
        forward(params, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        forward(params, np.zeros((6, 4, 5)))  # a stack checks its last axis too


@pytest.mark.parametrize("activation", [RELU, TANH, IDENTITY])
@pytest.mark.parametrize("hidden", [[5], [5, 4]])
@pytest.mark.parametrize("batch", [1, 3])
def test_stacked_forward_is_byte_equal_to_separate_forwards(activation, hidden, batch):
    rng = np.random.default_rng(len(hidden) * 10 + batch)
    params = init_mlp([3, *hidden, 2], activation=activation, seed=batch)
    # a strided view of a worker-major array, the layout the coded runner passes
    stack = rng.normal(0.0, 2.0, size=(9, 4, batch, 3))[:, 2]
    separate = np.stack([forward(params, stack[j]) for j in range(stack.shape[0])])
    assert forward(params, stack).tobytes() == separate.tobytes()


def test_mse_zero_at_perfect_prediction():
    params = ModelParams(layers=[(np.eye(2), np.zeros(2))], activation=IDENTITY)
    x = np.array([[1.0, 2.0], [3.0, -1.0]])
    value, grads = loss_and_grad(params, x, x.copy(), MSE)
    assert value == 0.0
    for gw, gb in grads.layers:
        assert np.array_equal(gw, np.zeros_like(gw))
        assert np.array_equal(gb, np.zeros_like(gb))


def test_softmax_ce_uniform_logits_is_log_n_classes():
    preds = np.zeros((6, 4))
    value, _ = loss_and_output_grad(preds, np.arange(6) % 4, SOFTMAX_CE)
    assert value == pytest.approx(np.log(4.0), rel=1e-12)


def test_softmax_ce_rejects_out_of_range_labels():
    logits = np.zeros((2, 3))
    params = init_mlp([2, 3], activation=IDENTITY, seed=0)
    for labels, bad in [
        ([0, 3], "3"), ([-1, 2], "-1"),                       # out of range
        ([0.0, 1.7], "1.7"), ([-0.5, 1.0], "-0.5"),           # not integers
        ([2.0, float("nan")], "nan"),
    ]:
        message = f"class label {bad} is not an integer in \\[0, 3\\)"
        with pytest.raises(ValueError, match=message):
            loss_and_output_grad(logits, np.array(labels), SOFTMAX_CE)
        with pytest.raises(ValueError, match=message):
            evaluate(params, np.ones((2, 2)), np.array(labels), SOFTMAX_CE)


def test_softmax_ce_takes_integer_valued_labels_of_any_dtype():
    logits = np.random.default_rng(3).normal(size=(4, 3))
    reference = loss_and_output_grad(logits, np.array([0, 2, 1, 2]), SOFTMAX_CE)
    for labels in (np.array([0.0, 2.0, 1.0, 2.0]), np.array([[0], [2], [1], [2]]),
                   np.array([0, 2, 1, 2], dtype=np.int8)):
        value, grad = loss_and_output_grad(logits, labels, SOFTMAX_CE)
        assert value == reference[0] and grad.tobytes() == reference[1].tobytes()


def test_cox_requires_time_event_targets():
    params = init_mlp([3, 1], activation=IDENTITY, seed=0)
    x = np.random.default_rng(2).normal(size=(5, 3))
    with pytest.raises(ValueError):
        loss_and_grad(params, x, np.ones(5), COX_PH)


def test_cox_event_free_batch_is_zero_and_leaves_weights_unchanged():
    params = init_mlp([3, 4, 1], activation=TANH, seed=5)
    x, targets = make_survival(8, features=3, seed=6)
    targets[:, 1] = 0.0  # every sample censored
    value, dpred = loss_and_output_grad(forward(params, x), targets, COX_PH)
    assert value == 0.0
    assert dpred.shape == (8, 1) and not np.any(dpred)
    trained = local_train(params, x, targets, COX_PH, lr=0.1, batch_size=4, epochs=2)
    assert np.array_equal(trained.flattened_view, params.flattened_view)


def test_gradients_match_central_differences():
    rng = np.random.default_rng(9)
    for trial in range(10):
        sizes = [3, int(rng.integers(2, 5)), 2]
        activation = (RELU, TANH, IDENTITY)[trial % 3]
        params = init_mlp(sizes, activation=activation, seed=100 + trial)
        x = rng.normal(size=(6, 3))
        if trial % 3 == 0:
            y, loss = rng.normal(size=(6, 2)), MSE
        else:
            y, loss = rng.integers(0, 2, size=6), SOFTMAX_CE
        _, grads = loss_and_grad(params, x, y, loss)
        numeric = central_diff_grads(params, x, y, loss)
        gap = np.max(np.abs(grads.flattened_view - numeric))
        assert gap / max(1.0, np.max(np.abs(numeric))) <= 1e-5


def test_cox_gradients_match_central_differences():
    rng = np.random.default_rng(4)
    x, targets = make_survival(12, features=3, seed=8)
    params = init_mlp([3, 1], activation=IDENTITY, seed=3)
    _, grads = loss_and_grad(params, x, targets, COX_PH)
    numeric = central_diff_grads(params, x, targets, COX_PH)
    gap = np.max(np.abs(grads.flattened_view - numeric))
    assert gap / max(1.0, np.max(np.abs(numeric))) <= 1e-5


def _survival_with_ties(n, seed):
    """Survival targets with a block of tied times and an event tied with a censored sample."""
    _, targets = make_survival(n, features=2, seed=seed)
    targets[: n // 4, 0] = targets[n // 4: 2 * (n // 4), 0]  # tied times
    targets[[1, 2], 0] = targets[3, 0]
    targets[[1, 2, 3], 1] = [1.0, 0.0, 1.0]                  # events tied with a censored sample
    return targets


def assert_matches_cox_oracle(preds, targets, value, dpred):
    """Loss and output gradient agree with the mpmath oracle to 1e-12 relative, entrywise."""
    loss, grad = cox_loss_and_grad_mp(preds[:, 0], targets[:, 0], targets[:, 1])
    grad = np.array([float(g) for g in grad])
    assert abs(value - float(loss)) <= 1e-12 * abs(float(loss))
    assert dpred.shape == preds.shape
    assert np.all(np.abs(dpred[:, 0] - grad) <= 1e-12 * np.abs(grad))


@pytest.mark.parametrize("n", [5, 20, 200, 1400])
def test_cox_loss_and_grad_match_the_oracle_with_ties(n):
    rng = np.random.default_rng(n)
    preds = rng.normal(size=(n, 1))
    targets = _survival_with_ties(n, seed=n)
    assert len(np.unique(targets[:, 0])) < n
    value, dpred = loss_and_output_grad(preds, targets, COX_PH)
    assert_matches_cox_oracle(preds, targets, value, dpred)
    # evaluate's loss is the same number: an identity layer outputs preds itself
    identity = ModelParams(layers=[(np.eye(1), np.zeros(1))], activation=IDENTITY)
    assert evaluate(identity, preds, targets, COX_PH)[0] == value


def test_cox_oracle_agrees_on_an_event_free_set():
    preds = np.random.default_rng(3).normal(size=(6, 1))
    targets = _survival_with_ties(6, seed=3)
    targets[:, 1] = 0.0
    loss, grad = cox_loss_and_grad_mp(preds[:, 0], targets[:, 0], targets[:, 1])
    value, dpred = loss_and_output_grad(preds, targets, COX_PH)
    assert loss == 0 and all(g == 0 for g in grad)
    assert value == 0.0 and not np.any(dpred)


def test_stacked_cox_batch_is_per_node_training_and_matches_the_oracle():
    nodes, n = 70, 20
    x, _ = make_survival(nodes * n, features=4, seed=51)
    targets = _survival_with_ties(nodes * n, seed=52)
    targets[:: n // 2, 0] = targets[1:: n // 2, 0]   # ties inside many nodes
    targets[3 * n:4 * n, 1] = 0.0                    # node 3 is event-free
    x, y = x.reshape(nodes, n, 4), targets.reshape(nodes, n, 2)
    init = init_mlp([4, 16, 1], activation=TANH, seed=53)
    preds = forward(init, x)
    value, dpred = loss_and_output_grad(preds, y, COX_PH)
    assert value.shape == (nodes,) and dpred.shape == (nodes, n, 1)
    for k in range(nodes):
        alone_value, alone = loss_and_output_grad(preds[k], y[k], COX_PH)
        assert value[k].tobytes() == np.float64(alone_value).tobytes()
        assert dpred[k].tobytes() == alone.tobytes()
        assert_matches_cox_oracle(preds[k], y[k], value[k], dpred[k])
    assert value[3] == 0.0 and not np.any(dpred[3])
    stacked = local_train(init, x, y, COX_PH, lr=0.1, batch_size=n, epochs=2)
    for k in range(nodes):
        alone = local_train(init, x[k], y[k], COX_PH, lr=0.1, batch_size=n, epochs=2)
        assert stacked.flattened_view[k].tobytes() == alone.flattened_view.tobytes()


def test_sgd_step_basics():
    params = init_mlp([2, 2], seed=1)
    zero = ModelParams(layers=[(np.zeros_like(w), np.zeros_like(b))
                               for w, b in params.layers], activation=params.activation)
    unchanged = sgd_step(params, zero, lr=0.5)
    assert np.array_equal(unchanged.flattened_view, params.flattened_view)

    g = init_mlp([2, 2], seed=2)
    negated = sgd_step(zero, g, lr=1.0)
    np.testing.assert_array_equal(negated.flattened_view, -g.flattened_view)

    with pytest.raises(ValueError):
        sgd_step(params, g, lr=0.0)


def test_two_steps_equal_one_summed_step():
    base = init_mlp([3, 2], seed=5)
    g1, g2 = init_mlp([3, 2], seed=6), init_mlp([3, 2], seed=7)
    summed = base.with_flat(g1.flattened_view + g2.flattened_view)
    via_two = sgd_step(sgd_step(base, g1, 0.1), g2, 0.1)
    via_one = sgd_step(base, summed, 0.1)
    np.testing.assert_allclose(via_two.flattened_view, via_one.flattened_view,
                               rtol=1e-14, atol=1e-14)


def test_flatten_round_trip_is_exact():
    params = init_mlp([4, 7, 3], activation=TANH, seed=11)
    rebuilt = params.with_flat(params.flattened_view)
    for (w1, b1), (w2, b2) in zip(params.layers, rebuilt.layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    assert params.flattened_view.size == params.size


def test_aggregate_single_model_is_itself():
    v = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(aggregate([v], FEDAVG), v)
    np.testing.assert_array_equal(aggregate([v], COORD_MEDIAN), v)


def test_fedavg_of_opposite_models_is_zero():
    v = np.array([1.0, -2.0, 3.0])
    np.testing.assert_allclose(aggregate([v, -v], FEDAVG), np.zeros(3), atol=1e-15)


def test_coord_median_picks_middle_values():
    models = [np.array([1.0, 9.0]), np.array([5.0, 4.0]), np.array([3.0, 6.0])]
    np.testing.assert_array_equal(aggregate(models, COORD_MEDIAN), [3.0, 6.0])


def test_fedavg_is_linear():
    rng = np.random.default_rng(12)
    a = [rng.normal(size=5) for _ in range(4)]
    b = [rng.normal(size=5) for _ in range(4)]
    mixed = aggregate([2.0 * x + 3.0 * y for x, y in zip(a, b)], FEDAVG)
    np.testing.assert_allclose(
        mixed, 2.0 * aggregate(a, FEDAVG) + 3.0 * aggregate(b, FEDAVG), rtol=1e-12)


def test_aggregate_validation():
    with pytest.raises(ValueError):
        aggregate([], FEDAVG)
    with pytest.raises(ValueError, match="empty"):
        aggregate(np.empty((0, 5)), FEDAVG)


@pytest.mark.parametrize("rule", [FEDAVG, COORD_MEDIAN], ids=["fedavg", "coord_median"])
@pytest.mark.parametrize("shape", [(7, 23), (6, 5, 4)], ids=["table", "rest"])
def test_aggregate_of_an_array_is_the_list_result_byte_for_byte(rule, shape):
    stack = np.random.default_rng(11).normal(size=shape)
    from_list = aggregate(list(stack), rule)
    from_array = aggregate(stack, rule)
    assert from_array.shape == shape[1:]
    assert from_array.tobytes() == from_list.tobytes()


def test_fedavg_of_an_array_does_not_copy_it():
    stack = np.random.default_rng(13).normal(size=(64, 16384))  # 8 MiB
    tracemalloc.start()
    try:
        aggregate(stack, FEDAVG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack.nbytes / 8


def test_local_train_is_deterministic_and_learns():
    x, y = make_two_clusters(60, seed=3)
    init = init_mlp([2, 6, 2], activation=TANH, seed=4)
    a = local_train(init, x, y, SOFTMAX_CE, lr=0.1, batch_size=10, epochs=5)
    b = local_train(init, x, y, SOFTMAX_CE, lr=0.1, batch_size=10, epochs=5)
    assert np.array_equal(a.flattened_view, b.flattened_view)
    before, _ = evaluate(init, x, y, SOFTMAX_CE)
    after, acc = evaluate(a, x, y, SOFTMAX_CE)
    assert after < before
    assert acc > 0.9


def _node_stack(loss, nodes, n, features, seed):
    """``nodes`` datasets of ``n`` samples each, stacked on a leading node axis."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(nodes, n, features))
    if loss == MSE:
        return x, rng.normal(size=(nodes, n, 2)), 2
    if loss == SOFTMAX_CE:
        return x, rng.integers(0, 2, size=(nodes, n)).astype(float), 2
    _, targets = make_survival(nodes * n, features=features, seed=seed)
    return x, targets.reshape(nodes, n, 2), 1


@pytest.mark.parametrize("start", ["shared", "per_node"])
@pytest.mark.parametrize("activation", [RELU, TANH, IDENTITY])
@pytest.mark.parametrize("loss", [MSE, SOFTMAX_CE, COX_PH])
def test_stacked_local_train_is_byte_equal_to_per_node_training(loss, activation, start):
    nodes, n = 5, 11   # batches of 4, 4 and a short 3
    x, y, outputs = _node_stack(loss, nodes, n, 3, seed=41)
    init = init_mlp([3, 6, outputs], activation=activation, seed=42)
    if start == "shared":
        starts = [init] * nodes
    else:
        flats = init.flattened_view + np.random.default_rng(43).normal(0.0, 0.1, (nodes, init.size))
        init = init.with_flat(flats)
        starts = [init.with_flat(flat) for flat in flats]
        assert all(w.shape[0] == nodes for w, _ in init.layers)
    stacked = local_train(init, x, y, loss, lr=0.1, batch_size=4, epochs=2)
    assert stacked.flattened_view.shape == (nodes, init.size)
    for k in range(nodes):
        alone = local_train(starts[k], x[k], y[k], loss, lr=0.1, batch_size=4, epochs=2)
        assert stacked.flattened_view[k].tobytes() == alone.flattened_view.tobytes()


def test_stacked_cox_training_zeroes_only_the_event_free_node():
    x, y, _ = _node_stack(COX_PH, 4, 9, 3, seed=44)
    y[:, :, 1] = 1.0
    y[2, :3, 1] = 0.0   # node 2's first batch is event-free, the other nodes' are not
    init = init_mlp([3, 4, 1], activation=TANH, seed=45)
    preds = forward(init, x[:, :3])
    with np.errstate(all="raise"):   # no 0/0 on the event-free node
        value, dpred = loss_and_output_grad(preds, y[:, :3], COX_PH)
    assert value.shape == (4,) and value[2] == 0.0 and np.all(value[[0, 1, 3]] > 0.0)
    # the single-node path's np.zeros_like, +0.0 in every entry
    assert dpred[2].tobytes() == np.zeros((3, 1)).tobytes()
    assert np.all(np.any(dpred[[0, 1, 3]], axis=(1, 2)))
    with np.errstate(all="raise"):
        stacked = local_train(init, x, y, COX_PH, lr=0.1, batch_size=3, epochs=1)
    for k in range(4):
        alone = local_train(init, x[k], y[k], COX_PH, lr=0.1, batch_size=3, epochs=1)
        assert stacked.flattened_view[k].tobytes() == alone.flattened_view.tobytes()


def test_stacked_flatten_round_trip_is_exact():
    params = init_mlp([4, 7, 3], activation=TANH, seed=11)
    flats = np.random.default_rng(12).normal(size=(6, params.size))
    stack = params.with_flat(flats)
    assert stack.node_shape == (6,) and stack.size == params.size
    assert stack.flattened_view.tobytes() == flats.tobytes()
    for k in range(6):
        one = params.with_flat(flats[k])
        for (w1, b1), (w2, b2) in zip(one.layers, stack.layers):
            assert w1.tobytes() == w2[k].tobytes() and b1.tobytes() == b2[k].tobytes()
    with pytest.raises(ValueError):
        params.with_flat(np.zeros((2, 3, params.size)))


@pytest.mark.parametrize("field,value", [
    ("batch_size", 0), ("batch_size", -1), ("batch_size", 4.0), ("batch_size", True),
    ("epochs", 0), ("epochs", 1.5), ("epochs", True),
    ("lr", 0.0), ("lr", -0.1), ("lr", np.inf), ("lr", np.nan)])
def test_local_train_rejects_bad_settings_before_any_batch(monkeypatch, field, value):
    def batch_ran(*args, **kwargs):
        raise AssertionError("a batch ran")

    x, y = make_two_clusters(12, seed=46)
    settings = {"lr": 0.1, "batch_size": 4, "epochs": 1} | {field: value}
    monkeypatch.setattr(learners, "forward_with_cache", batch_ran)
    monkeypatch.setattr(learners, "output_grad", batch_ran)
    with pytest.raises(ValueError, match=field):
        local_train(init_mlp([2, 2], seed=47), x, y, SOFTMAX_CE, **settings)


def test_evaluate_accuracy_nan_for_regression():
    x, targets = make_survival(20, features=3, seed=1)
    params = init_mlp([3, 1], activation=IDENTITY, seed=2)
    value, acc = evaluate(params, x, targets, COX_PH)
    assert np.isfinite(value)
    assert np.isnan(acc)


def _loss_cases():
    rng = np.random.default_rng(21)
    _, labels = make_two_clusters(30, seed=22)
    yield MSE, rng.normal(size=(30, 3)), rng.normal(size=(30, 3))
    yield SOFTMAX_CE, rng.normal(size=(30, 2)) * 3.0, labels
    _, survival = make_survival(40, features=2, seed=23)
    tied = survival.copy()
    tied[:10, 0] = tied[10:20, 0]  # tied times
    yield COX_PH, rng.normal(size=(40, 1)), tied
    censored = survival.copy()
    censored[:, 1] = 0.0  # an event-free set
    yield COX_PH, rng.normal(size=(40, 1)), censored


@pytest.mark.parametrize("case", range(4), ids=["mse", "softmax_ce", "cox_tied", "cox_no_events"])
def test_evaluate_loss_is_the_gradient_paths_value_byte_for_byte(case):
    loss, preds, targets = list(_loss_cases())[case]
    expected, _ = loss_and_output_grad(preds, targets, loss)
    # evaluate on an identity layer whose output is preds itself
    params = ModelParams(layers=[(np.eye(preds.shape[1]), np.zeros(preds.shape[1]))],
                         activation=IDENTITY)
    assert forward(params, preds).tobytes() == preds.tobytes()
    value, _ = evaluate(params, preds, targets, loss)
    assert np.float64(value).tobytes() == np.float64(expected).tobytes()


def _stacked(case, nodes=2):
    """A ``_loss_cases`` case as a stack of ``nodes`` equal node datasets.

    The tied Cox case's second node has no event, so the stack mixes nodes
    with and without events.
    """
    loss, preds, targets = list(_loss_cases())[case]
    preds = preds.reshape(nodes, -1, preds.shape[-1])
    targets = targets.reshape(preds.shape[:2] + targets.shape[1:])
    if case == 2:
        targets = targets.copy()
        targets[1, :, 1] = 0.0
    return loss, preds, targets


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stacked"])
@pytest.mark.parametrize("case", range(4), ids=["mse", "softmax_ce", "cox_tied", "cox_no_events"])
def test_output_grad_is_the_gradient_of_loss_and_output_grad_byte_for_byte(case, stacked):
    loss, preds, targets = _stacked(case) if stacked else list(_loss_cases())[case]
    prepared = learners._prepare_targets(targets, loss, preds.shape)
    _, expected = loss_and_output_grad(preds, targets, loss)
    assert output_grad(preds, prepared, loss).tobytes() == expected.tobytes()
    # a batch is the same slice of the inputs and of the prepared targets
    rows = (slice(None),) * (preds.ndim - 2) + (slice(3, 11),)
    _, expected = loss_and_output_grad(preds[rows], targets[rows], loss)
    assert output_grad(preds[rows], prepared[rows], loss).tobytes() == expected.tobytes()


def test_every_loss_entry_point_rejects_an_unknown_loss():
    x, y = make_two_clusters(6, seed=52)
    params = init_mlp([2, 2], seed=53)
    preds = forward(params, x)
    prepared = learners._prepare_targets(y, SOFTMAX_CE, preds.shape)
    for call in (lambda: output_grad(preds, prepared, "hinge"),
                 lambda: loss_and_output_grad(preds, y, "hinge"),
                 lambda: evaluate(params, x, y, "hinge"),
                 lambda: local_train(params, x, y, "hinge", lr=0.1, batch_size=2, epochs=1)):
        with pytest.raises(ValueError, match="unknown loss 'hinge'"):
            call()


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(learners, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(learners, name, counted)
    return calls


def _record_kernel(monkeypatch):
    """Record each ``_loss_kernel`` call as "value" or "gradient", whichever it computed."""
    calls = []
    original = learners._loss_kernel

    def kernel(preds, prepared, loss, value):
        calls.append("value" if value else "gradient")
        return original(preds, prepared, loss, value)

    monkeypatch.setattr(learners, "_loss_kernel", kernel)
    return calls


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stacked"])
def test_local_train_prepares_targets_once_and_computes_no_loss_value(monkeypatch, loss, stacked):
    x, y = make_survival(24, features=3, seed=48) if loss == COX_PH else \
        make_two_clusters(24, features=3, seed=48)
    if loss == MSE:
        y = np.column_stack([y, -y])
    outputs = {MSE: 2, SOFTMAX_CE: 2, COX_PH: 1}[loss]
    if stacked:
        x, y = x.reshape(3, 8, 3), y.reshape((3, 8) + y.shape[1:])
    init = init_mlp([3, 4, outputs], activation=TANH, seed=49)
    expected = local_train(init, x, y, loss, lr=0.1, batch_size=3, epochs=2)
    prepared = _count_calls(monkeypatch, "_prepare_targets")
    kernel = _record_kernel(monkeypatch)
    steps = _count_calls(monkeypatch, "output_grad")
    trained = local_train(init, x, y, loss, lr=0.1, batch_size=3, epochs=2)
    assert trained.flattened_view.tobytes() == expected.flattened_view.tobytes()
    batches = -(-x.shape[-2] // 3)
    assert (len(prepared), len(steps)) == (1, 2 * batches)
    assert kernel == ["gradient"] * (2 * batches)


@pytest.mark.parametrize("bad", [1.7, np.nan, 2.0])
def test_local_train_rejects_a_bad_label_before_any_batch(monkeypatch, bad):
    def batch_ran(*args, **kwargs):
        raise AssertionError("a batch ran")

    x, y = make_two_clusters(12, seed=50)
    y[7] = bad   # after the first batch of 4
    monkeypatch.setattr(learners, "forward_with_cache", batch_ran)
    for inputs, labels in ((x, y), (x.reshape(2, 6, 2), y.reshape(2, 6))):
        with pytest.raises(ValueError, match=rf"class label {bad} is not an integer in \[0, 2\)"):
            local_train(init_mlp([2, 2], seed=51), inputs, labels, SOFTMAX_CE,
                        lr=0.1, batch_size=4, epochs=1)


def _misfit_cases():
    """Targets that do not fit (4, outputs) predictions: (loss, outputs, targets)."""
    _, labels = make_two_clusters(4, seed=54)
    _, survival = make_survival(4, features=3, seed=55)
    mse = np.random.default_rng(56).normal(size=(4, 2))
    yield MSE, 2, mse.T                         # transposed
    yield SOFTMAX_CE, 2, labels.reshape(1, 4)   # one row of labels
    yield MSE, 2, mse[:3]                       # a sample count that does not match
    yield SOFTMAX_CE, 2, labels[:3]
    yield COX_PH, 1, survival[:3]


@pytest.mark.parametrize("case", range(5), ids=["mse_transposed", "softmax_row", "mse_short",
                                                "softmax_short", "cox_short"])
def test_mis_shaped_targets_are_rejected_naming_both_shapes(monkeypatch, case):
    def batch_ran(*args, **kwargs):
        raise AssertionError("a batch ran")

    loss, outputs, targets = list(_misfit_cases())[case]
    x = np.random.default_rng(57).normal(size=(4, 3))
    params = init_mlp([3, outputs], activation=IDENTITY, seed=58)
    preds = forward(params, x)
    message = rf"{re.escape(str(targets.shape))}.*{re.escape(str(preds.shape))}"
    with pytest.raises(ValueError, match=message):
        evaluate(params, x, targets, loss)
    with pytest.raises(ValueError, match=message):
        loss_and_output_grad(preds, targets, loss)
    monkeypatch.setattr(learners, "forward_with_cache", batch_ran)
    with pytest.raises(ValueError, match=message):
        local_train(params, x, targets, loss, lr=0.1, batch_size=2, epochs=1)


def test_mse_targets_may_leave_off_a_trailing_output_axis_of_1():
    preds = np.random.default_rng(59).normal(size=(5, 1))
    targets = np.random.default_rng(60).normal(size=5)
    value, grad = loss_and_output_grad(preds, targets, MSE)
    column = loss_and_output_grad(preds, targets[:, None], MSE)
    assert value == column[0] and grad.tobytes() == column[1].tobytes()
    with pytest.raises(ValueError, match=r"\(5,\).*\(5, 2\)"):
        loss_and_output_grad(np.zeros((5, 2)), targets, MSE)


def test_cox_evaluate_does_not_run_the_gradient(monkeypatch):
    def gradient_ran(*args, **kwargs):
        raise AssertionError("evaluate built the gradient")

    n = 1400
    x, targets = make_survival(n, features=4, seed=31)
    params = init_mlp([4, 16, 1], activation=TANH, seed=32)
    expected, _ = evaluate(params, x, targets, COX_PH)
    monkeypatch.setattr(learners, "output_grad", gradient_ran)
    monkeypatch.setattr(learners, "backward_from_output", gradient_ran)
    kernel = _record_kernel(monkeypatch)
    value, acc = learners.evaluate(params, x, targets, COX_PH)
    assert value == expected and np.isnan(acc)
    assert kernel == ["value"]


#: Each activation's derivative at (pre-activation, activation), written out.
_DERIVATIVES = {
    RELU: lambda pre, post: (pre > 0.0).astype(float),
    TANH: lambda pre, post: 1.0 - post ** 2,
    IDENTITY: lambda pre, post: np.ones_like(pre),
}


def _reference_backward(params, cache, dout):
    """The layer recursion written out as one loop: the reference for the one backward."""
    derivative = _DERIVATIVES[params.activation]
    layer_inputs = [cache.inputs, *cache.post[:-1]]
    grads = [None] * len(params.layers)
    delta = np.asarray(dout, dtype=float)
    last = len(params.layers) - 1
    for li in range(last, -1, -1):
        w, _ = params.layers[li]
        if li != last:
            delta = delta * derivative(cache.pre[li], cache.post[li])
        grads[li] = (layer_inputs[li].swapaxes(-1, -2) @ delta, np.add.reduce(delta, axis=-2))
        if li > 0:
            delta = delta @ w.swapaxes(-1, -2)
    return ModelParams(layers=grads, activation=params.activation)


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stacked"])
@pytest.mark.parametrize("activation", [RELU, TANH, IDENTITY])
def test_a_forward_into_a_given_cache_is_a_fresh_forward_byte_for_byte(activation, stacked):
    rng = np.random.default_rng(66)
    shape = (4, 3, 3) if stacked else (3, 3)   # stacked: four slots of three samples
    first, second = rng.normal(size=shape), rng.normal(size=shape)
    params = init_mlp([3, 5, 4, 2], activation=activation, seed=67)
    _, cache = forward_with_cache(params, first)
    arrays = [*cache.pre, *cache.post]
    out, given = forward_with_cache(params, second, cache)
    assert given is cache and cache.inputs is second and out is cache.post[-1]
    assert all(a is b for a, b in zip([*cache.pre, *cache.post], arrays))   # written in place
    fresh_out, fresh = forward_with_cache(params, second)
    assert out.tobytes() == fresh_out.tobytes()
    for mine, theirs in zip([*cache.pre, *cache.post], [*fresh.pre, *fresh.post]):
        assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
    # the same arrays alias: only identity's and the last layer's output is its pre
    assert [cache.post[li] is cache.pre[li] for li in range(3)] == \
        [fresh.post[li] is fresh.pre[li] for li in range(3)] == \
        [activation == IDENTITY, activation == IDENTITY, True]


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stacked"])
@pytest.mark.parametrize("activation", [RELU, TANH, IDENTITY])
@pytest.mark.parametrize("loss", LOSSES)
def test_the_in_place_step_is_the_functional_step_byte_for_byte(loss, activation, stacked):
    x, y, outputs = _node_stack(loss, 3, 7, 3, seed=61)
    params = init_mlp([3, 5, 4, outputs], activation=activation, seed=62)
    if stacked:   # three different models, their layers views of one array
        flats = np.random.default_rng(63).normal(0.0, 0.5, (3, params.size))
        params = params.with_flat(flats)
    else:
        x, y = x[0], y[0]
    preds, cache = forward_with_cache(params, x)
    dout = output_grad(preds, learners._prepare_targets(y, loss, preds.shape), loss)
    grads = backward_from_output(params, cache, dout)
    reference = _reference_backward(params, cache, dout)
    assert grads.flattened_view.tobytes() == reference.flattened_view.tobytes()
    _, via_loss = loss_and_grad(params, x, y, loss)
    assert via_loss.flattened_view.tobytes() == reference.flattened_view.tobytes()
    expected = sgd_step(params, grads, 0.1)
    # a step writes the flat-backed model its cache is bound to
    owned = params.with_flat(params.flattened_view)
    _, owned_cache = forward_with_cache(owned, x)
    learners._backward(owned, owned_cache, dout, 0.1)
    assert owned.flattened_view.tobytes() == expected.flattened_view.tobytes()


def test_a_step_refuses_a_model_that_is_not_flat_backed():
    x = np.random.default_rng(76).normal(size=(5, 3))
    params = init_mlp([3, 4, 2], activation=TANH, seed=77)   # layers of their own
    preds, cache = forward_with_cache(params, x)
    dout = np.ones_like(preds)
    kept = params.flattened_view.tobytes()
    with pytest.raises(ValueError, match="flat-backed"):
        learners._backward(params, cache, dout, 0.1)
    assert params.flattened_view.tobytes() == kept
    backward_from_output(params, cache, dout)   # the gradients alone need no flat model
    flat = params.with_flat(params.flattened_view)
    learners._backward(flat, forward_with_cache(flat, x)[1], dout, 0.1)
    assert flat.flattened_view.tobytes() != kept


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stacked"])
def test_backward_views_are_taken_by_the_first_backward(stacked):
    x = np.random.default_rng(78).normal(size=(3, 5, 2) if stacked else (5, 2))
    params = init_mlp([2, 4, 3], activation=RELU, seed=79)
    preds, cache = forward_with_cache(params, x)
    assert cache._steps is None   # a forward alone takes no backward view
    dout = np.random.default_rng(80).normal(size=preds.shape)
    first = backward_from_output(params, cache, dout)
    grad = cache.grad
    assert grad.shape == x.shape[:-2] + (params.size,)
    second = backward_from_output(params, cache, dout)
    assert cache.grad is grad   # written in place from then on
    assert first.flattened_view.tobytes() == second.flattened_view.tobytes() == grad.tobytes()
    assert not any(np.shares_memory(t, grad) for layer in second.layers for t in layer)


def test_a_trained_model_is_unchanged_by_later_steps():
    x, y = make_two_clusters(12, seed=81)
    init = init_mlp([2, 4, 2], activation=TANH, seed=82)
    first = local_train(init, x, y, SOFTMAX_CE, lr=0.1, batch_size=4, epochs=1)
    kept = first.flattened_view.tobytes()
    second = local_train(first, x, y, SOFTMAX_CE, lr=0.1, batch_size=4, epochs=2)
    assert first.flattened_view.tobytes() == kept != second.flattened_view.tobytes()
    assert not np.shares_memory(first._flat, second._flat)
    assert not np.shares_memory(first.flattened_view, first._flat)


@pytest.mark.parametrize("activation", [RELU, TANH, IDENTITY])
def test_a_slot_of_a_cache_is_the_cache_of_that_slot_alone(activation):
    x = np.random.default_rng(71).normal(size=(4, 1, 3))
    params = init_mlp([3, 5, 2], activation=activation, seed=72)
    _, cache = forward_with_cache(params, x)
    slot = cache.slot(2)
    slot.inputs = x[2]
    _, alone = forward_with_cache(params, x[2])
    for mine, parent, theirs in zip([*slot.pre, *slot.post], [*cache.pre, *cache.post],
                                    [*alone.pre, *alone.post]):
        assert np.shares_memory(mine, parent) and mine.tobytes() == theirs.tobytes()
    assert [slot.post[li] is slot.pre[li] for li in range(2)] == [activation == IDENTITY, True]
    dout = np.random.default_rng(73).normal(size=(1, 2))
    assert backward_from_output(params, slot, dout).flattened_view.tobytes() == \
        backward_from_output(params, alone, dout).flattened_view.tobytes()
    stack = params.with_flat(np.tile(params.flattened_view, (4, 1)))
    with pytest.raises(ValueError, match="slot of a stack"):
        forward_with_cache(stack, x)[1].slot(0)


def test_a_cache_refuses_other_inputs_and_another_model():
    rng = np.random.default_rng(74)
    x = rng.normal(size=(5, 3))
    params = init_mlp([3, 4, 2], activation=TANH, seed=75)
    preds, cache = forward_with_cache(params, x)
    dout = output_grad(preds, learners._prepare_targets(rng.integers(0, 2, 5), SOFTMAX_CE,
                                                        preds.shape), SOFTMAX_CE)
    bound = [a.copy() for a in (*cache.pre, *cache.post)]
    for other in (x[:4], x[None], x.astype(np.float32), x.tolist()):
        with pytest.raises(ValueError, match=r"bound to float64 inputs of shape \(5, 3\)"):
            forward_with_cache(params, other, cache)
    twin = params.copy()   # equal, but not the model the cache is bound to
    kept = params.flattened_view.tobytes(), twin.flattened_view.tobytes()
    with pytest.raises(ValueError, match="bound to another model"):
        forward_with_cache(twin, x, cache)
    with pytest.raises(ValueError, match="bound to another model"):
        learners._backward(twin, cache, dout, 0.1)
    with pytest.raises(ValueError, match="bound to another model"):
        backward_from_output(twin, cache, dout)
    assert (params.flattened_view.tobytes(), twin.flattened_view.tobytes()) == kept
    assert all(a.tobytes() == b.tobytes() for a, b in zip((*cache.pre, *cache.post), bound))
    assert cache.inputs is x


@pytest.mark.parametrize("stacked", [False, True], ids=["one", "stacked"])
def test_local_train_binds_one_cache_per_batch_shape(monkeypatch, stacked):
    x, y = make_two_clusters(22, seed=76)
    if stacked:
        x, y = x.reshape(2, 11, 2), y.reshape(2, 11)
    else:
        x, y = x[:11], y[:11]
    init = init_mlp([2, 3, 2], activation=TANH, seed=77)
    # the reference: a fresh forward and the functional step, batch by batch
    # (4, 4 and a short 3), for two epochs
    reference = init
    for _ in range(2):
        for lo in range(0, 11, 4):
            preds, cache = forward_with_cache(reference, x[..., lo:lo + 4, :])
            dout = output_grad(preds, learners._prepare_targets(y[..., lo:lo + 4], SOFTMAX_CE,
                                                                preds.shape), SOFTMAX_CE)
            reference = sgd_step(reference, backward_from_output(reference, cache, dout), 0.1)
    calls = []
    original = learners.forward_with_cache

    def recording(params, inputs, cache=None):
        out, bound = original(params, inputs, cache)
        calls.append((cache, bound))
        return out, bound

    monkeypatch.setattr(learners, "forward_with_cache", recording)
    trained = local_train(init, x, y, SOFTMAX_CE, lr=0.1, batch_size=4, epochs=2)
    assert trained.flattened_view.tobytes() == reference.flattened_view.tobytes()
    # each batch shape binds a cache on its first forward and reuses it after
    assert [given is None for given, _ in calls] == [True, False, True, False, False, False]
    full, short = calls[0][1], calls[2][1]
    assert full is not short and [bound for _, bound in calls] == [full, full, short] * 2


@pytest.mark.parametrize("loss", LOSSES)
def test_evaluate_scores_a_stack_node_by_node(loss):
    x, y, outputs = _node_stack(loss, 3, 8, 3, seed=64)
    init = init_mlp([3, 4, outputs], activation=TANH, seed=65)
    stack = local_train(init, x, y, loss, lr=0.1, batch_size=3, epochs=1)
    value, acc = evaluate(stack, x, y, loss)
    assert value.shape == acc.shape == (3,)
    for k in range(3):
        alone = ModelParams([(w[k], b[k]) for w, b in stack.layers], stack.activation)
        node_value, node_acc = evaluate(alone, x[k], y[k], loss)
        assert type(node_value) is float and type(node_acc) is float
        assert value[k].tobytes() == np.float64(node_value).tobytes()
        assert acc[k].tobytes() == np.float64(node_acc).tobytes()


def test_local_train_never_writes_its_start_model():
    x, y, _ = _node_stack(SOFTMAX_CE, 3, 8, 2, seed=66)
    shared = init_mlp([2, 4, 2], activation=TANH, seed=67)
    flats = shared.flattened_view + np.random.default_rng(68).normal(0.0, 0.1, (3, shared.size))
    stack = shared.with_flat(flats)   # its layers are views of the caller's flats
    kept = shared.flattened_view.tobytes(), flats.tobytes()
    for start, inputs, labels in ((shared, x[0], y[0]), (shared, x, y), (stack, x, y)):
        trained = local_train(start, inputs, labels, SOFTMAX_CE, lr=0.1, batch_size=3, epochs=2)
        assert trained.flattened_view.tobytes() != start.flattened_view.tobytes()
        assert (shared.flattened_view.tobytes(), flats.tobytes()) == kept
    # with no sample there is no step, and the start comes back as it is
    assert local_train(stack, x[:, :0], y[:, :0], SOFTMAX_CE, lr=0.1, batch_size=3,
                       epochs=1) is stack


def test_local_train_rejects_a_stack_that_does_not_fit_the_inputs():
    x, y, _ = _node_stack(SOFTMAX_CE, 4, 6, 2, seed=69)
    init = init_mlp([2, 3, 2], activation=TANH, seed=70)
    stack = init.with_flat(np.tile(init.flattened_view, (3, 1)))
    for inputs, labels in ((x[0], y[0]), (x, y)):
        with pytest.raises(ValueError, match=r"stack of \(3,\) start models .* node shape"):
            local_train(stack, inputs, labels, SOFTMAX_CE, lr=0.1, batch_size=3, epochs=1)
