"""Scheme simulations: message accounting, degeneracy, stragglers, determinism."""

import re
from dataclasses import replace

import numpy as np
import pytest

from pbacc import learners, protocols
from pbacc.codec import NoiseSpec, decode, encode, encode_stack
from pbacc.harness import SpecError, spec_from_dict
from pbacc.interpolation import make_plan
from pbacc.learners import (
    COORD_MEDIAN,
    COX_PH,
    FEDAVG,
    IDENTITY,
    MSE,
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
    sgd_step,
)
from pbacc.protocols import (
    DLCD_SECURE_TRAINING,
    DLDD_SECURE_AGGREGATION,
    DLDD_SECURE_TRAINING,
    DROP_SLOWEST,
    Message,
    NetworkConfig,
    RANDOM_DELAY,
    SCHEMES,
    SchemeConfig,
    StragglerModel,
    UNCODED_DLCD,
    UNCODED_DLDD,
    _derived_seed,
    expected_message_counts,
    run_dlcd_secure_training,
    run_dldd_secure_aggregation,
    run_dldd_secure_training,
    run_scheme,
    run_uncoded_dlcd,
    run_uncoded_dldd,
    select_fastest,
)

N = 8
W_SIZES = [2, 4, 2]  # 2*4+4 + 4*2+2 = 22 parameters


def net(straggler=None, seed=0):
    return NetworkConfig(n_nodes=N, straggler=straggler or StragglerModel(), seed=seed)


def model():
    return init_mlp(W_SIZES, activation=TANH, seed=42)


def split(x, y, n=N):
    parts = np.array_split(np.arange(x.shape[0]), n)
    return [(x[i], y[i]) for i in parts]


def test_select_fastest_none_returns_everyone():
    assert select_fastest(net(), 3) == list(range(N))


def test_select_fastest_drop_slowest():
    cfg = net(StragglerModel(kind=DROP_SLOWEST, count=2, seed=5))
    picked = select_fastest(cfg, 1)
    assert len(picked) == 6
    assert picked == sorted(picked)
    assert picked == select_fastest(cfg, 1)
    assert picked != select_fastest(cfg, 2)  # rounds draw fresh delays


def test_select_fastest_random_delay_deterministic():
    cfg = net(StragglerModel(kind=RANDOM_DELAY, keep_n=5, seed=1))
    first = select_fastest(cfg, 0)
    assert len(first) == 5
    assert first == select_fastest(cfg, 0)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(scheme="no_such_scheme")
    with pytest.raises(ValueError):
        SchemeConfig(scheme=DLDD_SECURE_AGGREGATION)  # plan required
    with pytest.raises(ValueError):
        SchemeConfig(scheme=DLDD_SECURE_TRAINING, plan=make_plan(2, 0, N))
    with pytest.raises(ValueError):
        NetworkConfig(n_nodes=4, straggler=StragglerModel(kind=DROP_SLOWEST, count=4))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_only_an_aggregating_scheme_takes_a_median(scheme):
    x, y = make_two_clusters(25, seed=13)
    row = protocols.SCHEME_TABLE[scheme]
    plan = make_plan(1, 2, N) if row.coded else None
    data = (x, y) if row.centralized else split(x, y)
    cfg = SchemeConfig(scheme=scheme, plan=plan, sigma_n=0.5, rounds=2, lr=0.1)
    if not row.aggregates:
        with pytest.raises(ValueError, match=rf"^{scheme} .* only 'fedavg', got 'coord_median'$"):
            replace(cfg, agg_rule=COORD_MEDIAN)
        return
    # where it is taken, the rule moves the model
    mean, median = (run_scheme(replace(cfg, agg_rule=rule), net(seed=4), data, model())[-1]
                    .decoded_model for rule in (FEDAVG, COORD_MEDIAN))
    assert mean.tobytes() != median.tobytes()


@pytest.mark.parametrize("field,value", [
    ("batch_size", 0), ("batch_size", -1), ("batch_size", 2.0), ("epochs_per_round", 0),
    ("epochs_per_round", True), ("rounds", 2.5), ("lr", 0.0), ("lr", -0.1), ("lr", np.inf),
    ("lr", np.nan)])
def test_scheme_config_rejects_bad_training_fields(field, value):
    with pytest.raises(ValueError, match=field):
        SchemeConfig(scheme=UNCODED_DLDD, **{field: value})


@pytest.mark.parametrize("build, name, value", [
    (lambda v: NetworkConfig(n_nodes=v), "n_nodes", 2.5),
    (lambda v: NetworkConfig(n_nodes=v), "n_nodes", True),
    (lambda v: StragglerModel(kind=DROP_SLOWEST, count=v), "count", 1.0),
    (lambda v: StragglerModel(kind=RANDOM_DELAY, keep_n=v), "keep_n", 2.5),
    (lambda v: StragglerModel(seed=v), "seed", True)])
def test_network_counts_must_be_integers(build, name, value):
    with pytest.raises(ValueError, match=f"^need an integer {name}, got {value}$"):
        build(value)


def test_uncoded_dldd_message_accounting():
    x, y = make_two_clusters(64, seed=0)
    cfg = SchemeConfig(scheme=UNCODED_DLDD, rounds=3, lr=0.1)
    traces = run_uncoded_dldd(cfg, net(), split(x, y), model())
    assert len(traces) == 3
    w = model().size
    for trace in traces:
        assert trace.message_count == expected_message_counts(UNCODED_DLDD, N)["per_round"]
        assert all(m.elements == w for m in trace.messages)


def test_uncoded_dlcd_message_accounting():
    x, y = make_two_clusters(64, seed=0)
    cfg = SchemeConfig(scheme=UNCODED_DLCD, rounds=2, lr=0.1)
    traces = run_scheme(cfg, net(), (x, y), model())
    setup, rounds = traces[0], traces[1:]
    assert setup.round_index == 0
    assert setup.message_count == N
    assert setup.element_volume == 64 * (2 + 1)  # features + label per sample
    w = model().size
    for trace in rounds:
        assert trace.message_count == 2 * N
        assert all(m.elements == w for m in trace.messages)


def test_uncoded_dlcd_is_uncoded_dldd_on_the_partition():
    x, y = make_two_clusters(60, seed=7)
    straggler = StragglerModel(kind=DROP_SLOWEST, count=3, seed=2)
    centralized = run_uncoded_dlcd(SchemeConfig(scheme=UNCODED_DLCD, rounds=3, lr=0.1),
                                   net(straggler), (x, y), model())
    federated = run_uncoded_dldd(SchemeConfig(scheme=UNCODED_DLDD, rounds=3, lr=0.1),
                                 net(straggler), split(x, y), model())
    assert centralized[0].round_index == 0
    assert len(centralized[1:]) == len(federated) == 3
    for tc, tf in zip(centralized[1:], federated):
        assert tc.loss == tf.loss
        assert tc.decoded_model.tobytes() == tf.decoded_model.tobytes()


def test_dldd_secure_aggregation_message_accounting():
    x, y = make_two_clusters(64, seed=0)
    plan = make_plan(1, 4, N)
    cfg = SchemeConfig(scheme=DLDD_SECURE_AGGREGATION, plan=plan, sigma_n=0.5,
                       rounds=2, lr=0.1)
    traces = run_dldd_secure_aggregation(cfg, net(), split(x, y), model())
    w = model().size
    expected = expected_message_counts(DLDD_SECURE_AGGREGATION, N)["per_round"]
    for trace in traces:
        assert trace.message_count == expected == 2 * N + N * (N - 1)
        # K=1 shares have exactly the model size
        assert all(m.elements == w for m in trace.messages)
        exchanges = [m for m in trace.messages if m.phase == "share_exchange"]
        assert len(exchanges) == N * (N - 1)


def test_dldd_secure_training_message_accounting():
    x, y = make_two_clusters(64, seed=0)
    plan = make_plan(1, 4, N)
    cfg = SchemeConfig(scheme=DLDD_SECURE_TRAINING, plan=plan, sigma_n=0.5,
                       rounds=2, lr=0.1)
    traces = run_dldd_secure_training(cfg, net(), split(x, y), model())
    w = model().size
    for trace in traces:
        assert trace.message_count == 2 * N
        assert all(m.elements == w for m in trace.messages)


def test_dlcd_secure_training_message_accounting():
    x, y = make_two_clusters(24, seed=0)
    plan = make_plan(2, 0, N)
    cfg = SchemeConfig(scheme=DLCD_SECURE_TRAINING, plan=plan, rounds=2, lr=0.1)
    traces = run_dlcd_secure_training(cfg, net(), (x, y), model())
    setup, rounds = traces[0], traces[1:]
    n_batches = 24 // 2
    assert setup.message_count == N
    assert all(m.elements == n_batches * 2 for m in setup.messages)  # L/K rows x features
    w = model().size
    for trace in rounds:
        assert trace.message_count == 2 * N * n_batches
        broadcast = [m for m in trace.messages if m.phase == "model_broadcast"]
        results = [m for m in trace.messages if m.phase == "inference_result"]
        assert len(broadcast) == N * n_batches
        assert len(results) == N * n_batches
        assert all(m.elements == w for m in broadcast)
        assert all(m.elements == 2 for m in results)  # one sample, two logits


def test_dldd_secure_aggregation_matches_uncoded_when_identity_coded():
    x, y = make_two_clusters(64, seed=1)
    data = split(x, y)
    plan = make_plan(1, 0, N)
    secure = run_dldd_secure_aggregation(
        SchemeConfig(scheme=DLDD_SECURE_AGGREGATION, plan=plan, rounds=6, lr=0.1),
        net(), data, model())
    uncoded = run_uncoded_dldd(
        SchemeConfig(scheme=UNCODED_DLDD, rounds=6, lr=0.1), net(), data, model())
    for ts, tu in zip(secure, uncoded):
        assert abs(ts.loss - tu.loss) <= 1e-8
        np.testing.assert_allclose(ts.decoded_model, tu.decoded_model,
                                   rtol=1e-10, atol=1e-12)


def test_dldd_secure_training_matches_uncoded_on_identical_datasets():
    x, y = make_two_clusters(16, seed=2)
    data = [(x, y)] * N  # every node owns the same dataset
    plan = make_plan(1, 0, N)
    secure = run_dldd_secure_training(
        SchemeConfig(scheme=DLDD_SECURE_TRAINING, plan=plan, rounds=5, lr=0.1),
        net(), data, model())
    uncoded = run_uncoded_dldd(
        SchemeConfig(scheme=UNCODED_DLDD, rounds=5, lr=0.1), net(), data, model())
    for ts, tu in zip(secure, uncoded):
        assert abs(ts.loss - tu.loss) <= 1e-8


def test_dlcd_secure_training_matches_centralized_sgd_when_identity_coded():
    x, y = make_two_clusters(24, seed=3)
    plan = make_plan(1, 0, N)
    cfg = SchemeConfig(scheme=DLCD_SECURE_TRAINING, plan=plan, rounds=4, lr=0.1)
    traces = run_dlcd_secure_training(cfg, net(), (x, y), model())

    # plaintext twin: the same per-batch loop computed entirely at the master
    twin = model()
    for trace in traces[1:]:
        for g in range(x.shape[0]):
            preds, cache = forward_with_cache(twin, x[g:g + 1])
            _, dpred = loss_and_output_grad(preds, y[g:g + 1], SOFTMAX_CE)
            twin = sgd_step(twin, backward_from_output(twin, cache, dpred), cfg.lr)
        np.testing.assert_allclose(trace.decoded_model, twin.flattened_view,
                                   rtol=1e-9, atol=1e-11)


def reference_dlcd_secure_training(cfg, network, x, y, model_init):
    """The coded runner as a per-share loop: one forward, two sends per worker.

    Returns per round (loss, flat model, messages, train-op count and
    elements, decode-op count and elements).
    """
    plan = cfg.plan
    shares, _ = encode(x, plan, NoiseSpec(cfg.sigma_n, plan.T, _derived_seed(network.seed, 0)))
    w = model_init.size
    model, rounds = model_init.copy(), []
    for r in range(1, cfg.rounds + 1):
        fastest = select_fastest(network, r)
        messages, train, decoded_elems = [], [0, 0], [0, 0]
        for g in range(shares[0].payload.shape[0]):
            lo = g * plan.K
            valid = min(plan.K, x.shape[0] - lo)
            results = []
            for j, share in enumerate(shares):
                messages.append(Message("master", f"node{j}", w, "model_broadcast"))
                pred = forward(model, share.payload[g])
                messages.append(Message(f"node{j}", "master", pred.size, "inference_result"))
                results.append((share.beta, pred))
            decoded = decode([results[j] for j in fastest], plan, out_extent=valid)
            _, dpred = loss_and_output_grad(decoded, y[lo:lo + valid], cfg.loss)
            _, cache = forward_with_cache(model, x[lo:lo + valid])
            model = sgd_step(model, backward_from_output(model, cache, dpred), cfg.lr)
            train = [train[0] + len(shares) + 1, train[1] + (len(shares) + 1) * w]
            decoded_elems = [decoded_elems[0] + 1, decoded_elems[1] + decoded.size]
        loss, _ = evaluate(model, x, y, cfg.loss)
        rounds.append((loss, model.flattened_view, messages, train, decoded_elems))
    return rounds


STRAGGLERS = {
    "none": StragglerModel(),
    "drop_slowest": StragglerModel(kind=DROP_SLOWEST, count=2, seed=4),
    "random_delay": StragglerModel(kind=RANDOM_DELAY, keep_n=4, seed=5),
}


DLCD_CASES = [
    *[(SOFTMAX_CE, straggler, K, TANH) for straggler in STRAGGLERS for K in (1, 2, 3)],
    *[(loss, "drop_slowest", K, TANH) for loss in (MSE, COX_PH) for K in (1, 2)],
    *[(SOFTMAX_CE, straggler, K, activation) for activation in (RELU, IDENTITY)
      for straggler in STRAGGLERS for K in (1, 2)],
]


# tanh is the models' usual activation: its cases are named without it
@pytest.mark.parametrize("loss, straggler, K, activation", DLCD_CASES, ids=[
    "-".join(map(str, case if case[3] != TANH else case[:3])) for case in DLCD_CASES])
def test_dlcd_secure_training_matches_the_per_share_reference(loss, straggler, K, activation):
    # 25 samples: K=2 and K=3 leave a short last group
    if loss == COX_PH:
        x, y = make_survival(25, features=2, seed=11)
    else:
        x, y = make_two_clusters(25, seed=8)
    sizes, seed = (W_SIZES, 42) if loss == SOFTMAX_CE else ([2, 4, 1], 12)
    start = init_mlp(sizes, activation=activation, seed=seed)
    plan = make_plan(K, 2, 6)
    cfg = SchemeConfig(scheme=DLCD_SECURE_TRAINING, plan=plan, sigma_n=0.5, rounds=2, lr=0.1,
                       loss=loss)
    network = NetworkConfig(n_nodes=6, seed=3, straggler=STRAGGLERS[straggler])
    traces = run_dlcd_secure_training(cfg, network, (x, y), start)
    reference = reference_dlcd_secure_training(cfg, network, x, y, start)
    assert len(traces[1:]) == len(reference) == 2
    for trace, (loss_value, flat, messages, train, decoded) in zip(traces[1:], reference):
        assert trace.decoded_model.tobytes() == flat.tobytes()
        assert trace.loss == loss_value
        assert trace.messages == messages
        assert [trace.train_ops.count, trace.train_ops.elements] == train
        assert [trace.decode_ops.count, trace.decode_ops.elements] == decoded


def test_dlcd_secure_training_computes_a_loss_value_only_per_round(monkeypatch):
    x, y = make_two_clusters(25, seed=8)
    cfg = SchemeConfig(scheme=DLCD_SECURE_TRAINING, plan=make_plan(2, 2, 6), sigma_n=0.5,
                       rounds=3, lr=0.1)
    network = NetworkConfig(n_nodes=6, seed=3)
    expected = run_dlcd_secure_training(cfg, network, (x, y), model())
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    original_kernel = learners._loss_kernel

    def kernel(preds, prepared, loss, value):
        calls.append("value" if value else "gradient")
        return original_kernel(preds, prepared, loss, value)

    monkeypatch.setattr(learners, "_loss_kernel", kernel)
    counted(learners, "_prepare_targets")       # evaluate's, once per round
    counted(protocols, "_prepare_targets")      # the runner's, once per run
    counted(protocols, "output_grad")
    traces = run_dlcd_secure_training(cfg, network, (x, y), model())
    assert [t.decoded_model.tobytes() for t in traces[1:]] == \
        [t.decoded_model.tobytes() for t in expected[1:]]
    # one prepare per run, then per round 13 batch gradients and one evaluate,
    # which computes the loss value alone
    assert calls == ["_prepare_targets"] + (
        ["output_grad", "gradient"] * 13 + ["_prepare_targets", "value"]) * cfg.rounds


@pytest.mark.parametrize("bad", [1.7, np.nan, 2.0])
def test_dlcd_secure_training_rejects_a_bad_label_before_any_batch(monkeypatch, bad):
    def batch_ran(*args, **kwargs):
        raise AssertionError("a batch ran")

    x, y = make_two_clusters(25, seed=8)
    y[7] = bad   # in the fourth coded group of K=2
    cfg = SchemeConfig(scheme=DLCD_SECURE_TRAINING, plan=make_plan(2, 2, 6), sigma_n=0.5,
                       rounds=1, lr=0.1)
    monkeypatch.setattr(protocols, "forward", batch_ran)
    monkeypatch.setattr(protocols, "forward_with_cache", batch_ran)
    with pytest.raises(ValueError, match=rf"class label {bad} is not an integer in \[0, 2\)"):
        run_dlcd_secure_training(cfg, NetworkConfig(n_nodes=6, seed=3), (x, y), model())


def round_noise(seed, r, n, plan, sigma_n, groups):
    """Every owner's (T, G) noise blocks of round r: one (T, owner, G) draw from one generator."""
    rng = np.random.default_rng(_derived_seed(seed, r))
    return rng.normal(0.0, sigma_n / np.sqrt(plan.T), size=(plan.T, n, groups)).swapaxes(0, 1)


def reference_dldd_secure_aggregation(cfg, network, data, model_init):
    """The secure-aggregation runner as per-owner encodes and per-holder aggregates.

    Owner j's shares are the encoder basis times its own coefficient stack:
    its model, zero-padded and cut into groups of K, over its slice of the
    round's noise.  Returns per round (loss, flat model, messages).
    """
    plan, n, w = cfg.plan, network.n_nodes, model_init.size
    groups = -(-w // plan.K)
    pooled = (np.concatenate([x for x, _ in data]), np.concatenate([y for _, y in data]))
    model, rounds = model_init.copy(), []
    for r in range(1, cfg.rounds + 1):
        messages, trained = [], []
        for j, (x, y) in enumerate(data):
            messages.append(Message("master", f"node{j}", w, "model_broadcast"))
            local = local_train(model, x, y, cfg.loss, cfg.lr, cfg.batch_size,
                                cfg.epochs_per_round)
            trained.append(local.flattened_view)
        noise = round_noise(network.seed, r, n, plan, cfg.sigma_n, groups)
        owned = []  # owned[j][i]: the share of node j's model that node i holds
        for j in range(n):
            padded = np.zeros(groups * plan.K)
            padded[:w] = trained[j]
            coeffs = np.concatenate([padded.reshape(groups, plan.K).T, noise[j]])
            shares = np.dot(plan.encoder_basis, coeffs)
            owned.append([shares[i] for i in range(n)])
            messages += [Message(f"node{j}", f"node{i}", shares[i].size, "share_exchange")
                         for i in range(n) if i != j]
        results = []
        for i in range(n):
            held = aggregate([owned[j][i] for j in range(n)], cfg.agg_rule)
            messages.append(Message(f"node{i}", "master", held.size, "aggregate_result"))
            results.append((plan.betas[i], held))
        fastest = select_fastest(network, r)
        model = model.with_flat(decode([results[i] for i in fastest], plan, out_extent=w))
        loss, _ = evaluate(model, *pooled, cfg.loss)
        rounds.append((loss, model.flattened_view, messages))
    return rounds


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("agg_rule", [FEDAVG, COORD_MEDIAN])
def test_dldd_secure_aggregation_matches_the_per_share_reference(K, agg_rule):
    x, y = make_two_clusters(45, seed=9)  # 22 parameters: the K=2 shares are padded
    data = split(x, y)
    plan = make_plan(K, 2, N)
    cfg = SchemeConfig(scheme=DLDD_SECURE_AGGREGATION, plan=plan, sigma_n=0.5, rounds=2,
                       lr=0.1, batch_size=3, agg_rule=agg_rule)
    network = NetworkConfig(n_nodes=N, seed=5,
                            straggler=StragglerModel(kind=DROP_SLOWEST, count=2, seed=6))
    traces = run_dldd_secure_aggregation(cfg, network, data, model())
    reference = reference_dldd_secure_aggregation(cfg, network, data, model())
    assert len(traces) == len(reference) == 2
    for trace, (loss, flat, messages) in zip(traces, reference):
        assert trace.decoded_model.tobytes() == flat.tobytes()
        assert trace.loss == loss
        assert trace.messages == messages


def _recorded_round_noise(monkeypatch, n, T, sigma_n, seed, rounds=2):
    """Run secure aggregation and return each round's (owner, T, G) noise blocks."""
    drawn = []

    def recording_encode_stack(xs, plan, noise, *args, **kwargs):
        payloads, blocks = encode_stack(xs, plan, noise, *args, **kwargs)
        drawn.append((noise, blocks))
        return payloads, blocks

    monkeypatch.setattr(protocols, "encode_stack", recording_encode_stack)
    x, y = make_two_clusters(2 * n, seed=15)
    plan = make_plan(1, T, n)
    cfg = SchemeConfig(scheme=DLDD_SECURE_AGGREGATION, plan=plan, sigma_n=sigma_n,
                       rounds=rounds, lr=0.1)
    network = NetworkConfig(n_nodes=n, seed=seed)
    traces = run_dldd_secure_aggregation(cfg, network, split(x, y, n), model())
    assert len(drawn) == rounds
    for r, (noise, blocks) in enumerate(drawn, start=1):
        assert noise.seed == _derived_seed(seed, r) and noise.sigma_n == sigma_n
        assert blocks.tobytes() == round_noise(seed, r, n, plan, sigma_n, model().size).tobytes()
        # the ledger still counts one encode of the model per owner
        assert [traces[r - 1].encode_ops.count, traces[r - 1].encode_ops.elements] == \
            [n, n * model().size]
    return [blocks for _, blocks in drawn]


def test_round_noise_has_the_declared_moments_and_independent_owners(monkeypatch):
    n, T, sigma_n = 70, 42, 10.0
    rounds = _recorded_round_noise(monkeypatch, n, T, sigma_n, seed=21)
    var = sigma_n ** 2 / T
    for blocks in rounds:
        assert blocks.shape == (n, T, model().size)
        m = blocks.size   # 64,680 entries, i.i.d. N(0, sigma_n^2 / T)
        # 5 standard errors of the sample mean and of the sample variance
        assert abs(blocks.mean()) <= 5 * np.sqrt(var / m)
        assert abs(blocks.var() / var - 1.0) <= 5 * np.sqrt(2.0 / m)
        # each pair of owners: a sample correlation over 924 entries has
        # standard deviation about 1/sqrt(924); 5 of them bound all 2,415
        # pairs together with probability above 0.998
        corr = np.corrcoef(blocks.reshape(n, -1))
        off = corr[~np.eye(n, dtype=bool)]
        assert np.max(np.abs(off)) <= 5 / np.sqrt(blocks[0].size)
        assert abs(off.mean()) <= 5 / np.sqrt(blocks[0].size * len(off) / 2)
    # a fresh draw in each round: the two rounds' noise is uncorrelated too
    first, second = (b.ravel() for b in rounds)
    assert not np.any(first == second)
    assert abs(np.corrcoef(first, second)[0, 1]) <= 5 / np.sqrt(first.size)


def test_round_noise_is_fixed_by_the_run_seed(monkeypatch):
    once = _recorded_round_noise(monkeypatch, N, 3, 0.5, seed=22)
    again = _recorded_round_noise(monkeypatch, N, 3, 0.5, seed=22)
    other = _recorded_round_noise(monkeypatch, N, 3, 0.5, seed=23)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(once, again))
    assert all(not np.any(a == b) for a, b in zip(once, other))


def test_dldd_secure_aggregation_tolerates_any_subset_size():
    x, y = make_two_clusters(32, seed=4)
    data = split(x, y)
    plan = make_plan(1, 2, N)
    for keep in (1, 3, N):
        cfg = SchemeConfig(scheme=DLDD_SECURE_AGGREGATION, plan=plan, sigma_n=0.1,
                           rounds=1, lr=0.1)
        straggler = StragglerModel(kind=RANDOM_DELAY, keep_n=keep, seed=9)
        traces = run_dldd_secure_aggregation(cfg, net(straggler), data, model())
        assert np.all(np.isfinite(traces[-1].decoded_model))


def test_dldd_secure_aggregation_error_shrinks_with_subset_size():
    x, y = make_two_clusters(32, seed=5)
    data = split(x, y)
    plan = make_plan(1, 2, N)

    def decoded_at(keep_n, seed):
        straggler = StragglerModel(kind=RANDOM_DELAY, keep_n=keep_n, seed=seed) \
            if keep_n < N else StragglerModel()
        cfg = SchemeConfig(scheme=DLDD_SECURE_AGGREGATION, plan=plan, sigma_n=0.1,
                           rounds=1, lr=0.1)
        traces = run_dldd_secure_aggregation(cfg, net(straggler), data, model())
        return traces[-1].decoded_model

    reference = decoded_at(N, 0)
    gaps = {}
    for keep in (2, 4):
        errs = [np.max(np.abs(decoded_at(keep, seed) - reference))
                for seed in range(20)]
        gaps[keep] = np.mean(errs)
    assert gaps[4] <= gaps[2]


def test_reruns_are_identical():
    x, y = make_two_clusters(32, seed=6)
    data = split(x, y)
    plan = make_plan(1, 3, N)
    cfg = SchemeConfig(scheme=DLDD_SECURE_TRAINING, plan=plan, sigma_n=0.2,
                       rounds=3, lr=0.05)
    a = run_dldd_secure_training(cfg, net(seed=7), data, model())
    b = run_dldd_secure_training(cfg, net(seed=7), data, model())
    for ta, tb in zip(a, b):
        assert ta.loss == tb.loss
        assert ta.messages == tb.messages
        assert np.array_equal(ta.decoded_model, tb.decoded_model)
    c = run_dldd_secure_training(cfg, net(seed=8), data, model())
    assert any(not np.array_equal(ta.decoded_model, tc.decoded_model)
               for ta, tc in zip(a, c))


def test_plan_network_size_mismatch_rejected():
    x, y = make_two_clusters(32, seed=0)
    plan = make_plan(1, 2, N + 1)
    cfg = SchemeConfig(scheme=DLDD_SECURE_TRAINING, plan=plan, sigma_n=0.1, rounds=1)
    with pytest.raises(ValueError):
        run_dldd_secure_training(cfg, net(), split(x, y), model())


def uncoded_round_ledger(n, w):
    messages = []
    for j in range(n):
        messages.append(Message("master", f"node{j}", w, "model_broadcast"))
        messages.append(Message(f"node{j}", "master", w, "local_model"))
    return messages


def test_uncoded_dldd_ledger_matches_the_reference():
    x, y = make_two_clusters(40, seed=10)
    straggler = StragglerModel(kind=DROP_SLOWEST, count=3, seed=1)
    traces = run_uncoded_dldd(SchemeConfig(scheme=UNCODED_DLDD, rounds=3, lr=0.1),
                              net(straggler), split(x, y), model())
    assert [t.round_index for t in traces] == [1, 2, 3]
    for trace in traces:
        assert trace.messages == uncoded_round_ledger(N, model().size)


def test_uncoded_dlcd_ledger_matches_the_reference():
    x, y = make_two_clusters(43, features=3, seed=11)  # parts of 6 and 5 samples
    traces = run_uncoded_dlcd(SchemeConfig(scheme=UNCODED_DLCD, rounds=2, lr=0.1),
                              net(), (x, y), init_mlp([3, 4, 2], seed=1))
    sizes = [len(part) for part in np.array_split(np.arange(43), N)]
    assert sizes[:3] == [6, 6, 6] and sizes[-1] == 5
    setup = [Message("master", f"node{j}", sizes[j] * (3 + 1), "dataset_part")
             for j in range(N)]
    assert [t.round_index for t in traces] == [0, 1, 2]
    assert traces[0].messages == setup
    for trace in traces[1:]:
        assert trace.messages == uncoded_round_ledger(N, init_mlp([3, 4, 2], seed=1).size)


def test_dldd_secure_training_ledger_matches_the_reference():
    x, y = make_two_clusters(40, seed=12)
    plan = make_plan(1, 3, N)
    cfg = SchemeConfig(scheme=DLDD_SECURE_TRAINING, plan=plan, sigma_n=0.5, rounds=2, lr=0.1)
    traces = run_dldd_secure_training(cfg, net(seed=2), split(x, y), model())
    w = model().size
    assert [t.round_index for t in traces] == [1, 2]
    for r, trace in enumerate(traces, start=1):
        # the share sizes do not depend on the model's values
        shares, _ = encode(model().flattened_view, plan,
                           NoiseSpec(cfg.sigma_n, plan.T, _derived_seed(2, r)))
        messages = []
        for j, share in enumerate(shares):
            messages.append(Message("master", f"node{j}", share.payload.size, "encoded_model"))
            messages.append(Message(f"node{j}", "master", w, "trained_model"))
        assert trace.messages == messages


def reference_dldd_secure_training(cfg, network, data, model_init):
    """The secure-training runner as one encode and one ``local_train`` per worker.

    Each round the global model is encoded at the single data node, worker j
    trains alone from its own share on its own data, and the fastest
    workers' trained models are decoded.  Returns per round (loss,
    accuracy, flat model).
    """
    plan = cfg.plan
    pooled = (np.concatenate([x for x, _ in data]), np.concatenate([y for _, y in data]))
    model, rounds = model_init.copy(), []
    for r in range(1, cfg.rounds + 1):
        shares, _ = encode(model.flattened_view, plan,
                           NoiseSpec(cfg.sigma_n, plan.T, _derived_seed(network.seed, r)))
        results = []
        for share, (x, y) in zip(shares, data):
            local = local_train(model.with_flat(share.payload), x, y, cfg.loss, cfg.lr,
                                cfg.batch_size, cfg.epochs_per_round)
            results.append((share.beta, local.flattened_view))
        fastest = select_fastest(network, r)
        model = model.with_flat(decode([results[j] for j in fastest], plan, out_extent=model.size))
        loss, accuracy = evaluate(model, *pooled, cfg.loss)
        rounds.append((loss, accuracy, model.flattened_view))
    return rounds


@pytest.mark.parametrize("straggler", list(STRAGGLERS))
@pytest.mark.parametrize("loss", [SOFTMAX_CE, COX_PH])
def test_dldd_secure_training_matches_the_per_share_reference(loss, straggler):
    # 45 samples over 8 nodes: datasets of 6 and 5 samples, two stacked groups
    if loss == COX_PH:
        x, y = make_survival(45, features=2, seed=11)
        start = init_mlp([2, 4, 1], activation=TANH, seed=12)
    else:
        x, y = make_two_clusters(45, seed=9)
        start = model()
    data = split(x, y)
    cfg = SchemeConfig(scheme=DLDD_SECURE_TRAINING, plan=make_plan(1, 2, N), sigma_n=0.5,
                       rounds=2, lr=0.1, batch_size=4, loss=loss)
    network = net(STRAGGLERS[straggler], seed=7)
    traces = run_dldd_secure_training(cfg, network, data, start)
    reference = reference_dldd_secure_training(cfg, network, data, start)
    assert len(traces) == len(reference) == 2
    for trace, (loss_value, accuracy, flat) in zip(traces, reference):
        assert trace.decoded_model.tobytes() == flat.tobytes()
        assert np.float64(trace.loss).tobytes() == np.float64(loss_value).tobytes()
        assert np.float64(trace.accuracy).tobytes() == np.float64(accuracy).tobytes()


def _run_small(scheme, rounds):
    """One small run of ``scheme``, K=2 where the scheme allows it."""
    x, y = make_two_clusters(25, seed=13)
    plan = {DLCD_SECURE_TRAINING: make_plan(2, 2, N), DLDD_SECURE_AGGREGATION: make_plan(2, 2, N),
            DLDD_SECURE_TRAINING: make_plan(1, 2, N)}.get(scheme)
    data = (x, y) if scheme in (DLCD_SECURE_TRAINING, UNCODED_DLCD) else split(x, y)
    cfg = SchemeConfig(scheme=scheme, plan=plan, sigma_n=0.5, rounds=rounds, lr=0.1)
    return run_scheme(cfg, net(seed=4), data, model())


@pytest.mark.parametrize("scheme,K", [(s, 2) for s in SCHEMES if s != DLDD_SECURE_TRAINING]
                         + [(DLDD_SECURE_TRAINING, 1), (DLCD_SECURE_TRAINING, 1)])
def test_no_scheme_writes_the_callers_start_model(scheme, K):
    x, y = make_two_clusters(25, seed=13)
    row = protocols.SCHEME_TABLE[scheme]
    plan = make_plan(K, 2, N) if row.coded else None
    data = (x, y) if row.centralized else split(x, y)
    cfg = SchemeConfig(scheme=scheme, plan=plan, sigma_n=0.5, rounds=2, lr=0.1)
    start = model()
    kept = [(w.tobytes(), b.tobytes()) for w, b in start.layers]
    traces = run_scheme(cfg, net(seed=4), data, start)
    assert traces[-1].decoded_model.tobytes() != start.flattened_view.tobytes()
    assert [(w.tobytes(), b.tobytes()) for w, b in start.layers] == kept


@pytest.mark.parametrize("scheme,K", [(s, 2) for s in SCHEMES if s != DLDD_SECURE_TRAINING]
                         + [(DLDD_SECURE_TRAINING, 1), (DLCD_SECURE_TRAINING, 1)])
def test_an_earlier_rounds_model_is_unchanged_by_later_rounds(scheme, K):
    x, y = make_two_clusters(25, seed=13)
    row = protocols.SCHEME_TABLE[scheme]
    plan = make_plan(K, 2, N) if row.coded else None
    data = (x, y) if row.centralized else split(x, y)
    per_round = []
    for rounds in (1, 2, 3):
        cfg = SchemeConfig(scheme=scheme, plan=plan, sigma_n=0.5, rounds=rounds, lr=0.1)
        per_round.append([t for t in run_scheme(cfg, net(seed=4), data, model())
                          if t.round_index >= 1])
    models = [t.decoded_model for t in per_round[-1]]
    # round r's model of a three-round run is the last model of an r-round run
    assert [m.tobytes() for m in models] == [run[-1].decoded_model.tobytes() for run in per_round]
    assert len({m.tobytes() for m in models}) == 3
    assert not any(np.shares_memory(a, b) for a, b in zip(models, models[1:]))


def test_a_trace_sums_its_blocks_once():
    reads = []

    class CountedBlock(protocols.MessageBlock):
        def __len__(self):
            reads.append(self)
            return super().__len__()

    rule = protocols.MessageRule(("master",), ("node0", "node1"), 3, "model_broadcast")
    block = CountedBlock(rule)
    trace = protocols.RoundTrace(blocks=(block,) * 5)
    assert trace.message_count == trace.message_count == 10 and len(reads) == 5
    assert trace.element_volume == trace.element_volume == 30
    assert replace(trace, round_index=1).message_count == 10 and len(reads) == 10


@pytest.mark.parametrize("scheme", SCHEMES)
def test_ledger_counters_agree_with_the_messages(scheme):
    for trace in _run_small(scheme, rounds=2):
        messages = trace.messages
        assert messages
        assert trace.message_count == len(messages)
        assert trace.element_volume == sum(m.elements for m in messages)
        assert all(type(m.elements) is int for m in messages)


def reference_ledger(scheme, n, samples, w, outputs):
    """The set-up messages (None without a set-up trace) and one round's, one by one.

    The schemes run as ``_run_ledger`` sets them up: two-feature two-cluster
    data, K=2 except for secure training over decentralized data.
    """
    nodes = [f"node{j}" for j in range(n)]
    K = 1 if scheme == DLDD_SECURE_TRAINING else 2
    setup, round_messages = None, []
    if scheme == DLCD_SECURE_TRAINING:
        batches = -(-samples // K)
        setup = [Message("master", node, batches * 2, "dataset_share") for node in nodes]
        for _ in range(batches):
            for node in nodes:
                round_messages.append(Message("master", node, w, "model_broadcast"))
                round_messages.append(Message(node, "master", outputs, "inference_result"))
    elif scheme == DLDD_SECURE_AGGREGATION:
        G = -(-w // K)
        round_messages = [Message("master", node, w, "model_broadcast") for node in nodes]
        for j in range(n):
            for i in range(n):
                if i != j:
                    round_messages.append(Message(nodes[j], nodes[i], G, "share_exchange"))
        round_messages += [Message(node, "master", G, "aggregate_result") for node in nodes]
    else:
        down, up = {DLDD_SECURE_TRAINING: ("encoded_model", "trained_model")}.get(
            scheme, ("model_broadcast", "local_model"))
        for node in nodes:
            round_messages.append(Message("master", node, w, down))
            round_messages.append(Message(node, "master", w, up))
        if scheme == UNCODED_DLCD:
            sizes = [len(part) for part in np.array_split(np.arange(samples), n)]
            setup = [Message("master", node, size * (2 + 1), "dataset_part")
                     for node, size in zip(nodes, sizes)]
    return setup, round_messages


def _run_ledger(scheme, n, samples=11, rounds=2):
    x, y = make_two_clusters(samples, seed=13)
    plan = None
    if scheme in (DLCD_SECURE_TRAINING, DLDD_SECURE_AGGREGATION):
        plan = make_plan(2, 1, n)
    elif scheme == DLDD_SECURE_TRAINING:
        plan = make_plan(1, 1, n)
    data = (x, y) if scheme in (DLCD_SECURE_TRAINING, UNCODED_DLCD) else split(x, y, n)
    cfg = SchemeConfig(scheme=scheme, plan=plan, sigma_n=0.5, rounds=rounds, lr=0.1)
    return run_scheme(cfg, NetworkConfig(n_nodes=n, seed=4), data, model())


# a coding plan needs at least two encoder nodes, so only the uncoded schemes run at N=1
@pytest.mark.parametrize("scheme,n", [(s, n) for s in SCHEMES for n in (1, 2, 5)
                                      if n > 1 or s in (UNCODED_DLCD, UNCODED_DLDD)])
def test_every_ledger_matches_its_written_out_messages(scheme, n):
    samples = 11
    traces = _run_ledger(scheme, n, samples)
    setup, round_messages = reference_ledger(scheme, n, samples, model().size, W_SIZES[-1])
    n_batches = -(-samples // 2) if scheme == DLCD_SECURE_TRAINING else 0
    expected = expected_message_counts(scheme, n, n_batches)
    if setup is not None:
        assert traces[0].round_index == 0
        assert traces[0].messages == setup
        assert traces[0].message_count == len(setup) == expected["once"]
        assert traces[0].element_volume == sum(m.elements for m in setup)
        traces = traces[1:]
    assert expected["once"] == (0 if setup is None else n)
    assert [t.round_index for t in traces] == [1, 2]
    for trace in traces:
        assert trace.messages == round_messages
        assert trace.message_count == len(round_messages) == expected["per_round"]
        assert trace.element_volume == sum(m.elements for m in round_messages)


def reference_ops(scheme, n, samples, w, features, outputs):
    """The (encode, decode, train) ops of ``_run_ledger``'s runs, as (count, elements).

    Returns the set-up trace's ops (None without a set-up trace) and one
    round's, from N, K, the model size w and the dataset size alone.
    """
    K = 1 if scheme == DLDD_SECURE_TRAINING else 2
    none = (0, 0)
    trained = (n, n * w)   # every node trains the model once
    if scheme == DLCD_SECURE_TRAINING:
        batches = -(-samples // K)
        forwards = batches * (n + 1)   # per batch, every worker's forward and the master's step
        return (((1, samples * features), none, none),
                (none, (batches, samples * outputs), (forwards, forwards * w)))
    if scheme == DLDD_SECURE_AGGREGATION:
        return None, ((n, n * w), (1, w), trained)
    if scheme == DLDD_SECURE_TRAINING:
        return None, ((1, w), (1, w), trained)
    return ((none, none, none) if scheme == UNCODED_DLCD else None), (none, none, trained)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_trace_counts_its_ops_in_closed_form(scheme):
    n, samples, features = 5, 11, 2
    traces = _run_ledger(scheme, n, samples, rounds=3)
    setup, per_round = reference_ops(scheme, n, samples, model().size, features, W_SIZES[-1])
    expected = ([] if setup is None else [(0, setup)]) + [(r, per_round) for r in (1, 2, 3)]
    assert [(t.round_index, (t.encode_ops, t.decode_ops, t.train_ops)) for t in traces] \
        == expected
    assert all(type(v) is int for t in traces
               for ops in (t.encode_ops, t.decode_ops, t.train_ops) for v in ops)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_an_exchange_rule_is_every_ordered_pair_of_distinct_nodes(n):
    nodes = tuple(f"node{j}" for j in range(n))
    rule = protocols.MessageRule(nodes, nodes, 3, "share_exchange")
    pairs = [Message(nodes[j], nodes[i], 3, "share_exchange")
             for j in range(n) for i in range(n) if i != j]
    assert rule.count == len(pairs) == n * (n - 1)
    assert list(rule.expand()) == pairs
    block = protocols.MessageBlock(protocols.MessageRule(("master",), nodes, 5, "model_broadcast"),
                                   rule, protocols.MessageRule(("node0",), ("master",), 7,
                                                               "aggregate_result"))
    assert len(block) == n + n * (n - 1) + 1
    assert block.elements == 5 * n + 3 * n * (n - 1) + 7
    assert list(block) == ([Message("master", node, 5, "model_broadcast") for node in nodes]
                           + pairs + [Message("node0", "master", 7, "aggregate_result")])


def test_secure_aggregation_builds_no_message_until_its_ledger_is_read(monkeypatch):
    built = []

    class CountedMessage(Message):
        __slots__ = ()

        def __new__(cls, *fields):
            built.append(fields)
            return super().__new__(cls, *fields)

    monkeypatch.setattr(protocols, "Message", CountedMessage)
    n = 70
    traces = _run_ledger(DLDD_SECURE_AGGREGATION, n, samples=140)
    assert built == []
    assert traces[0].message_count == expected_message_counts(DLDD_SECURE_AGGREGATION, n)["per_round"]
    messages = traces[0].messages
    assert len(built) == len(messages) == 2 * n + n * (n - 1)
    assert all(type(m) is CountedMessage for m in messages)


def test_round_blocks_are_built_once_per_run(monkeypatch):
    built = []

    class CountedBlock(protocols.MessageBlock):
        def __init__(self, *parts):
            super().__init__(*parts)
            built.append(len(self))

    monkeypatch.setattr(protocols, "MessageBlock", CountedBlock)
    counts = {}
    for scheme in SCHEMES:
        for rounds in (1, 4):
            built.clear()
            protocols._round_trips.cache_clear()   # so that every run builds its round block
            traces = _run_small(scheme, rounds)
            counts.setdefault(scheme, []).append(len(built))
            per_round = [t for t in traces if t.round_index >= 1]
            assert len(per_round) == rounds
            # every round records the same messages
            first = per_round[0].messages
            assert all(trace.messages == first for trace in per_round[1:]), scheme
    # a run builds its blocks up front: four rounds build no more than one
    assert counts == {DLCD_SECURE_TRAINING: [2, 2],  # the set-up block and the batch block
                      UNCODED_DLCD: [2, 2],          # the set-up block and the round block
                      DLDD_SECURE_AGGREGATION: [1, 1],
                      DLDD_SECURE_TRAINING: [1, 1],
                      UNCODED_DLDD: [1, 1]}
    protocols._round_trips.cache_clear()   # no counted block outlives the test


def test_secure_aggregation_aggregates_the_share_table_as_one_array(monkeypatch):
    seen = []

    def recording_aggregate(models, rule=FEDAVG):
        seen.append(models)
        return aggregate(models, rule)

    monkeypatch.setattr(protocols, "aggregate", recording_aggregate)
    x, y = make_two_clusters(45, seed=14)
    plan = make_plan(2, 2, N)
    cfg = SchemeConfig(scheme=DLDD_SECURE_AGGREGATION, plan=plan, sigma_n=0.5, rounds=2, lr=0.1)
    run_dldd_secure_aggregation(cfg, net(), split(x, y), model())
    assert len(seen) == 2
    assert all(isinstance(t, np.ndarray) and t.shape == (N, N, 11) for t in seen)


@pytest.mark.parametrize("scheme", [UNCODED_DLDD, UNCODED_DLCD, DLDD_SECURE_AGGREGATION,
                                    DLDD_SECURE_TRAINING])
def test_a_round_trains_each_equal_size_group_in_one_call(monkeypatch, scheme):
    calls = []

    def recording_local_train(params, inputs, targets, *args):
        calls.append((inputs.shape, params.node_shape))
        return local_train(params, inputs, targets, *args)

    monkeypatch.setattr(protocols, "local_train", recording_local_train)
    traces = _run_small(scheme, rounds=1)   # 25 samples on 8 nodes: one of 4, seven of 3
    assert sorted(calls) == sorted([
        ((1, 4, 2), (1,) if scheme == DLDD_SECURE_TRAINING else ()),
        ((7, 3, 2), (7,) if scheme == DLDD_SECURE_TRAINING else ())])
    assert traces[-1].train_ops.count == N
    assert traces[-1].train_ops.elements == N * model().size


# --------------------------------------------------------------------------
# The scheme table


def test_schemes_are_the_tables_keys_in_order():
    assert SCHEMES == tuple(protocols.SCHEME_TABLE) == (
        DLCD_SECURE_TRAINING, DLDD_SECURE_AGGREGATION, DLDD_SECURE_TRAINING, UNCODED_DLCD,
        UNCODED_DLDD)
    rows = protocols.SCHEME_TABLE.values()
    assert all(callable(getattr(protocols, row.runner)) for row in rows)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_scheme_calls_the_runner_by_its_name_at_call_time(monkeypatch, scheme):
    row = protocols.SCHEME_TABLE[scheme]
    calls = []

    def patched(*args):
        calls.append(args)
        return ["patched"]

    monkeypatch.setattr(protocols, row.runner, patched)
    x, y = make_two_clusters(25, seed=13)
    cfg = SchemeConfig(scheme=scheme, plan=make_plan(1, 2, N) if row.coded else None)
    data, network, start = (x, y) if row.centralized else split(x, y), net(), model()
    assert run_scheme(cfg, network, data, start) == ["patched"]
    assert calls == [(cfg, network, data, start)]


@pytest.mark.parametrize("n", [2, N])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_scheme_refuses_the_other_familys_data_form(scheme, n):
    row = protocols.SCHEME_TABLE[scheme]
    x, y = make_two_clusters(24, seed=13)
    cfg = SchemeConfig(scheme=scheme, plan=make_plan(1, 1, n) if row.coded else None)
    other = split(x, y, n) if row.centralized else (x, y)
    form = "one (inputs, targets) pair of arrays" if row.centralized \
        else "a sequence of per-node (inputs, targets) pairs"
    # through run_scheme and by the runner itself
    for run in (run_scheme, getattr(protocols, row.runner)):
        with pytest.raises(ValueError, match=f"^{scheme} takes its data as {re.escape(form)}$"):
            run(cfg, NetworkConfig(n_nodes=n), other, model())


@pytest.mark.parametrize("scheme, n_nodes, n_batches, message", [
    (DLCD_SECURE_TRAINING, 50, 0, "need n_batches >= 1, got 0"),
    (DLCD_SECURE_TRAINING, 50, 2.5, "need an integer n_batches, got 2.5"),
    (UNCODED_DLDD, -3, 0, "need n_nodes >= 1, got -3"),
    (UNCODED_DLDD, 0, 0, "need n_nodes >= 1, got 0"),
    (UNCODED_DLDD, 2.5, 0, "need an integer n_nodes, got 2.5"),
    (DLDD_SECURE_AGGREGATION, True, 0, "need an integer n_nodes, got True"),
    ("bogus", 5, 0, "unknown scheme 'bogus'; choose one of"),
    (UNCODED_DLDD, 4, -7, "uncoded_dldd has no coding batches; need n_batches == 0, got -7"),
    (UNCODED_DLDD, 4, 2.5, "uncoded_dldd has no coding batches; need n_batches == 0, got 2.5"),
    (DLDD_SECURE_AGGREGATION, 4, 3,
     "dldd_secure_aggregation has no coding batches; need n_batches == 0, got 3"),
], ids=["dlcd_no_batches", "dlcd_fraction_batches", "negative_nodes", "no_nodes",
        "fraction_nodes", "bool_nodes", "unknown_scheme", "unbatched_negative",
        "unbatched_fraction", "unbatched_positive"])
def test_expected_message_counts_refuses_counts_it_cannot_mean(scheme, n_nodes, n_batches,
                                                               message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        expected_message_counts(scheme, n_nodes, n_batches)


def test_each_K_rule_is_one_rule_read_at_every_entry_point(monkeypatch):
    x, y = make_two_clusters(3, seed=1)
    # K = 1 for secure training over decentralized data
    with pytest.raises(ValueError, match=r"^dldd_secure_training plan\.K must be 1, .*; got 2$"):
        SchemeConfig(scheme=DLDD_SECURE_TRAINING, plan=make_plan(2, 0, N))
    with pytest.raises(SpecError, match=r"^plan\.K must be 1, .*; got 2$"):
        spec_from_dict({"scheme": DLDD_SECURE_TRAINING, "plan": {"K": 2}})
    # K <= samples for coded training, which codes the master's samples
    coded = SchemeConfig(scheme=DLCD_SECURE_TRAINING, plan=make_plan(4, 2, N))  # no samples yet
    with pytest.raises(ValueError, match=r"^coding batch size K must be <= the 3 samples coded, "
                                         r"got 4$"):
        run_dlcd_secure_training(coded, net(), (x, y), model())
    with pytest.raises(SpecError, match=r"^plan\.K must be <= the 8 samples coded, got 9$"):
        spec_from_dict({"scheme": DLCD_SECURE_TRAINING, "plan": {"K": 9},
                        "training": {"samples": 8}})

    # every entry point reads the rule in the scheme's row, and only there
    asked = []

    def refuse(K, samples):
        asked.append((K, samples))
        return "is refused"

    for scheme in (DLDD_SECURE_TRAINING, DLCD_SECURE_TRAINING):
        monkeypatch.setitem(protocols.SCHEME_TABLE, scheme,
                            protocols.SCHEME_TABLE[scheme]._replace(K_rule=refuse))
    for scheme, K in ((DLDD_SECURE_TRAINING, 1), (DLCD_SECURE_TRAINING, 2)):
        with pytest.raises(ValueError, match=rf"^{scheme} plan\.K is refused$"):
            SchemeConfig(scheme=scheme, plan=make_plan(K, 2, N))
        with pytest.raises(SpecError, match=r"^plan\.K is refused$"):
            spec_from_dict({"scheme": scheme, "plan": {"K": K}, "training": {"samples": 8}})
    with pytest.raises(ValueError, match=r"^coding batch size K is refused$"):
        run_dlcd_secure_training(coded, net(), (x, y), model())
    unknown = float("inf")   # SchemeConfig does not know the samples
    assert asked == [(1, unknown), (1, 8), (2, unknown), (2, 8), (4, 3)]


@pytest.mark.parametrize("samples, n", [(1400, 70), (203, 50), (203, 7), (1400, 1400)])
@pytest.mark.parametrize("make", [make_two_clusters, make_survival])
def test_partition_parts_are_views_equal_to_the_index_split(make, samples, n):
    x, y = make(samples, seed=5)   # labels (samples,) or (time, event) pairs (samples, 2)
    parts = protocols._partition(x, y, n)
    assert [(a.shape, a.tobytes(), b.shape, b.tobytes()) for a, b in parts] == \
        [(a.shape, a.tobytes(), b.shape, b.tobytes()) for a, b in split(x, y, n)]
    assert all(np.shares_memory(a, x) and np.shares_memory(b, y) for a, b in parts)
