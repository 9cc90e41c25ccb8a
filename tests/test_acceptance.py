"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` reports the same results through test names.
"""

import numpy as np

from pbacc.codec import NoiseSpec, encode, roundtrip_error
from pbacc.harness import run_experiment, spec_from_dict
from pbacc.interpolation import berrut_eval, make_plan
from pbacc.learners import (
    COX_PH,
    IDENTITY,
    MSE,
    RELU,
    SOFTMAX_CE,
    TANH,
    init_mlp,
    make_survival,
    make_two_clusters,
)
from pbacc.privacy import (
    EXHAUSTIVE,
    GREEDY,
    PrivacyConfig,
    max_secure_amplitude,
    worst_case_leakage,
)
from pbacc.protocols import (
    DLCD_SECURE_TRAINING,
    DLDD_SECURE_AGGREGATION,
    DLDD_SECURE_TRAINING,
    UNCODED_DLCD,
    UNCODED_DLDD,
    NetworkConfig,
    SchemeConfig,
    expected_message_counts,
    run_dlcd_secure_training,
    run_dldd_secure_aggregation,
    run_dldd_secure_training,
    run_scheme,
    run_uncoded_dldd,
)

from oracles import leakage_mp
from references import central_diff_grads, loss_and_grad


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")


# --------------------------------------------------------------------------
# 1. Leakage-table reproduction

LEAKAGE_ROWS = [
    # (N, K, T, sigma_n, c, bound, label)
    (50, 1, 30, 10.0, 10, 0.60, "cnn secure-agg/train"),
    (50, 10, 30, 30.0, 10, 0.70, "cnn dlcd secure-train"),
    (30, 1, 18, 10.0, 6, 1.00, "vae rows"),
    (70, 1, 42, 10.0, 14, 0.60, "cox rows"),
]


def test_criterion_1_leakage_table_reproduction():
    # the report is each row's accurate bound, checked against the 80-digit
    # oracle; it passes when it is consistent with the oracle, not when it
    # matches the paper's 0.6-1.0 bits (at the default shift it does not)
    details = []
    for n, k, t, sigma, c, bound, label in LEAKAGE_ROWS:
        plan = make_plan(k, t, n)

        def leak(s):
            cfg = PrivacyConfig(K=k, T=t, sigma_n=sigma, c=c, s=s, epsilon=bound)
            return worst_case_leakage(plan, cfg, strategy=GREEDY)

        def oracle_i_L(subset, s):
            return leakage_mp(plan, subset, s * s * t / sigma ** 2) / k

        at_one = leak(1.0)
        want = oracle_i_L(at_one.worst_subset, 1.0)
        assert abs(at_one.i_L - want) <= 1e-10 * want, f"{label}: i_L disagrees with the oracle"
        s_max = max_secure_amplitude(
            plan, PrivacyConfig(K=k, T=t, sigma_n=sigma, c=c, epsilon=bound), bound,
            strategy=GREEDY)
        assert 0.0 < s_max <= 1.0, f"{label}: no positive amplitude meets the bound"
        at_max = leak(s_max)
        assert at_max.i_L <= bound, f"{label}: reported max s does not satisfy the bound"
        assert oracle_i_L(at_max.worst_subset, s_max) <= bound * (1 + 1e-10), \
            f"{label}: the oracle puts the worst set at max s above the bound"
        if s_max < 1.0:
            assert leak(2.0 * s_max).i_L > bound, f"{label}: reported max s is not maximal"
        details.append(f"{label}: i_L(s=1)={at_one.i_L:.6g} (oracle {float(want):.6g}), "
                       f"max s for {bound} bits={s_max:.3g}")
    report(1, "leakage-table reproduction", True, "; ".join(details))


# --------------------------------------------------------------------------
# 2. Cost-model exactness


def _count_runs(n):
    samples = n  # one coding batch per sample at K=1
    x, y = make_two_clusters(samples, seed=30 + n)
    parts = np.array_split(np.arange(samples), n)
    per_node = [(x[i], y[i]) for i in parts]
    model = init_mlp([2, 3, 2], activation=TANH, seed=1)
    w = model.size
    net = NetworkConfig(n_nodes=n, seed=2)
    plan = make_plan(1, 2, n)

    outcomes = {}
    cfg = SchemeConfig(scheme=UNCODED_DLDD, rounds=1, lr=0.1, batch_size=4)
    outcomes[UNCODED_DLDD] = (run_scheme(cfg, net, per_node, model), w)
    cfg = SchemeConfig(scheme=UNCODED_DLCD, rounds=1, lr=0.1, batch_size=4)
    outcomes[UNCODED_DLCD] = (run_scheme(cfg, net, (x, y), model), w)
    cfg = SchemeConfig(scheme=DLDD_SECURE_AGGREGATION, plan=plan, sigma_n=0.5,
                       rounds=1, lr=0.1, batch_size=4)
    outcomes[DLDD_SECURE_AGGREGATION] = (run_scheme(cfg, net, per_node, model), w)
    cfg = SchemeConfig(scheme=DLDD_SECURE_TRAINING, plan=plan, sigma_n=0.5,
                       rounds=1, lr=0.1, batch_size=4)
    outcomes[DLDD_SECURE_TRAINING] = (run_scheme(cfg, net, per_node, model), w)
    cfg = SchemeConfig(scheme=DLCD_SECURE_TRAINING, plan=plan, sigma_n=0.5,
                       rounds=1, lr=0.1, batch_size=4)
    outcomes[DLCD_SECURE_TRAINING] = (run_scheme(cfg, net, (x, y), model), w)
    return outcomes, samples


def test_criterion_2_cost_model_exactness():
    for n in (8, 16, 50):
        outcomes, samples = _count_runs(n)
        for scheme, (traces, w) in outcomes.items():
            rounds = [t for t in traces if t.round_index >= 1]
            setup = [t for t in traces if t.round_index == 0]
            n_batches = samples  # K = 1
            expected = expected_message_counts(scheme, n, n_batches)
            for trace in rounds:
                assert trace.message_count == expected["per_round"], \
                    f"{scheme} N={n}: {trace.message_count} != {expected['per_round']}"
            if scheme in (UNCODED_DLDD, UNCODED_DLCD, DLDD_SECURE_TRAINING,
                          DLDD_SECURE_AGGREGATION):
                # K=1: every message carries exactly the model size
                assert all(m.elements == w for t in rounds for m in t.messages)
            if scheme == DLCD_SECURE_TRAINING:
                model_msgs = [m for t in rounds for m in t.messages
                              if m.phase == "model_broadcast"]
                infer_msgs = [m for t in rounds for m in t.messages
                              if m.phase == "inference_result"]
                assert len(model_msgs) == len(infer_msgs) == n * n_batches
                assert all(m.elements == w for m in model_msgs)
                assert all(m.elements == 2 for m in infer_msgs)
            if expected["once"]:
                assert setup and setup[0].message_count == expected["once"]
    report(2, "cost-model exactness", True,
           "counts equal closed forms for N in {8, 16, 50}")


# --------------------------------------------------------------------------
# 3. Encoder interpolation property


def test_criterion_3_encoder_interpolation_bit_exact():
    rng = np.random.default_rng(77)
    checked = 0
    for trial in range(200):
        k = int(rng.integers(1, 17))
        t = int(rng.integers(0, 17))
        n = int(rng.integers(2, 65))
        plan = make_plan(k, t, n)
        x = rng.normal(0.0, 2.0, size=k)
        shares, blocks = encode(x, plan, NoiseSpec(1.0, t, seed=trial))
        coeffs = [x[i:i + 1] for i in range(k)] + blocks
        for j, alpha in enumerate(plan.alphas):
            out = berrut_eval(float(alpha), plan.alphas, coeffs)
            assert np.array_equal(out, coeffs[j]), \
                f"trial {trial}: u(alpha_{j}) != coefficient {j}"
            checked += 1
    report(3, "encoder interpolation property", True,
           f"u(alpha_j) = X_j bit-exact at {checked} nodes over 200 plans")


# --------------------------------------------------------------------------
# 4. Degeneracy equivalence


def test_criterion_4_degeneracy_equivalence():
    worst = 0.0
    for seed in (0, 1, 2):
        x, y = make_two_clusters(64, seed=200 + seed)
        parts = np.array_split(np.arange(64), 8)
        per_node = [(x[i], y[i]) for i in parts]
        model = init_mlp([2, 4, 2], activation=TANH, seed=seed)
        net = NetworkConfig(n_nodes=8, seed=seed)
        plan = make_plan(1, 0, 8)

        agg = run_dldd_secure_aggregation(
            SchemeConfig(scheme=DLDD_SECURE_AGGREGATION, plan=plan, rounds=10,
                         lr=0.1, batch_size=8), net, per_node, model)
        base = run_uncoded_dldd(
            SchemeConfig(scheme=UNCODED_DLDD, rounds=10, lr=0.1, batch_size=8),
            net, per_node, model)
        worst = max(worst, max(abs(a.loss - b.loss) for a, b in zip(agg, base)))

        identical = [(x, y)] * 8
        train = run_dldd_secure_training(
            SchemeConfig(scheme=DLDD_SECURE_TRAINING, plan=plan, rounds=10,
                         lr=0.1, batch_size=8), net, identical, model)
        base_id = run_uncoded_dldd(
            SchemeConfig(scheme=UNCODED_DLDD, rounds=10, lr=0.1, batch_size=8),
            net, identical, model)
        worst = max(worst, max(abs(a.loss - b.loss) for a, b in zip(train, base_id)))

        # DLCD and its plaintext twin: centralized per-batch gradient descent
        from pbacc.learners import (backward_from_output, forward_with_cache,
                                    loss_and_output_grad, sgd_step)
        dlcd = run_dlcd_secure_training(
            SchemeConfig(scheme=DLCD_SECURE_TRAINING, plan=plan, rounds=10,
                         lr=0.1, batch_size=8), net, (x, y), model)
        twin = model.copy()
        for trace in dlcd[1:]:
            for g in range(x.shape[0]):
                preds, cache = forward_with_cache(twin, x[g:g + 1])
                _, dpred = loss_and_output_grad(preds, y[g:g + 1], SOFTMAX_CE)
                twin = sgd_step(twin, backward_from_output(twin, cache, dpred), 0.1)
            from pbacc.learners import evaluate
            twin_loss, _ = evaluate(twin, x, y, SOFTMAX_CE)
            worst = max(worst, abs(trace.loss - twin_loss))

    ok = worst <= 1e-8
    report(4, "degeneracy equivalence", ok,
           f"max per-round loss gap {worst:.3e} <= 1e-8 (3 seeds, 10 rounds)")
    assert ok


# --------------------------------------------------------------------------
# 5. Straggler/error decay


def test_criterion_5_straggler_error_decay():
    plan = make_plan(4, 0, 64)
    x = np.sort(np.random.default_rng(55).normal(0.0, 1.0, size=16))
    functions = {"identity": lambda v: v,
                 "square": lambda v: v * v,
                 "relu": lambda v: np.maximum(v, 0.0)}
    lines = []
    for name, fn in functions.items():
        means = []
        for n in (16, 32, 64):
            errs = []
            for rep in range(20):
                sub_rng = np.random.default_rng(1000 + rep)
                subset = sorted(sub_rng.choice(64, size=n, replace=False).tolist())
                errs.append(roundtrip_error(x, fn, plan, NoiseSpec(0.0, 0, 0), subset))
            means.append(float(np.mean(errs)))
        assert means[0] >= means[1] >= means[2], f"{name}: {means}"
        lines.append(f"{name} {means[0]:.2e}>={means[1]:.2e}>={means[2]:.2e}")
    report(5, "straggler error decay", True, "; ".join(lines))


# --------------------------------------------------------------------------
# 6. Privacy monotonicity


def test_criterion_6_privacy_monotonicity():
    # sigma sweep of the convergence-vs-noise table, for a small colluder set
    # and for the table's c=10 (cond ~ 5e15 noise blocks, finite bound)
    plan = make_plan(1, 30, 50)
    sweeps = {}
    for c in (2, 10):
        sweep = []
        for sigma in (10.0, 50.0, 100.0, 200.0, 400.0):
            cfg = PrivacyConfig(K=1, T=30, sigma_n=sigma, c=c, s=1.0)
            sweep.append(worst_case_leakage(plan, cfg, strategy=GREEDY).i_L)
        strict = all(a > b for a, b in zip(sweep, sweep[1:]))
        assert strict, f"sigma sweep at c={c} not strictly decreasing: {sweep}"
        sweeps[c] = sweep

    plan_small = make_plan(2, 5, 10)
    by_c = []
    for c in (1, 2, 3, 4):
        cfg = PrivacyConfig(K=2, T=5, sigma_n=3.0, c=c, s=1.0)
        by_c.append(worst_case_leakage(plan_small, cfg, strategy=EXHAUSTIVE).I_L)
    nondecr = all(b >= a for a, b in zip(by_c, by_c[1:]))
    assert nondecr, f"I_L not non-decreasing in c: {by_c}"

    report(6, "privacy monotonicity", True,
           f"i_L strictly decreasing over sigma (c=2): {[f'{v:.3g}' for v in sweeps[2]]}; "
           f"(table c=10): {[f'{v:.4g}' for v in sweeps[10]]}; "
           f"I_L non-decreasing in c (exhaustive): {[f'{v:.3g}' for v in by_c]}")


# --------------------------------------------------------------------------
# 7. Gradient correctness


def test_criterion_7_gradient_correctness():
    rng = np.random.default_rng(4242)
    worst = 0.0
    for trial in range(100):
        activation = (RELU, TANH, IDENTITY)[trial % 3]
        loss = (MSE, SOFTMAX_CE, COX_PH)[trial % 3]
        features = int(rng.integers(2, 5))
        if loss == COX_PH:
            sizes = [features, 1]
            activation = IDENTITY
            x, targets = make_survival(8, features=features, seed=trial)
        else:
            hidden = int(rng.integers(2, 6))
            width = int(rng.integers(2, 4))
            sizes = [features, hidden, width]
            x = rng.normal(size=(6, features))
            targets = rng.normal(size=(6, width)) if loss == MSE \
                else rng.integers(0, width, size=6)
        params = init_mlp(sizes, activation=activation, seed=1000 + trial)
        _, grads = loss_and_grad(params, x, targets, loss)
        numeric = central_diff_grads(params, x, targets, loss)
        gap = np.max(np.abs(grads.flattened_view - numeric))
        rel = gap / max(1.0, np.max(np.abs(numeric)))
        worst = max(worst, rel)
    ok = worst <= 1e-5
    report(7, "gradient correctness", ok,
           f"max relative error vs central differences {worst:.3e} <= 1e-5 (100 instances)")
    assert ok


# --------------------------------------------------------------------------
# 8. End-to-end learning


def test_criterion_8_end_to_end_learning():
    n = 50
    x, y = make_two_clusters(400, features=2, separation=2.5, seed=100)
    parts = np.array_split(np.arange(400), n)
    per_node = [(x[i], y[i]) for i in parts]
    model = init_mlp([2, 8, 2], activation=TANH, seed=7)
    net = NetworkConfig(n_nodes=n, seed=5)
    rounds = 20

    uncoded = run_uncoded_dldd(
        SchemeConfig(scheme=UNCODED_DLDD, rounds=rounds, lr=0.1, batch_size=8),
        net, per_node, model)[-1].accuracy

    plan = make_plan(1, 30, n)
    agg = run_dldd_secure_aggregation(
        SchemeConfig(scheme=DLDD_SECURE_AGGREGATION, plan=plan, sigma_n=10.0,
                     rounds=rounds, lr=0.1, batch_size=8),
        net, per_node, model)[-1].accuracy
    train = run_dldd_secure_training(
        SchemeConfig(scheme=DLDD_SECURE_TRAINING, plan=plan, sigma_n=10.0,
                     rounds=rounds, lr=0.1, batch_size=8),
        net, per_node, model)[-1].accuracy

    gap_agg = abs(uncoded - agg)
    gap_train = abs(uncoded - train)
    assert gap_agg <= 0.05, f"secure aggregation gap {gap_agg} > 0.05"
    assert gap_train > gap_agg, \
        f"secure training gap {gap_train} not larger than aggregation gap {gap_agg}"

    plan10 = make_plan(10, 30, n)
    dlcd = run_dlcd_secure_training(
        SchemeConfig(scheme=DLCD_SECURE_TRAINING, plan=plan10, sigma_n=30.0,
                     rounds=rounds, lr=0.1, batch_size=10),
        net, (x, y), model)[-1].accuracy
    dlcd_base = run_scheme(
        SchemeConfig(scheme=UNCODED_DLCD, rounds=rounds, lr=0.1, batch_size=10),
        net, (x, y), model)[-1].accuracy
    gap_dlcd = abs(dlcd - dlcd_base)
    assert gap_dlcd <= 0.02, f"dlcd gap {gap_dlcd} > 0.02"

    report(8, "end-to-end learning", True,
           f"uncoded {uncoded:.3f}, secure agg {agg:.3f} (gap {gap_agg:.3f} <= 0.05), "
           f"secure train {train:.3f} (gap {gap_train:.3f} > agg gap), "
           f"dlcd secure {dlcd:.3f} vs uncoded {dlcd_base:.3f} (gap {gap_dlcd:.3f} <= 0.02)")


# --------------------------------------------------------------------------
# 9. Determinism


def test_criterion_9_determinism(tmp_path):
    raw = {
        "scheme": "dldd_secure_training",
        "seed": 33,
        "rounds": 3,
        "network": {"nodes": 8},
        "plan": {"K": 1},
        "privacy": {"sigma_n": [0.5, 2.0], "T": 3, "c": 2},
        "training": {"lr": 0.1, "batch_size": 8, "samples": 64, "features": 2,
                     "hidden": [4], "activation": "tanh"},
        "output": str(tmp_path / "exp"),
    }
    first = run_experiment(spec_from_dict(raw))
    out_dir = tmp_path / "exp"
    blobs = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert set(blobs) == {"rounds.csv", "summary.json",
                          "model_cell0.bin", "model_cell1.bin"}
    second = run_experiment(spec_from_dict(raw))
    ok = first == second and all(
        (out_dir / name).read_bytes() == blob for name, blob in blobs.items())
    report(9, "determinism", ok,
           f"rerun with equal seed is byte-identical across {len(blobs)} metrics files")
    assert ok
