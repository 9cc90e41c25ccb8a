"""Leakage bound: basis matrices, subset capacity, worst-case search."""

import itertools
import math

import numpy as np
import pytest

from pbacc import privacy
from pbacc.interpolation import make_plan
from pbacc.privacy import (
    EXHAUSTIVE,
    GREEDY,
    RANDOM_SAMPLED,
    STRATEGIES,
    LeakageReport,
    PrivacyConfig,
    build_sigmas,
    leakage_for_subset,
    max_secure_amplitude,
    worst_case_leakage,
)

from oracles import sigma_entry_mp


def cfg(K=1, T=30, sigma_n=10.0, c=10, s=1.0, epsilon=1.0):
    return PrivacyConfig(K=K, T=T, sigma_n=sigma_n, c=c, s=s, epsilon=epsilon)


def test_sigma_rows_partition_unity_k1_t1():
    plan = make_plan(1, 1, 8)
    for j in range(8):
        sig, noi = build_sigmas([j], plan)
        assert sig.shape == (1, 1) and noi.shape == (1, 1)
        assert abs(sig[0, 0] + noi[0, 0] - 1.0) <= 1e-12


def test_sigma_rows_sum_to_one():
    plan = make_plan(3, 5, 16)
    sig, noi = build_sigmas([0, 4, 9, 15], plan)
    sums = sig.sum(axis=1) + noi.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_sigmas_match_extended_precision_oracle():
    plan = make_plan(2, 2, 8)
    subset = [1, 3]
    sig, noi = build_sigmas(subset, plan)
    alphas = [float(a) for a in plan.alphas]
    full = np.hstack([sig, noi])
    for row, j in enumerate(subset):
        for col in range(4):
            expected = float(sigma_entry_mp(float(plan.betas[j]), alphas, col))
            assert abs(full[row, col] - expected) <= 1e-12 * max(1.0, abs(expected))


def test_build_sigmas_rejects_bad_subsets():
    plan = make_plan(2, 2, 8)
    with pytest.raises(ValueError):
        build_sigmas([], plan)
    with pytest.raises(ValueError):
        build_sigmas([1, 1], plan)
    with pytest.raises(ValueError):
        build_sigmas([8], plan)


def test_large_noise_drives_leakage_to_zero():
    # capacity vanishes as noise dominates, as long as the colluders' noise
    # Gram has full numerical rank.  With the noise block a unit away from
    # the encoder interval that holds only for small colluder sets: the noise
    # basis is so smooth over the encoder nodes that every 10-node Gram is
    # rank-deficient in float64, and those subsets report +inf at any sigma.
    plan = make_plan(1, 30, 50)
    sweep = [worst_case_leakage(plan, cfg(sigma_n=sg, c=2), strategy=GREEDY).i_L
             for sg in (1e4, 1e6, 1e8)]
    assert sweep[0] > sweep[1] > sweep[2] >= 0.0
    assert sweep[2] < 1e-6
    worst10 = worst_case_leakage(plan, cfg(sigma_n=1e6, c=10), strategy=GREEDY)
    assert worst10.i_L == math.inf


def test_scalar_closed_form_c1_k1_t1():
    plan = make_plan(1, 1, 8)
    config = cfg(K=1, T=1, sigma_n=2.0, c=1, s=1.5)
    gamma = config.s**2 * config.T / config.sigma_n**2
    for j in range(8):
        sig, noi = build_sigmas([j], plan)
        expected = math.log2(1.0 + gamma * sig[0, 0] ** 2 / noi[0, 0] ** 2)
        assert leakage_for_subset([j], plan, config) == pytest.approx(expected, rel=1e-12)


def test_leakage_monotone_in_subset_inclusion():
    plan = make_plan(2, 6, 12)
    config = cfg(K=2, T=6, sigma_n=3.0, c=4)
    rng = np.random.default_rng(7)
    for _ in range(20):
        big = sorted(rng.choice(12, size=4, replace=False).tolist())
        small = sorted(rng.choice(big, size=2, replace=False).tolist())
        assert leakage_for_subset(small, plan, config) <= \
            leakage_for_subset(big, plan, config) + 1e-9


def test_leakage_nonnegative_and_infinite_beyond_noise_rank():
    plan = make_plan(1, 2, 10)
    config = cfg(K=1, T=2, sigma_n=1.0, c=3)
    assert leakage_for_subset([0, 4, 9], plan, config) == math.inf
    small = cfg(K=1, T=2, sigma_n=1.0, c=2)
    value = leakage_for_subset([4, 6], plan, small)
    assert value >= 0.0


def test_scaling_law_same_ratio_same_leakage():
    plan = make_plan(2, 5, 12)
    subset = [2, 5, 8]
    a = leakage_for_subset(subset, plan, cfg(K=2, T=5, sigma_n=4.0, c=3, s=1.0))
    b = leakage_for_subset(subset, plan, cfg(K=2, T=5, sigma_n=8.0, c=3, s=2.0))
    assert abs(a - b) <= 1e-9


def test_leakage_strictly_decreasing_in_sigma():
    plan = make_plan(2, 4, 16)
    values = [worst_case_leakage(plan, cfg(K=2, T=4, sigma_n=sg, c=2),
                                 strategy=GREEDY).i_L
              for sg in (1.0, 10.0, 100.0)]
    assert values[0] > values[1] > values[2] > 0.0


def test_leakage_nondecreasing_in_colluders_exhaustive():
    plan = make_plan(2, 5, 10)
    values = [worst_case_leakage(plan, cfg(K=2, T=5, sigma_n=3.0, c=c),
                                 strategy=EXHAUSTIVE).I_L
              for c in (1, 2, 3)]
    assert values[0] <= values[1] <= values[2]


def test_exhaustive_counts_all_subsets():
    plan = make_plan(1, 4, 8)
    report = worst_case_leakage(plan, cfg(K=1, T=4, sigma_n=2.0, c=2),
                                strategy=EXHAUSTIVE)
    assert report.subsets_evaluated == math.comb(8, 2)
    assert len(report.worst_subset) == 2
    assert report.i_L == report.I_L  # K=1


def test_exhaustive_budget_is_enforced():
    plan = make_plan(1, 30, 50)
    with pytest.raises(ValueError, match="greedy"):
        worst_case_leakage(plan, cfg(c=10), strategy=EXHAUSTIVE)


def test_greedy_close_to_exhaustive_on_small_configs():
    # regression target fixed after first measurement: >= 0.9x in >= 45 of 50
    rng = np.random.default_rng(42)
    hits, total = 0, 0
    for _ in range(50):
        n = int(rng.integers(6, 13))
        k = int(rng.integers(1, 4))
        t = int(rng.integers(2, 7))
        c = int(rng.integers(1, min(4, t) + 1))
        sg = float(rng.uniform(1, 20))
        plan = make_plan(k, t, n)
        config = cfg(K=k, T=t, sigma_n=sg, c=c)
        greedy = worst_case_leakage(plan, config, strategy=GREEDY).I_L
        exact = worst_case_leakage(plan, config, strategy=EXHAUSTIVE).I_L
        assert greedy <= exact + 1e-9
        total += 1
        if exact == 0.0 or greedy >= 0.9 * exact:
            hits += 1
    assert total == 50 and hits >= 45


def test_random_strategy_is_deterministic():
    plan = make_plan(1, 6, 20)
    config = cfg(K=1, T=6, sigma_n=2.0, c=3)
    a = worst_case_leakage(plan, config, strategy=RANDOM_SAMPLED, samples=100, seed=5)
    b = worst_case_leakage(plan, config, strategy=RANDOM_SAMPLED, samples=100, seed=5)
    assert a == b
    assert a.subsets_evaluated == 100
    exact = worst_case_leakage(plan, config, strategy=EXHAUSTIVE)
    assert a.I_L <= exact.I_L + 1e-9


def test_greedy_is_deterministic_and_reports_subset():
    plan = make_plan(1, 30, 50)
    a = worst_case_leakage(plan, cfg(), strategy=GREEDY)
    b = worst_case_leakage(plan, cfg(), strategy=GREEDY)
    assert a == b
    assert len(a.worst_subset) == 10
    assert a.worst_subset == tuple(sorted(a.worst_subset))


def test_max_secure_amplitude_reports_consistent_value():
    plan = make_plan(1, 4, 12)
    config = cfg(K=1, T=4, sigma_n=1.0, c=2)
    bound = 0.25
    base = worst_case_leakage(plan, config, strategy=EXHAUSTIVE).i_L
    assert base > bound  # this configuration leaks more than the target
    s_max = max_secure_amplitude(plan, config, bound, strategy=EXHAUSTIVE)
    assert 0.0 < s_max < 1.0
    at = PrivacyConfig(K=1, T=4, sigma_n=1.0, c=2, s=s_max)
    above = PrivacyConfig(K=1, T=4, sigma_n=1.0, c=2, s=1.05 * s_max)
    assert worst_case_leakage(plan, at, strategy=EXHAUSTIVE).i_L <= bound
    assert worst_case_leakage(plan, above, strategy=EXHAUSTIVE).i_L > bound


def test_max_secure_amplitude_zero_when_gram_singular():
    # more colluders than noise blocks: the bound is infinite for every s > 0
    plan = make_plan(1, 2, 10)
    config = cfg(K=1, T=2, sigma_n=1.0, c=4)
    assert worst_case_leakage(plan, config, strategy=GREEDY).i_L == math.inf
    assert max_secure_amplitude(plan, config, 1.0, strategy=GREEDY) == 0.0


def test_privacy_config_validation():
    with pytest.raises(ValueError):
        PrivacyConfig(K=0, T=1, sigma_n=1.0, c=1)
    with pytest.raises(ValueError):
        PrivacyConfig(K=1, T=0, sigma_n=1.0, c=1)
    with pytest.raises(ValueError):
        PrivacyConfig(K=1, T=1, sigma_n=0.0, c=1)
    with pytest.raises(ValueError):
        PrivacyConfig(K=1, T=1, sigma_n=1.0, c=0)
    with pytest.raises(ValueError):
        PrivacyConfig(K=1, T=1, sigma_n=1.0, c=1, s=0.0)


def test_config_plan_mismatch_rejected():
    plan = make_plan(2, 4, 8)
    with pytest.raises(ValueError):
        leakage_for_subset([0], plan, cfg(K=1, T=4, sigma_n=1.0, c=1))
    with pytest.raises(ValueError):
        worst_case_leakage(plan, cfg(K=2, T=4, sigma_n=1.0, c=9))


def test_report_round_trips_to_dict():
    plan = make_plan(1, 4, 8)
    report = worst_case_leakage(plan, cfg(K=1, T=4, sigma_n=2.0, c=2),
                                strategy=EXHAUSTIVE)
    record = report.to_dict()
    assert record["i_L"] == report.i_L
    assert record["strategy"] == EXHAUSTIVE
    assert record["worst_subset"] == list(report.worst_subset)


# -- per-subset reference: every search calls the public leakage_for_subset --

def reference_search(plan, config, strategy, samples=1000, seed=0):
    """The worst-case search as a loop over subsets, one public call each."""
    c, n = config.c, plan.N
    evaluated = 0

    def value(subset):
        nonlocal evaluated
        evaluated += 1
        return leakage_for_subset(subset, plan, config)

    if strategy == EXHAUSTIVE:
        best, best_val = None, -math.inf
        for subset in itertools.combinations(range(n), c):
            v = value(list(subset))
            if v > best_val:
                best, best_val = subset, v
    elif strategy == GREEDY:
        chosen = []
        for _ in range(c):
            step_best, step_val = None, -math.inf
            for j in range(n):
                if j in chosen:
                    continue
                v = value(chosen + [j])
                if v > step_val:
                    step_best, step_val = j, v
            chosen.append(step_best)
            best_val = step_val
        best = chosen
    else:
        rng = np.random.default_rng(seed)
        best, best_val = None, -math.inf
        for _ in range(samples):
            subset = tuple(sorted(rng.choice(n, size=c, replace=False).tolist()))
            v = value(list(subset))
            if v > best_val or (v == best_val and subset < best):
                best, best_val = subset, v
    return LeakageReport(i_L=best_val / config.K, I_L=best_val,
                         worst_subset=tuple(sorted(best)), strategy=strategy,
                         subsets_evaluated=evaluated)


def reference_amplitude(plan, config, bound, strategy, samples=1000, seed=0, tol=1e-4):
    """Bisection on s with one full reference search per probe."""
    def leak_at(s):
        scaled = cfg(K=config.K, T=config.T, sigma_n=config.sigma_n, c=config.c, s=s)
        return reference_search(plan, scaled, strategy, samples, seed).i_L

    if leak_at(config.s) <= bound:
        return config.s
    tiny = 1e-12
    if not leak_at(tiny) <= bound:
        return 0.0
    lo, hi = tiny, config.s
    while hi / lo > 1.0 + tol:
        mid = math.sqrt(lo * hi)
        if leak_at(mid) <= bound:
            lo = mid
        else:
            hi = mid
    return lo


#: (K, T, N, c): all finite; c > T; numerically singular subsets at c <= T
#: (30 of the 210 for K=1, 6 of the 28 for K=2); mixed.
REFERENCE_PLANS = [(1, 4, 10, 2), (1, 2, 8, 3), (1, 6, 10, 6),
                   (2, 3, 9, 2), (2, 2, 7, 3), (2, 6, 8, 6)]
#: (K, T, N, c) for the amplitude solver: four that bisect, and two where
#: every s > 0 leaks +inf (c > T; a pair of K=2 colluders whose noise Gram
#: is numerically singular)
AMPLITUDE_PLANS = [(1, 4, 10, 2), (1, 6, 10, 3), (2, 6, 10, 3), (2, 6, 8, 4),
                   (1, 2, 8, 3), (2, 3, 9, 2)]
#: random draws: more draws than C(8, 2) = 28 subsets, so some repeat
RANDOM_DRAWS = {"samples": 40, "seed": 4}


def _draws(strategy):
    return RANDOM_DRAWS if strategy == RANDOM_SAMPLED else {}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("K,T,N,c", REFERENCE_PLANS)
def test_search_matches_per_subset_reference(K, T, N, c, strategy):
    plan = make_plan(K, T, N)
    # s = 1e-170: s*s underflows to 0, so every finite subset reads 0 bits
    # and every infinite one must stay +inf, never 0 * inf = NaN
    assert 1e-170 * 1e-170 == 0.0
    for sigma_n, s in ((0.5, 1.0), (5.0, 1.0), (1.0, 1e-170)):
        config = cfg(K=K, T=T, sigma_n=sigma_n, c=c, s=s)
        got = worst_case_leakage(plan, config, strategy=strategy, **_draws(strategy))
        want = reference_search(plan, config, strategy, **_draws(strategy))
        assert repr(got) == repr(want)
        assert not math.isnan(got.I_L)
        if c > T:
            assert got.I_L == math.inf


def test_reference_plans_cover_infinite_and_repeated_subsets():
    plan = make_plan(1, 6, 10)
    config = cfg(K=1, T=6, sigma_n=1.0, c=6)
    values = [leakage_for_subset(sub, plan, config)
              for sub in itertools.combinations(range(10), 6)]
    assert 0 < sum(map(math.isinf, values)) < len(values)
    rng = np.random.default_rng(RANDOM_DRAWS["seed"])
    draws = [tuple(sorted(rng.choice(8, size=2, replace=False).tolist()))
             for _ in range(RANDOM_DRAWS["samples"])]
    assert len(set(draws)) < len(draws)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("K,T,N,c", AMPLITUDE_PLANS)
def test_amplitude_matches_per_subset_reference(K, T, N, c, strategy):
    plan = make_plan(K, T, N)
    config = cfg(K=K, T=T, sigma_n=1.0, c=c)
    for bound in (0.05, 3.0):
        got = max_secure_amplitude(plan, config, bound, strategy=strategy, **_draws(strategy))
        want = reference_amplitude(plan, config, bound, strategy, **_draws(strategy))
        assert repr(got) == repr(want)


def test_amplitude_solver_computes_each_spectrum_once(monkeypatch):
    kernel, make_search, default_rng = privacy._subset_spectrum, privacy._make_search, np.random.default_rng
    spectra, evaluations, draws = [], [], []

    def counting_kernel(subset, plan):
        spectra.append(tuple(int(j) for j in subset))
        return kernel(subset, plan)

    def counting_make_search(*args):
        search = make_search(*args)

        def counting_search(s):
            result = search(s)
            evaluations.append(result[2])
            return result
        return counting_search

    class CountingRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def choice(self, *args, **kwargs):
            draws.append(1)
            return self.rng.choice(*args, **kwargs)

    monkeypatch.setattr(privacy, "_subset_spectrum", counting_kernel)
    monkeypatch.setattr(privacy, "_make_search", counting_make_search)
    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    plan = make_plan(2, 6, 10)
    config = cfg(K=2, T=6, sigma_n=1.0, c=3)
    for strategy in STRATEGIES:
        spectra.clear()
        evaluations.clear()
        draws.clear()
        s_max = max_secure_amplitude(plan, config, 0.25, strategy=strategy, samples=50)
        assert 0.0 < s_max < 1.0
        assert len(evaluations) > 10  # a bisection, not an early return
        assert len(spectra) == len(set(spectra))  # one kernel call per distinct subset
        assert len(spectra) < sum(evaluations)
        # the random subsets are drawn once per call, not once per probe
        assert len(draws) == (50 if strategy == RANDOM_SAMPLED else 0)
    # the memo lives for one call: a second search computes its spectra again
    spectra.clear()
    worst_case_leakage(plan, config, strategy=GREEDY)
    first = len(spectra)
    worst_case_leakage(plan, config, strategy=GREEDY)
    assert len(spectra) == 2 * first


def test_amplitude_solver_uses_the_given_random_draws():
    plan = make_plan(1, 4, 12)
    config = cfg(K=1, T=4, sigma_n=1.0, c=2)
    draws = {"samples": 3, "seed": 3}
    s_max = max_secure_amplitude(plan, config, 0.25, strategy=RANDOM_SAMPLED, **draws)
    at = cfg(K=1, T=4, sigma_n=1.0, c=2, s=s_max)
    above = cfg(K=1, T=4, sigma_n=1.0, c=2, s=1.001 * s_max)
    assert worst_case_leakage(plan, at, strategy=RANDOM_SAMPLED, **draws).i_L <= 0.25
    assert worst_case_leakage(plan, above, strategy=RANDOM_SAMPLED, **draws).i_L > 0.25
