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
    STRATEGIES,
    LeakageReport,
    PrivacyConfig,
    build_sigmas,
    leakage_for_subset,
    max_secure_amplitude,
    worst_case_leakage,
)

from oracles import leakage_mp, leakage_spectrum_mp, sigma_entry_mp


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
    # capacity vanishes as noise dominates
    plan = make_plan(1, 30, 50)
    sweep = [worst_case_leakage(plan, cfg(sigma_n=sg, c=2), strategy=GREEDY).i_L
             for sg in (1e4, 1e6, 1e8)]
    assert sweep[0] > sweep[1] > sweep[2] >= 0.0
    assert sweep[2] < 1e-6
    # ten colluders see an ill-conditioned (cond ~ 5e15) but full-rank noise
    # block: the bound is finite, 67.439058087 bits at sigma = 1e6, and still
    # falls with sigma
    worst10 = worst_case_leakage(plan, cfg(sigma_n=1e6, c=10), strategy=GREEDY)
    oracle = leakage_mp(plan, worst10.worst_subset, 30 / 1e12)
    assert math.isfinite(worst10.i_L) and worst10.reason is None
    assert abs(worst10.i_L - oracle) <= 1e-10 * oracle
    assert abs(worst10.i_L - 67.439058087) < 1e-8
    assert worst_case_leakage(plan, cfg(sigma_n=1e8, c=10), strategy=GREEDY).i_L < worst10.i_L


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


def test_greedy_is_deterministic_and_reports_subset():
    plan = make_plan(1, 30, 50)
    a = worst_case_leakage(plan, cfg(), strategy=GREEDY)
    b = worst_case_leakage(plan, cfg(), strategy=GREEDY)
    assert a == b
    assert len(a.worst_subset) == 10
    assert a.worst_subset == tuple(sorted(a.worst_subset))


def test_sampled_colluder_sets_are_not_a_strategy():
    # a sample of colluder sets only bounds the worst case from below
    assert STRATEGIES == (EXHAUSTIVE, GREEDY)
    plan, config = make_plan(1, 6, 20), cfg(K=1, T=6, sigma_n=2.0, c=3)
    with pytest.raises(ValueError, match=r"^unknown strategy 'random'$"):
        worst_case_leakage(plan, config, strategy="random")
    with pytest.raises(ValueError, match=r"^unknown strategy 'random'$"):
        max_secure_amplitude(plan, config, 0.25, strategy="random")


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


@pytest.mark.parametrize("bound", [math.nan], ids=["nan_bound"])
def test_max_secure_amplitude_rejects_bad_arguments_before_any_search(monkeypatch, bound):
    def search_ran(*args, **kwargs):
        raise AssertionError("a search ran")

    monkeypatch.setattr(privacy, "_make_search", search_ran)
    with pytest.raises(ValueError, match="bound"):
        max_secure_amplitude(make_plan(2, 10, 50), cfg(K=2, T=10, c=3), bound)


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


def test_privacy_config_refuses_non_integer_counts():
    for name, bad in (("K", 1.5), ("T", 2.0), ("c", 1.5), ("c", True)):
        counts = {"K": 1, "T": 2, "c": 1, name: bad}
        with pytest.raises(ValueError, match=rf"^need an integer {name}, got {bad!r}$"):
            PrivacyConfig(sigma_n=1.0, **counts)
    assert PrivacyConfig(K=np.int64(1), T=np.int32(2), sigma_n=1.0, c=np.int64(1)).c == 1


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


# -- per-subset reference: the same kernel, one public call per subset --

def reference_search(plan, config, strategy):
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
    else:
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
    return LeakageReport(i_L=best_val / config.K, I_L=best_val,
                         worst_subset=tuple(sorted(best)), strategy=strategy,
                         subsets_evaluated=evaluated,
                         reason=privacy.STRUCTURAL if c > config.T else None)


#: (K, T, N, c): c <= T; c > T (structurally infinite); c = T, whose noise
#: blocks are numerically singular to a Gram pencil (30 of the 210 subsets
#: for K=1, 6 of the 28 for K=2).
REFERENCE_PLANS = [(1, 4, 10, 2), (1, 2, 8, 3), (1, 6, 10, 6),
                   (2, 3, 9, 2), (2, 2, 7, 3), (2, 6, 8, 6)]
#: (K, T, N, c) for the amplitude solver: four that solve, one c > T where
#: every s > 0 leaks +inf, and a K=2 pair that a Gram pencil called singular
AMPLITUDE_PLANS = [(1, 4, 10, 2), (1, 6, 10, 3), (2, 6, 10, 3), (2, 6, 8, 4),
                   (1, 2, 8, 3), (2, 3, 9, 2)]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("K,T,N,c", REFERENCE_PLANS)
def test_search_matches_per_subset_reference(K, T, N, c, strategy):
    plan = make_plan(K, T, N)
    # s = 1e-170: s*s underflows to 0, so every finite subset reads 0 bits
    # and every infinite one must stay +inf, never 0 * inf = NaN
    assert 1e-170 * 1e-170 == 0.0
    for sigma_n, s in ((0.5, 1.0), (5.0, 1.0), (1.0, 1e-170)):
        config = cfg(K=K, T=T, sigma_n=sigma_n, c=c, s=s)
        got = worst_case_leakage(plan, config, strategy=strategy)
        want = reference_search(plan, config, strategy)
        assert repr(got) == repr(want)
        assert not math.isnan(got.I_L)
        assert math.isinf(got.I_L) == (c > T)


def test_reference_plans_cover_infinite_and_repeated_subsets():
    assert any(c > T for _, T, _, c in REFERENCE_PLANS)
    assert any(c > T for _, T, _, c in AMPLITUDE_PLANS)
    # c = T: every subset is finite, including the 30 a Gram pencil called singular
    plan = make_plan(1, 6, 10)
    config = cfg(K=1, T=6, sigma_n=1.0, c=6)
    values = [leakage_for_subset(sub, plan, config)
              for sub in itertools.combinations(range(10), 6)]
    assert len(values) == 210 and all(map(math.isfinite, values))


def test_batched_kernel_matches_one_subset_at_a_time():
    for K, T, N, c in [(1, 6, 10, 4), (2, 6, 9, 3), (3, 5, 8, 5), (10, 30, 50, 2)]:
        plan = make_plan(K, T, N)
        subsets = np.array(list(itertools.combinations(range(N), c))[:300])
        batched = privacy._subset_spectra(subsets, plan)
        assert batched.shape == (len(subsets), min(c, K))
        for subset, spectrum in zip(subsets, batched):
            np.testing.assert_array_equal(privacy._subset_spectrum(subset.tolist(), plan), spectrum)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("K,T,N,c", AMPLITUDE_PLANS)
def test_amplitude_matches_per_subset_reference(K, T, N, c, strategy):
    plan = make_plan(K, T, N)
    config = cfg(K=K, T=T, sigma_n=1.0, c=c)
    tol = privacy._AMPLITUDE_TOL

    def reference_at(s):
        scaled = cfg(K=K, T=T, sigma_n=1.0, c=c, s=s)
        return reference_search(plan, scaled, strategy).i_L

    for bound in (0.05, 3.0):
        got = max_secure_amplitude(plan, config, bound, strategy=strategy)
        if c > T:
            assert got == 0.0
            continue
        assert 0.0 < got < 1.0
        at = cfg(K=K, T=T, sigma_n=1.0, c=c, s=got)
        assert worst_case_leakage(plan, at, strategy=strategy).i_L <= bound
        # the reference agrees that s meets the bound, and that s is maximal
        # to the solver's tolerance
        assert reference_at(got) <= bound < reference_at(got * (1 + tol))


def test_amplitude_solver_computes_each_spectrum_once(monkeypatch):
    eliminate, spectra_of, make_search = (privacy._eliminate, privacy._subset_spectra,
                                          privacy._make_search)
    eliminations, chunks, probes = [], [], []

    def counting_eliminate(schur, *args):
        if schur.ndim == 2:  # a greedy step; the batched kernel passes (m, n, K+T)
            eliminations.append(1)
        return eliminate(schur, *args)

    def counting_spectra(subsets, plan):
        chunks.append(tuple(map(tuple, subsets.tolist())))
        return spectra_of(subsets, plan)

    def counting_make_search(*args):
        search = make_search(*args)

        def counting_search(s):
            result = search(s)
            probes.append(s)
            return result
        return counting_search

    monkeypatch.setattr(privacy, "_eliminate", counting_eliminate)
    monkeypatch.setattr(privacy, "_subset_spectra", counting_spectra)
    monkeypatch.setattr(privacy, "_make_search", counting_make_search)

    def solve(K, T, N, c, strategy, bound):
        for log in (eliminations, chunks, probes):
            log.clear()
        s_max = max_secure_amplitude(make_plan(K, T, N), cfg(K=K, T=T, sigma_n=1.0, c=c),
                                     bound, strategy=strategy)
        assert 0.0 < s_max < 1.0

    # the probes: cfg.s, the root on the worst set's spectrum (again if the
    # worst set changed), and the check one tol above it
    # K=1: the greedy path does not depend on s, so the c - 1 eliminations
    # of its one path, and the one valuation of the set it picks, serve
    # every probe
    solve(1, 30, 50, 10, GREEDY, 0.6)
    assert 3 <= len(probes) <= 4 and len(eliminations) == 9 and len(chunks) == 1
    # K=2: the path changes with s, but a prefix is never eliminated, and a
    # picked set never valued, twice
    solve(2, 10, 50, 6, GREEDY, 0.6)
    assert 3 <= len(probes) <= 5 and len(eliminations) < 5 * len(probes)
    assert len(chunks) == len(set(chunks)) <= len(probes)
    # exhaustive: one batched elimination per call
    solve(2, 6, 10, 3, EXHAUSTIVE, 0.25)
    assert 3 <= len(probes) <= 4 and len(chunks) == 1
    # the memo lives for one call: a second search eliminates its prefixes again
    eliminations.clear()
    plan, config = make_plan(1, 30, 50), cfg(c=10)
    worst_case_leakage(plan, config, strategy=GREEDY)
    worst_case_leakage(plan, config, strategy=GREEDY)
    assert len(eliminations) == 2 * 9


def test_k1_amplitude_is_the_closed_form():
    # s = sigma_n sqrt((2^bound - 1) / (T v)) on the worst set's spectrum v,
    # to within the few ulps the solver steps down to meet the bound
    plan = make_plan(1, 30, 50)
    config = cfg(sigma_n=10.0, c=10)
    report = worst_case_leakage(plan, config, strategy=GREEDY)
    v = privacy._subset_spectrum(report.worst_subset, plan)[0]
    closed = 10.0 * math.sqrt((2 ** 0.6 - 1) / (30 * v))
    s_max = max_secure_amplitude(plan, config, 0.6, strategy=GREEDY)
    assert s_max == pytest.approx(closed, rel=1e-13)
    at = cfg(sigma_n=10.0, c=10, s=s_max)
    assert worst_case_leakage(plan, at, strategy=GREEDY).i_L <= 0.6
    assert worst_case_leakage(plan, cfg(sigma_n=10.0, c=10, s=s_max * (1 + 1e-12)),
                              strategy=GREEDY).i_L > 0.6


# -- the 80-digit oracle: the Gram formula in mpmath, never the library path --

#: (N, K, T, sigma_n, c) of the paper's leakage table
TABLE_ROWS = [(50, 1, 30, 10.0, 10), (50, 10, 30, 30.0, 10),
              (30, 1, 18, 10.0, 6), (70, 1, 42, 10.0, 14)]


@pytest.mark.parametrize("N,K,T,sigma_n,c", TABLE_ROWS)
def test_table_rows_match_the_oracle(N, K, T, sigma_n, c):
    plan = make_plan(K, T, N)
    report = worst_case_leakage(plan, cfg(K=K, T=T, sigma_n=sigma_n, c=c), strategy=GREEDY)
    oracle = leakage_mp(plan, report.worst_subset, T / sigma_n ** 2)
    assert math.isfinite(report.I_L) and report.reason is None
    assert abs(report.I_L - oracle) <= 1e-10 * oracle
    # every eigenvalue, across the 57 decades of the K=10 row's spectrum
    assert_spectrum_matches_oracle(plan, report.worst_subset)


def assert_spectrum_matches_oracle(plan, subset):
    got = privacy._subset_spectrum(list(subset), plan)
    want = leakage_spectrum_mp(plan, subset)[:len(got)]
    assert len(got) == min(len(subset), plan.K)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-10 * w


#: (K, T, N, c, shift) of the small exhaustive plans, c <= T
SMALL_PLANS = [(K, T, 8, c, shift) for shift in (-2.0, -1.0)
               for K, T, c in ((1, 3, 2), (1, 4, 4), (2, 3, 3), (2, 5, 2), (3, 4, 3), (3, 5, 2))]


@pytest.mark.parametrize("K,T,N,c,shift", SMALL_PLANS)
def test_every_subset_of_small_plans_matches_the_oracle(K, T, N, c, shift):
    # at shift -1 and odd T a noise node lies on encoder node -1, which is
    # nudged 1e-9 clear of it: the smaller eigenvalues of the sets that hold
    # it sit up to 18 decades below the largest
    plan = make_plan(K, T, N, shift)
    for sub in itertools.combinations(range(N), c):
        assert_spectrum_matches_oracle(plan, sub)
    for sigma_n in (0.5, 20.0):
        config = cfg(K=K, T=T, sigma_n=sigma_n, c=c)
        oracle = {sub: leakage_mp(plan, sub, T / sigma_n ** 2)
                  for sub in itertools.combinations(range(N), c)}
        for sub, want in oracle.items():
            assert abs(leakage_for_subset(sub, plan, config) - want) <= 1e-10 * want
        report = worst_case_leakage(plan, config, strategy=EXHAUSTIVE)
        top = max(oracle.values())
        assert abs(report.I_L - top) <= 1e-10 * top
        assert oracle[report.worst_subset] >= top * (1 - 1e-10)


def test_report_reason_and_json_values():
    plan = make_plan(1, 2, 10)
    structural = worst_case_leakage(plan, cfg(K=1, T=2, sigma_n=1.0, c=3), strategy=GREEDY)
    assert structural.i_L == math.inf and structural.reason == "structural: c > T"
    record = structural.to_dict()
    assert record["i_L"] is None and record["I_L"] is None
    assert record["reason"] == "structural: c > T"
    finite = worst_case_leakage(plan, cfg(K=1, T=2, sigma_n=1.0, c=2), strategy=GREEDY)
    assert finite.reason is None and finite.to_dict()["reason"] is None
    assert finite.to_dict()["i_L"] == finite.i_L


# -- pinned greedy picks: how a step scores its candidates may change, these may not --

#: (N, K, T, sigma_n, c) of TABLE_ROWS -> greedy worst set and
#: max_secure_amplitude at epsilon 0.6
TABLE_ROW_PICKS = {
    (50, 1, 30, 10.0, 10): (
        (19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
        5.077101660290893e-16),
    (50, 10, 30, 30.0, 10): (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 12),
        5.24573572708902e-25),
    (30, 1, 18, 10.0, 6): (
        (11, 12, 13, 14, 15, 16),
        4.122884639375662e-09),
    (70, 1, 42, 10.0, 14): (
        (27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40),
        6.709450079677181e-23),
}


@pytest.mark.parametrize("N,K,T,sigma_n,c", TABLE_ROWS)
def test_table_rows_keep_their_worst_set_and_amplitude(N, K, T, sigma_n, c):
    plan = make_plan(K, T, N)
    config = cfg(K=K, T=T, sigma_n=sigma_n, c=c)
    subset = worst_case_leakage(plan, config, strategy=GREEDY).worst_subset
    s_max = max_secure_amplitude(plan, config, 0.6, strategy=GREEDY)
    assert (subset, s_max) == TABLE_ROW_PICKS[N, K, T, sigma_n, c]


#: (N, K, T, c) of the pick matrix, K = 2 to 10, each at shift -2 and -1 and
#: sigma_n 10, 1e5 and 1e9: I_L from hundreds of bits down to 0.003
PICK_PLANS = [(50, 10, 30, 10), (50, 2, 30, 10), (70, 5, 42, 14), (40, 3, 12, 8),
              (20, 2, 6, 5), (28, 2, 10, 5), (30, 4, 10, 6)]
#: (N, K, T, c, shift, sigma_n) -> greedy worst set, its I_L, and
#: max_secure_amplitude at epsilon 0.6
PICKS = {
    (50, 10, 30, 10, -2.0, 10.0): (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 12),
        493.0546450513349, 1.74857857569634e-25),
    (50, 10, 30, 10, -2.0, 100000.0): (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 12),
        341.2091574475756, 1.74857857569634e-21),
    (50, 10, 30, 10, -2.0, 1000000000.0): (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 12),
        231.60920254524518, 1.74857857569634e-17),
    (50, 10, 30, 10, -1.0, 10.0): (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 12),
        350.9428384356083, 2.4636390620051755e-21),
    (50, 10, 30, 10, -1.0, 100000.0): (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 12),
        236.568237971346, 2.4636390620051754e-17),
    (50, 10, 30, 10, -1.0, 1000000000.0): (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 12),
        153.5158412488903, 2.4636390620051755e-13),
    (50, 2, 30, 10, -2.0, 10.0): (
        (7, 8, 9, 10, 11, 12, 13, 14, 15, 37),
        155.03723429901893, 1.267819450092288e-20),
    (50, 2, 30, 10, -2.0, 100000.0): (
        (6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        106.01578126372152, 1.2678194500922884e-16),
    (50, 2, 30, 10, -2.0, 1000000000.0): (
        (6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        79.41719535060165, 1.2678194500922884e-12),
    (50, 2, 30, 10, -1.0, 10.0): (
        (6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        100.47068990506627, 8.968187012449869e-16),
    (50, 2, 30, 10, -1.0, 100000.0): (
        (6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        73.77226123847109, 8.968187012449872e-12),
    (50, 2, 30, 10, -1.0, 1000000000.0): (
        (6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        47.196836478088215, 8.968187012449869e-08),
    (70, 5, 42, 14, -2.0, 10.0): (
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 19, 20, 21, 22),
        475.63612680047083, 7.079783594955075e-36),
    (70, 5, 42, 14, -2.0, 100000.0): (
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 19, 20, 21, 22),
        364.88039951279694, 7.079783594955074e-32),
    (70, 5, 42, 14, -2.0, 1000000000.0): (
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 19, 20, 21, 22),
        279.23717136970583, 7.079783594955075e-28),
    (70, 5, 42, 14, -1.0, 10.0): (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 20, 21),
        286.275344139019, 6.430088306791166e-30),
    (70, 5, 42, 14, -1.0, 100000.0): (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 20, 21),
        232.31374679676236, 6.430088306791167e-26),
    (70, 5, 42, 14, -1.0, 1000000000.0): (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 20, 21),
        179.16289726928005, 6.430088306791167e-22),
    (40, 3, 12, 8, -2.0, 10.0): (
        (3, 4, 5, 6, 7, 8, 19, 20),
        156.92207571448319, 1.0675303548847466e-17),
    (40, 3, 12, 8, -2.0, 100000.0): (
        (3, 4, 5, 6, 7, 8, 19, 20),
        98.67521676079468, 1.0675303548847465e-13),
    (40, 3, 12, 8, -2.0, 1000000000.0): (
        (2, 3, 4, 5, 6, 7, 8, 9),
        60.91778626148542, 1.0675303548847462e-09),
    (40, 3, 12, 8, -1.0, 10.0): (
        (1, 2, 3, 4, 5, 6, 7, 8),
        92.59985563655441, 2.10079503521828e-14),
    (40, 3, 12, 8, -1.0, 100000.0): (
        (1, 2, 3, 4, 5, 6, 7, 8),
        65.60831175163884, 2.10079503521828e-10),
    (40, 3, 12, 8, -1.0, 1000000000.0): (
        (1, 2, 3, 4, 5, 6, 7, 8),
        39.032886987954775, 2.10079503521828e-06),
    (20, 2, 6, 5, -2.0, 10.0): (
        (3, 4, 5, 6, 14),
        62.08590375010766, 2.851342236448793e-09),
    (20, 2, 6, 5, -2.0, 100000.0): (
        (2, 3, 4, 5, 6),
        30.57161844314293, 2.8513422364487917e-05),
    (20, 2, 6, 5, -2.0, 1000000000.0): (
        (2, 3, 4, 5, 6),
        4.083880486848368, 0.2851342236448793),
    (20, 2, 6, 5, -1.0, 10.0): (
        (2, 3, 4, 5, 6),
        44.20903632716811, 2.582095702777838e-07),
    (20, 2, 6, 5, -1.0, 100000.0): (
        (2, 3, 4, 5, 6),
        17.570110721970885, 0.0025820957027778368),
    (20, 2, 6, 5, -1.0, 1000000000.0): (
        (2, 3, 4, 5, 6),
        0.0028046614773246693, 1.0),
    (28, 2, 10, 5, -2.0, 10.0): (
        (4, 5, 6, 7, 8),
        65.05383092324313, 7.464310934799005e-10),
    (28, 2, 10, 5, -2.0, 100000.0): (
        (4, 5, 6, 7, 8),
        34.43873887776447, 7.464310934799005e-06),
    (28, 2, 10, 5, -2.0, 1000000000.0): (
        (4, 5, 6, 7, 8),
        7.86949619937524, 0.07464310934799005),
    (28, 2, 10, 5, -1.0, 10.0): (
        (4, 5, 6, 7, 8),
        45.78297803276519, 1.4926355388423717e-07),
    (28, 2, 10, 5, -1.0, 100000.0): (
        (4, 5, 6, 7, 8),
        19.15146684997888, 0.0014926355388423717),
    (28, 2, 10, 5, -1.0, 1000000000.0): (
        (4, 5, 6, 7, 8),
        0.008376803560097311, 1.0),
    (30, 4, 10, 6, -2.0, 10.0): (
        (1, 2, 3, 4, 5, 11),
        134.01118695054723, 2.3017814254412023e-10),
    (30, 4, 10, 6, -2.0, 100000.0): (
        (3, 4, 9, 10, 11, 12),
        63.36040650760506, 2.3017828269838913e-06),
    (30, 4, 10, 6, -2.0, 1000000000.0): (
        (8, 9, 10, 11, 12, 13),
        12.97933753410325, 0.023017828269838912),
    (30, 4, 10, 6, -1.0, 10.0): (
        (1, 2, 3, 4, 5, 11),
        90.56455355696762, 2.4680156075594943e-11),
    (30, 4, 10, 6, -1.0, 100000.0): (
        (0, 1, 2, 3, 4, 5),
        45.997971353041734, 2.4680156075594944e-07),
    (30, 4, 10, 6, -1.0, 1000000000.0): (
        (0, 1, 2, 3, 4, 5),
        19.421814741062455, 0.002468015607559494),
}


@pytest.mark.parametrize("N,K,T,c", PICK_PLANS)
def test_greedy_picks_and_amplitudes_are_pinned(N, K, T, c):
    for shift in (-2.0, -1.0):
        plan = make_plan(K, T, N, shift)
        for sigma_n in (10.0, 1e5, 1e9):
            config = cfg(K=K, T=T, sigma_n=sigma_n, c=c)
            report = worst_case_leakage(plan, config, strategy=GREEDY)
            s_max = max_secure_amplitude(plan, config, 0.6, strategy=GREEDY)
            want = PICKS[N, K, T, c, shift, sigma_n]
            assert (report.worst_subset, report.I_L, s_max) == want


@pytest.mark.parametrize("shift", (-2.0, -1.2, -1.0))
def test_greedy_matches_the_reference_where_gamma_swamps_the_identity(shift):
    # at sigma_n 1e-8, gamma |w|^2 reaches 1e33 to 1e38 for a W row w:
    # I + gamma W^T W formed in floating point loses its identity, and a solve
    # with it raises (shift -2 and -1) or picks a set 14 bits lower (-1.2)
    plan = make_plan(4, 10, 30, shift)
    config = cfg(K=4, T=10, sigma_n=1e-8, c=6)
    got = worst_case_leakage(plan, config, strategy=GREEDY)
    assert repr(got) == repr(reference_search(plan, config, GREEDY))


@pytest.mark.parametrize("K,T,N,c", [(1, 30, 50, 10), (2, 10, 50, 6), (10, 30, 50, 10)])
def test_an_overflowing_amplitude_reads_inf_and_still_solves(K, T, N, c):
    # s^2 overflows: every candidate adds +inf, so the first one wins each step
    plan = make_plan(K, T, N)
    config = cfg(K=K, T=T, sigma_n=10.0, c=c, s=1e200)
    report = worst_case_leakage(plan, config, strategy=GREEDY)
    assert report.I_L == math.inf and report.worst_subset == tuple(range(c))
    s_max = max_secure_amplitude(plan, config, 0.6, strategy=GREEDY)
    at = cfg(K=K, T=T, sigma_n=10.0, c=c, s=s_max)
    assert 0.0 < s_max < 1.0 and worst_case_leakage(plan, at, strategy=GREEDY).i_L <= 0.6
