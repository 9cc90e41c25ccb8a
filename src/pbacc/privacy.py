"""Worst-case information-leakage bound for colluding workers.

A set of c colluding workers observes c evaluations of the encoding
interpolant.  Viewing the K data coefficients as transmit antennas and the
c observations as receive antennas gives an AWGN vector channel whose
capacity bounds the mutual information between the private input and the
colluders' view:

    I_L <= max over colluder sets of
           log2 det( I_c + (s^2 T / sigma_n^2) (St St^T)^-1 (S S^T) )

where S and St collect the Berrut basis values of the data and noise nodes
at the colluders' encoder nodes.  The bound is row-scale invariant, so it
only depends on the node geometry and the ratio s*sqrt(T)/sigma_n.

A singular noise Gram matrix (c colluders whose noise directions are
dependent, always the case for c > T) means some linear combination of the
observations is noise-free; the bound is reported as +inf.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .interpolation import CodingPlan, berrut_basis_matrix

EXHAUSTIVE = "exhaustive"
GREEDY = "greedy"
RANDOM_SAMPLED = "random"
STRATEGIES = (EXHAUSTIVE, GREEDY, RANDOM_SAMPLED)

#: Largest number of subsets the exhaustive strategy will enumerate.
EXHAUSTIVE_BUDGET = 1_000_000


@dataclass(frozen=True)
class PrivacyConfig:
    """Leakage-bound parameters.

    ``s`` bounds the input amplitude (|X_i| <= s), ``c`` is the colluder
    count and ``epsilon`` the target leakage in bits per data element.
    """

    K: int
    T: int
    sigma_n: float
    c: int
    s: float = 1.0
    epsilon: float = 1.0

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"need K >= 1, got {self.K}")
        if self.T < 1:
            raise ValueError(f"leakage bound requires T >= 1 noise blocks, got {self.T}")
        if self.sigma_n <= 0:
            raise ValueError(f"need sigma_n > 0, got {self.sigma_n}")
        if self.c < 1:
            raise ValueError(f"need c >= 1 colluders, got {self.c}")
        if self.s <= 0:
            raise ValueError(f"need s > 0, got {self.s}")
        if self.epsilon <= 0:
            raise ValueError(f"need epsilon > 0, got {self.epsilon}")


@dataclass(frozen=True)
class LeakageReport:
    """Result of a worst-case subset search."""

    i_L: float
    I_L: float
    worst_subset: tuple[int, ...]
    strategy: str
    subsets_evaluated: int

    def to_dict(self) -> dict:
        return {
            "i_L": self.i_L,
            "I_L": self.I_L,
            "worst_subset": list(self.worst_subset),
            "strategy": self.strategy,
            "subsets_evaluated": self.subsets_evaluated,
        }


def _check_compat(plan: CodingPlan, cfg: PrivacyConfig) -> None:
    if cfg.K != plan.K or cfg.T != plan.T:
        raise ValueError(
            f"privacy config (K={cfg.K}, T={cfg.T}) does not match plan (K={plan.K}, T={plan.T})")
    if cfg.c > plan.N:
        raise ValueError(f"colluder count {cfg.c} exceeds N={plan.N}")


def build_sigmas(subset: Sequence[int], plan: CodingPlan) -> tuple[np.ndarray, np.ndarray]:
    """Basis matrices of a colluder set: data columns and noise columns.

    Row h holds the Berrut basis over the full K+T node list evaluated at
    the h-th colluder's encoder node; rows therefore sum to 1.
    """
    subset = list(subset)
    if not subset:
        raise ValueError("subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValueError("subset indices must be distinct")
    if any(not 0 <= j < plan.N for j in subset):
        raise ValueError(f"subset indices must lie in [0, {plan.N})")
    rows = berrut_basis_matrix(plan.betas[subset], plan.alphas)
    return rows[:, :plan.K], rows[:, plan.K:]


def leakage_for_subset(subset: Sequence[int], plan: CodingPlan, cfg: PrivacyConfig) -> float:
    """Capacity bound in bits for one colluder set; +inf on singular noise.

    The noise Gram matrix is structurally singular for c > T, and can be
    singular to working precision even for c <= T when every colluder sits
    far from the noise nodes.  Either way some combination of the
    observations is (numerically) noise-free, and the bound is +inf.
    """
    _check_compat(plan, cfg)
    # the bound is invariant under colluder reordering; canonicalize so the
    # computed value is a pure function of the subset as a set
    subset = sorted(int(j) for j in subset)
    sig, noi = build_sigmas(subset, plan)
    c = len(subset)
    if c > cfg.T:
        return math.inf
    gram_noise = noi @ noi.T
    gram_signal = sig @ sig.T
    noise_eig = np.linalg.eigvalsh(gram_noise)
    if noise_eig[0] <= c * np.finfo(float).eps * max(noise_eig[-1], 0.0):
        return math.inf
    gamma = cfg.s * cfg.s * cfg.T / (cfg.sigma_n * cfg.sigma_n)
    try:
        eig = scipy.linalg.eigh(gram_signal, gram_noise, eigvals_only=True)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
        return math.inf
    if not np.all(np.isfinite(eig)):
        return math.inf
    eig = np.clip(eig, 0.0, None)
    return float(np.sum(np.log2(1.0 + gamma * eig)))


def worst_case_leakage(plan: CodingPlan, cfg: PrivacyConfig, strategy: str = GREEDY,
                       samples: int = 1000, seed: int = 0) -> LeakageReport:
    """Maximize the leakage bound over colluder sets of size c.

    ``exhaustive`` enumerates every subset (budgeted); ``greedy`` grows the
    set one node at a time, locally optimally; ``random`` draws ``samples``
    seeded subsets.  Ties break toward the lexicographically smallest
    subset, so every strategy is deterministic.
    """
    _check_compat(plan, cfg)
    c, n = cfg.c, plan.N

    evaluated = 0

    def value(subset: list[int]) -> float:
        nonlocal evaluated
        evaluated += 1
        return leakage_for_subset(subset, plan, cfg)

    if strategy == EXHAUSTIVE:
        if math.comb(n, c) > EXHAUSTIVE_BUDGET:
            raise ValueError(
                f"exhaustive search over C({n},{c}) subsets exceeds the budget "
                f"of {EXHAUSTIVE_BUDGET}; use the greedy strategy")
        best, best_val = None, -math.inf
        for subset in itertools.combinations(range(n), c):
            v = value(list(subset))
            if v > best_val:
                best, best_val = subset, v
    elif strategy == GREEDY:
        chosen: list[int] = []
        best_val = 0.0
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
        best = tuple(sorted(chosen))
    elif strategy == RANDOM_SAMPLED:
        if samples < 1:
            raise ValueError(f"need samples >= 1, got {samples}")
        rng = np.random.default_rng(seed)
        best, best_val = None, -math.inf
        for _ in range(samples):
            subset = tuple(sorted(rng.choice(n, size=c, replace=False).tolist()))
            v = value(list(subset))
            if v > best_val or (v == best_val and subset < best):
                best, best_val = subset, v
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    return LeakageReport(i_L=best_val / cfg.K, I_L=best_val,
                         worst_subset=tuple(sorted(best)),
                         strategy=strategy, subsets_evaluated=evaluated)


def max_secure_amplitude(plan: CodingPlan, cfg: PrivacyConfig, bound: float,
                         strategy: str = GREEDY, tol: float = 1e-4) -> float:
    """Largest input amplitude s with worst-case i_L <= ``bound``.

    Used when a target bound fails at the configured s: the leakage is
    strictly increasing in s, so bisection applies.  Returns 0.0 when no
    positive amplitude satisfies the bound (singular noise Gram, where the
    bound is +inf for every s > 0).
    """
    def leak_at(s: float) -> float:
        scaled = PrivacyConfig(K=cfg.K, T=cfg.T, sigma_n=cfg.sigma_n,
                               c=cfg.c, s=s, epsilon=cfg.epsilon)
        return worst_case_leakage(plan, scaled, strategy=strategy).i_L

    if leak_at(cfg.s) <= bound:
        return cfg.s
    tiny = 1e-12
    if not leak_at(tiny) <= bound:
        return 0.0
    lo, hi = tiny, cfg.s
    while hi / lo > 1.0 + tol:
        mid = math.sqrt(lo * hi)
        if leak_at(mid) <= bound:
            lo = mid
        else:
            hi = mid
    return lo
