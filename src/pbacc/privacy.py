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

The bound of one colluder set is sum_i log2(1 + gamma * lambda_i), where
gamma = s^2 T / sigma_n^2 and lambda_i are the generalized eigenvalues of
the pencil (S S^T, St St^T).  That spectrum depends only on the plan and
the set, not on s or sigma_n.  The searches therefore compute each visited
set's spectrum once per public call, in a memo that lives as long as the
call, and sum it at the call's s; ``max_secure_amplitude`` re-sums the
same spectra at every s of its bisection.  The exhaustive enumeration and
the random draws do not depend on s either and are made once per call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .interpolation import (
    CodingPlan,
    berrut_basis_matrix,  # noqa: F401 -- uncalled; bench/tracer.py patches it by this name
)

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


def _split_rows(plan: CodingPlan, idx: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Data and noise columns of the encoder-basis rows ``idx``."""
    rows = plan.encoder_basis[idx]
    return rows[:, :plan.K], rows[:, plan.K:]


def build_sigmas(subset: Sequence[int], plan: CodingPlan) -> tuple[np.ndarray, np.ndarray]:
    """Basis matrices of a colluder set: data columns and noise columns.

    Row h holds the Berrut basis over the full K+T node list evaluated at
    the h-th colluder's encoder node (a row of ``plan.encoder_basis``);
    rows therefore sum to 1.
    """
    return _split_rows(plan, plan.worker_subset(subset))


def _subset_spectrum(subset: Sequence[int], plan: CodingPlan) -> np.ndarray | None:
    """Clipped generalized eigenvalues of (S S^T, St St^T) for one colluder set.

    ``subset`` holds valid worker indices in ascending order.  The spectrum
    does not depend on s or sigma_n.  None stands for an infinite bound:
    c > T, or a noise Gram matrix singular to working precision.
    """
    c = len(subset)
    if c > plan.T:
        return None
    sig, noi = _split_rows(plan, list(subset))
    gram_noise = noi @ noi.T
    gram_signal = sig @ sig.T
    noise_eig = np.linalg.eigvalsh(gram_noise)
    if noise_eig[0] <= c * np.finfo(float).eps * max(noise_eig[-1], 0.0):
        return None
    try:
        eig = scipy.linalg.eigh(gram_signal, gram_noise, eigvals_only=True)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
        return None
    if not np.all(np.isfinite(eig)):
        return None
    return np.clip(eig, 0.0, None)


def _bits(spectra: np.ndarray, s: float, cfg: PrivacyConfig) -> np.ndarray:
    """sum log2(1 + gamma * eig) over the last axis, gamma = s^2 T / sigma_n^2."""
    gamma = s * s * cfg.T / (cfg.sigma_n * cfg.sigma_n)
    return np.sum(np.log2(1.0 + gamma * spectra), axis=-1)


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
    eig = _subset_spectrum(sorted(plan.worker_subset([int(j) for j in subset])), plan)
    return math.inf if eig is None else float(_bits(eig, cfg.s, cfg))


def _make_search(plan: CodingPlan, cfg: PrivacyConfig, strategy: str, samples: int,
                 seed: int) -> Callable[[float], tuple[float, tuple[int, ...], int]]:
    """The worst-case search of one public call, as a function of the amplitude s.

    The returned ``search(s)`` gives (bits, worst subset, subsets evaluated).
    Everything that does not depend on s is done once per call: the
    exhaustive enumeration and the random draws are made here, and each
    distinct subset's spectrum goes through :func:`_subset_spectrum` once,
    into a memo that lives as long as ``search``.  Ties break toward the
    lexicographically smallest subset, which in the greedy step and the
    exhaustive enumeration is the first maximum.  NaN values never win.
    """
    c, n = cfg.c, plan.N
    memo: dict[tuple[int, ...], np.ndarray | None] = {}

    def values(subsets: list[tuple[int, ...]], s: float) -> np.ndarray:
        """Leakage bits of each sorted subset at amplitude s; +inf for an infinite bound."""
        spectra = []
        for subset in subsets:
            if subset not in memo:
                memo[subset] = _subset_spectrum(subset, plan)
            spectra.append(memo[subset])
        finite = [i for i, eig in enumerate(spectra) if eig is not None]
        out = np.full(len(subsets), math.inf)
        if finite:
            out[finite] = _bits(np.array([spectra[i] for i in finite]), s, cfg)
        return out

    if strategy == GREEDY:
        def greedy(s: float) -> tuple[float, tuple[int, ...], int]:
            chosen: list[int] = []
            evaluated = 0
            for _ in range(c):
                candidates = [j for j in range(n) if j not in chosen]
                bits = values([tuple(sorted(chosen + [j])) for j in candidates], s)
                i = int(np.nanargmax(bits))
                chosen.append(candidates[i])
                evaluated += len(candidates)
            return float(bits[i]), tuple(sorted(chosen)), evaluated
        return greedy
    if strategy == EXHAUSTIVE:
        if math.comb(n, c) > EXHAUSTIVE_BUDGET:
            raise ValueError(
                f"exhaustive search over C({n},{c}) subsets exceeds the budget "
                f"of {EXHAUSTIVE_BUDGET}; use the greedy strategy")
        subsets = list(itertools.combinations(range(n), c))
    elif strategy == RANDOM_SAMPLED:
        if samples < 1:
            raise ValueError(f"need samples >= 1, got {samples}")
        rng = np.random.default_rng(seed)
        subsets = [tuple(sorted(rng.choice(n, size=c, replace=False).tolist()))
                   for _ in range(samples)]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    def search(s: float) -> tuple[float, tuple[int, ...], int]:
        bits = values(subsets, s)
        top = bits[int(np.nanargmax(bits))]
        tied = np.flatnonzero(bits == top)
        return float(top), min(subsets[t] for t in tied), len(subsets)
    return search


def worst_case_leakage(plan: CodingPlan, cfg: PrivacyConfig, strategy: str = GREEDY,
                       samples: int = 1000, seed: int = 0) -> LeakageReport:
    """Maximize the leakage bound over colluder sets of size c.

    ``exhaustive`` enumerates every subset (budgeted); ``greedy`` grows the
    set one node at a time, locally optimally; ``random`` draws ``samples``
    seeded subsets.  Ties break toward the lexicographically smallest
    subset, so every strategy is deterministic.  ``subsets_evaluated``
    counts every evaluation, repeats included.
    """
    _check_compat(plan, cfg)
    best_val, best, evaluated = _make_search(plan, cfg, strategy, samples, seed)(cfg.s)
    return LeakageReport(i_L=best_val / cfg.K, I_L=best_val, worst_subset=best,
                         strategy=strategy, subsets_evaluated=evaluated)


def max_secure_amplitude(plan: CodingPlan, cfg: PrivacyConfig, bound: float,
                         strategy: str = GREEDY, tol: float = 1e-4,
                         samples: int = 1000, seed: int = 0) -> float:
    """Largest input amplitude s with worst-case i_L <= ``bound``.

    Used when a target bound fails at the configured s: the leakage is
    strictly increasing in s, so bisection applies.  Each probe of s runs
    the search of :func:`worst_case_leakage` (same ``strategy``,
    ``samples`` and ``seed``).  The subsets, and their spectra, do not
    depend on s, so they are found once per call and every probe re-sums
    the same spectra.  Returns
    0.0 when no positive amplitude satisfies the bound (singular noise
    Gram, where the bound is +inf for every s > 0).
    """
    _check_compat(plan, cfg)
    search = _make_search(plan, cfg, strategy, samples, seed)

    def leak_at(s: float) -> float:
        return search(s)[0] / cfg.K

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
