"""Worst-case information-leakage bound for colluding workers.

A set of c colluding workers observes c evaluations of the encoding
interpolant.  Viewing the K data coefficients as transmit antennas and the
c observations as receive antennas gives an AWGN vector channel whose
capacity bounds the mutual information between the private input and the
colluders' view:

    I_L <= max over colluder sets of
           log2 det( I_K + (s^2 T / sigma_n^2) S^T (St St^T)^-1 S )

where S and St collect the Berrut basis values of the data and noise nodes
at the colluders' encoder nodes.  The bound only depends on the node
geometry and the ratio s*sqrt(T)/sigma_n.  It is +inf exactly when c > T:
then some combination of the c observations of T noise coefficients is
noise-free.

Structured elimination.  Row h of [S | St] is the basis at encoder node
x_h = beta_h, (w_i / (x_h - a_i)) / D(x_h) with signs w_i = +-1.  The
bound is invariant under row scaling and column signs, so the colluders see
the Cauchy matrix C[h, i] = 1 / (x_h + y_i) with y = -alphas.  Gaussian
elimination on C, one colluder row at a time and pivoting on the row's
largest noise entry, gives St = L D U and S = L D Us, with U a unit upper
trapezoid whose entries are at most 1 in magnitude.  A set is valued
with complete pivoting (GECP): the remaining row with the largest noise
entry is eliminated next.  With U = L_U Q^T (LQ),

    S^T (St St^T)^-1 S = Us^T (U U^T)^-1 Us = W^T W,   W = L_U^-1 Us,

so the set's spectrum is the squared singular values of W, taken by
one-sided Jacobi.  Row k of W is w = (b - h W_prev) / ||P_perp u||, for U
row u, Us row b and h = Q^T u.  Eliminating row r on noise column p
updates every Schur-complement entry from the generators alone (Demmel
1999, Cauchy GECP),

    G[i, j] *= (x_i - x_r)(y_j - y_p) / ((x_r + y_j)(x_i + y_p)),

which keeps every entry to high relative accuracy however ill-conditioned
St is; forming St St^T, as a Gram pencil does, squares that conditioning.

Searches.  A spectrum depends only on the plan and the set, not on s or
sigma_n; the bound at amplitude s is sum_i log2(1 + gamma * lambda_i) with
gamma = s^2 T / sigma_n^2.  The greedy search keeps the Schur rows of every
worker in one array and scores all candidates of a step at once, by the
bits each adds (matrix determinant lemma); a memo that lives as long as the
public call eliminates each ordered prefix once.  The exhaustive search
eliminates chunks of subsets at once, once per call.  ``max_secure_amplitude``
re-sums the chosen sets' spectra at each s; for K = 1 it solves in closed form.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .interpolation import (
    CodingPlan,
    berrut_basis_matrix,  # noqa: F401 -- uncalled; bench/tracer.py patches it by this name
    _check_count,
)

EXHAUSTIVE = "exhaustive"
GREEDY = "greedy"
STRATEGIES = (EXHAUSTIVE, GREEDY)

#: Largest number of subsets the exhaustive strategy will enumerate.
EXHAUSTIVE_BUDGET = 1_000_000

#: ``LeakageReport.reason`` of an infinite bound.
STRUCTURAL = "structural: c > T"

#: Subsets eliminated together by the exhaustive search.
_CHUNK = 2048

#: Relative precision to which :func:`max_secure_amplitude` confirms its s.
_AMPLITUDE_TOL = 1e-4

#: Cap on the one-sided Jacobi sweeps of :func:`_spectrum`; a few suffice.
_MAX_SWEEPS = 30

#: Cap on the Newton steps of :func:`_amplitude_for`; a few suffice.
_MAX_NEWTON = 100


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
        _check_count("K", self.K, 1)
        _check_count("T", self.T, 1)   # the leakage bound needs a noise block
        _check_count("c", self.c, 1)   # colluders
        for name in ("sigma_n", "s", "epsilon"):
            value = getattr(self, name)
            if not value > 0 or not math.isfinite(value):
                raise ValueError(f"need a finite {name} > 0, got {value}")


def _finite_or_none(value: float) -> float | None:
    """``value``, or None where it is NaN or infinite, which JSON cannot carry."""
    return float(value) if math.isfinite(value) else None


@dataclass(frozen=True)
class LeakageReport:
    """Result of a worst-case subset search.

    ``reason`` says why the bound is infinite (:data:`STRUCTURAL`), and is
    None for a finite bound.
    """

    i_L: float
    I_L: float
    worst_subset: tuple[int, ...]
    strategy: str
    subsets_evaluated: int
    reason: str | None = None

    def to_dict(self) -> dict:
        """The report as JSON-ready values; an infinite bound is None, with its reason."""
        return {
            "i_L": _finite_or_none(self.i_L),
            "I_L": _finite_or_none(self.I_L),
            "worst_subset": list(self.worst_subset),
            "strategy": self.strategy,
            "subsets_evaluated": self.subsets_evaluated,
            "reason": self.reason,
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
    the h-th colluder's encoder node (a row of ``plan.encoder_basis``);
    rows therefore sum to 1.
    """
    rows = plan.encoder_basis[plan.worker_subset(subset)]
    return rows[:, :plan.K], rows[:, plan.K:]


def _next_w(schur: np.ndarray, basis: np.ndarray, w: np.ndarray,
            K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The W row each Schur row would add: (pivot column, new basis vector, W row).

    ``schur`` is (n, K+T), the rows' Schur complements after the rows of
    ``w`` ((n,) k, K) were eliminated; ``basis`` ((n,) T, k) is an
    orthonormal basis of those rows' U rows, shared by all n rows when it
    has no leading axis.  A row's U row is its noise part over its largest
    noise entry (the pivot), its Us row its data part over the same entry.
    """
    noise = schur[:, K:]
    pivot = np.argmax(np.abs(noise), axis=1)
    scale = noise[np.arange(len(noise)), pivot][:, None]
    u = noise / scale
    b = schur[:, :K] / scale
    if basis.shape[-1]:
        basis_t = np.swapaxes(basis, -1, -2)
        for _ in range(2):  # classical Gram-Schmidt, twice for orthogonality
            h = _row_times(u, basis)
            u = u - _row_times(h, basis_t)
            b = b - _row_times(h, w)
    norm = np.sqrt(np.einsum("ij,ij->i", u, u))[:, None]
    return pivot, u / norm, b / norm


def _row_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row of ``a`` (n, p) times ``b`` (p, q), or row i times b[i] for b (n, p, q)."""
    return a @ b if b.ndim == 2 else np.matmul(a[:, None], b)[:, 0]


def _first_max(bits: np.ndarray) -> int:
    """Index of the first maximum of ``bits``; NaN never wins (all NaN raises)."""
    i = int(np.argmax(bits))
    return int(np.nanargmax(bits)) if np.isnan(bits[i]) else i


def _eliminate(schur: np.ndarray, x_rows: np.ndarray, x_r, y_p, y: np.ndarray) -> np.ndarray:
    """Schur complement of ``schur`` (..., n, K+T) after eliminating row x_r on column y_p.

    ``x_rows`` (..., n) are the rows' generators; ``x_r`` and ``y_p`` hold
    one generator per leading index.
    """
    x_r, y_p = np.asarray(x_r)[..., None], np.asarray(y_p)[..., None]
    row_factor = (x_rows - x_r) / (x_rows + y_p)
    col_factor = (y - y_p) / (x_r + y)
    return schur * row_factor[..., :, None] * col_factor[..., None, :]


def _spectrum(w: np.ndarray) -> np.ndarray:
    """Squared singular values of the stacked W rows (..., k, K): min(k, K) per stack.

    One-sided Jacobi on the narrower side's columns: rotate column pairs
    until every pair is orthogonal to working precision, then the squared
    column norms are the spectrum.  Unlike a bidiagonalizing SVD, whose
    error is relative to the largest singular value, it keeps the small
    singular values of a graded W to high relative accuracy; W is graded
    whenever the colluders' pivots span many orders of magnitude.
    """
    a = np.array(w if w.shape[-2] > w.shape[-1] else np.swapaxes(w, -1, -2))
    tol = a.shape[-2] * np.finfo(float).eps
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for i, j in _round_robin(a.shape[-1]):
            ai, aj = a[..., i], a[..., j]
            # np.sum's own reduction, without its per-call wrapper
            alpha = np.add.reduce(ai * ai, axis=-2)
            beta = np.add.reduce(aj * aj, axis=-2)
            gamma = np.add.reduce(ai * aj, axis=-2)
            active = np.abs(gamma) > tol * np.sqrt(alpha * beta)
            if not active.any():
                continue
            rotated = True
            zeta = (beta - alpha) / (2.0 * np.where(active, gamma, 1.0))
            t = np.where(active, np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta)), 0.0)
            cos = 1.0 / np.sqrt(1.0 + t * t)
            sin = (cos * t)[..., None, :]
            cos = cos[..., None, :]
            a[..., i], a[..., j] = cos * ai - sin * aj, sin * ai + cos * aj
        if not rotated:
            break
    return -np.sort(-np.sum(a * a, axis=-2), axis=-1)


@functools.cache
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Every pair of n columns once, as rounds of disjoint pairs (circle method).

    Built once per column count: every sweep of every spectrum reuses it.
    """
    ring = list(range(n + n % 2))
    rounds = []
    for _ in range(len(ring) - 1):
        pairs = [(ring[k], ring[-1 - k]) for k in range(len(ring) // 2)]
        pairs = [(min(p), max(p)) for p in pairs if max(p) < n]
        if pairs:
            sides = tuple(np.array(side) for side in zip(*pairs))
            for side in sides:
                side.flags.writeable = False   # shared by every caller
            rounds.append(sides)
        ring.insert(1, ring.pop())
    return tuple(rounds)


def _subset_spectra(subsets: np.ndarray, plan: CodingPlan) -> np.ndarray:
    """Spectra of the colluder sets ``subsets`` (m, c), with c <= T, in chunks.

    Each set's rows are eliminated with complete pivoting over the noise
    columns: the remaining row with the largest noise entry goes next.
    """
    K, T = plan.K, plan.T
    y = -plan.alphas
    out = []
    for start in range(0, len(subsets), _CHUNK):
        x = plan.betas[subsets[start:start + _CHUNK]]
        m, c = x.shape
        idx = np.arange(m)
        schur = 1.0 / (x[..., None] + y)
        basis, w = np.empty((m, T, c)), np.empty((m, c, K))
        for k in range(c):
            r = np.argmax(np.abs(schur[:, :, K:]).max(axis=2), axis=1)
            lead, x_lead = schur[idx, r], x[idx, r]
            schur[idx, r], x[idx, r] = schur[:, 0], x[:, 0]
            pivot, basis[:, :, k], w[:, k] = _next_w(lead, basis[:, :, :k], w[:, :k], K)
            if k + 1 < c:
                schur = _eliminate(schur[:, 1:], x[:, 1:], x_lead, y[K + pivot], y)
                x = x[:, 1:]
        out.append(_spectrum(w))
    return np.concatenate(out)


def _subset_spectrum(subset: Sequence[int], plan: CodingPlan) -> np.ndarray | None:
    """Squared singular values of W for one colluder set; None when c > T.

    ``subset`` holds valid worker indices in ascending order.  The spectrum
    does not depend on s or sigma_n.
    """
    if len(subset) > plan.T:
        return None
    return _subset_spectra(np.array([subset], dtype=np.intp), plan)[0]


def _bits(spectra: np.ndarray, s: float, cfg: PrivacyConfig) -> np.ndarray:
    """sum log2(1 + gamma * eig) over the last axis, gamma = s^2 T / sigma_n^2.

    log1p keeps the bits of a small gamma * eig, which 1 + gamma * eig
    would round away, and with them the order of the candidates.
    """
    gamma = s * s * cfg.T / (cfg.sigma_n * cfg.sigma_n)
    return np.sum(np.log1p(gamma * spectra), axis=-1) / math.log(2.0)


def leakage_for_subset(subset: Sequence[int], plan: CodingPlan, cfg: PrivacyConfig) -> float:
    """Capacity bound in bits for one colluder set; +inf when c > T."""
    _check_compat(plan, cfg)
    # the bound is invariant under colluder reordering; canonicalize so the
    # computed value is a pure function of the subset as a set
    eig = _subset_spectrum(sorted(int(j) for j in plan.worker_subset(subset)), plan)
    return math.inf if eig is None else float(_bits(eig, cfg.s, cfg))


#: What ``search(s)`` returns: (bits, worst subset, subsets evaluated, the
#: worst subset's spectrum or None for an infinite bound).
SearchResult = tuple[float, tuple[int, ...], int, np.ndarray | None]


class _Prefix(NamedTuple):
    """The greedy state after one ordered prefix: nothing in it depends on s."""

    rows: np.ndarray   # candidate workers, ascending
    schur: np.ndarray  # (n, K+T) their Schur rows
    basis: np.ndarray  # (T, k) orthonormal basis of the prefix's U rows
    w: np.ndarray      # (k, K) the prefix's W rows
    pivot: np.ndarray  # (n,) each candidate's pivot column
    q: np.ndarray      # (n, T) each candidate's next basis vector
    w_row: np.ndarray  # (n, K) each candidate's W row


def _added_nats(state: _Prefix, gamma: float) -> np.ndarray:
    """What each candidate adds to the prefix's bound, in nats (matrix determinant lemma).

    That is ln(1 + gamma w^T A^-1 w) for its W row w, A = I + gamma W^T W = R^T R
    with R from the QR of [sqrt(gamma) W; I]: forming A would round its identity
    away where gamma W^T W is large.  A gamma that underflows to 0 scores every
    candidate 0.  Only an overflow makes a NaN, scored inf, as the bound is.
    """
    root = math.sqrt(gamma)
    z = root * state.w_row.T
    if len(state.w):   # with no rows yet, A = I
        r = np.linalg.qr(np.concatenate([root * state.w, np.eye(state.w.shape[1])]), mode="r")
        z = np.linalg.solve(r.T, z)
    return np.log1p(np.fmin(np.einsum("ij,ij->j", z, z), math.inf))


def _greedy_search(plan: CodingPlan, cfg: PrivacyConfig) -> Callable[[float], SearchResult]:
    """The greedy search of one public call: c vectorized elimination steps per s.

    Each step scores every candidate of the current prefix at once by the
    bits it adds (:func:`_added_nats`) and adds the first maximum.  Prefix
    states do not depend on s and are kept for the call, so a prefix is
    eliminated once however many amplitudes are probed.  Only the chosen set
    is valued by its spectrum (:func:`_subset_spectrum`, complete pivoting),
    as :func:`leakage_for_subset` values it.  Sets larger than T are
    structurally infinite: those steps add the smallest remaining index.
    """
    K, T, n, c = plan.K, plan.T, plan.N, cfg.c
    x, y = plan.betas, -plan.alphas
    schur, basis, w = 1.0 / (x[:, None] + y), np.empty((T, 0)), np.empty((0, K))
    memo = {(): _Prefix(np.arange(n), schur, basis, w, *_next_w(schur, basis, w, K))}
    chosen = functools.cache(lambda subset: _subset_spectrum(subset, plan))

    def extend(parent: _Prefix, i: int) -> _Prefix:
        """The state after adding candidate ``i`` of ``parent``."""
        keep = np.arange(len(parent.rows)) != i
        rows = parent.rows[keep]
        schur = _eliminate(parent.schur[keep], x[rows], x[parent.rows[i]], y[K + parent.pivot[i]], y)
        basis = np.concatenate([parent.basis, parent.q[i, :, None]], axis=1)
        w = np.concatenate([parent.w, parent.w_row[i:i + 1]])
        return _Prefix(rows, schur, basis, w, *_next_w(schur, basis, w, K))

    def search(s: float) -> SearchResult:
        gamma = s * s * cfg.T / (cfg.sigma_n * cfg.sigma_n)
        prefix: tuple[int, ...] = ()
        evaluated = 0
        for _ in range(min(c, T)):
            if prefix not in memo:   # the empty prefix always is
                memo[prefix] = extend(state, i)
            state = memo[prefix]
            i = _first_max(_added_nats(state, gamma))
            evaluated += len(state.rows)
            prefix += (int(state.rows[i]),)
        if c <= T:
            subset = tuple(sorted(prefix))
            return float(_bits(chosen(subset), s, cfg)), subset, evaluated, chosen(subset)
        rest = [j for j in range(n) if j not in prefix]
        evaluated += sum(n - step for step in range(T, c))
        return math.inf, tuple(sorted(prefix + tuple(rest[:c - T]))), evaluated, None
    return search


def _make_search(plan: CodingPlan, cfg: PrivacyConfig,
                 strategy: str) -> Callable[[float], SearchResult]:
    """The worst-case search of one public call, as a function of the amplitude s.

    Everything that does not depend on s is done once per call: the
    exhaustive enumeration and its spectra here, the greedy prefixes the
    first time a probe reaches them.  Ties break toward the
    lexicographically smallest subset.  NaN values never win.
    """
    c, n = cfg.c, plan.N
    if strategy == GREEDY:
        return _greedy_search(plan, cfg)
    if strategy != EXHAUSTIVE:
        raise ValueError(f"unknown strategy {strategy!r}")
    count = math.comb(n, c)
    if count > EXHAUSTIVE_BUDGET:
        raise ValueError(
            f"exhaustive search over C({n},{c}) subsets exceeds the budget "
            f"of {EXHAUSTIVE_BUDGET}; use the greedy strategy")
    subsets = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), c)),
                          dtype=np.intp, count=count * c).reshape(count, c)
    spectra = _subset_spectra(subsets, plan) if c <= plan.T else None

    def search(s: float) -> SearchResult:
        if spectra is None:
            return math.inf, tuple(subsets[0].tolist()), count, None
        bits = _bits(spectra, s, cfg)
        i = _first_max(bits)
        return float(bits[i]), tuple(subsets[i].tolist()), count, spectra[i]
    return search


def worst_case_leakage(plan: CodingPlan, cfg: PrivacyConfig,
                       strategy: str = GREEDY) -> LeakageReport:
    """Maximize the leakage bound over colluder sets of size c.

    ``exhaustive`` enumerates every subset (budgeted) and so finds the worst
    case; ``greedy`` grows the set one node at a time, locally optimally,
    and can miss it.  Ties break toward the lexicographically smallest
    subset, so both strategies are deterministic.  ``subsets_evaluated``
    counts every candidate set valued.
    """
    _check_compat(plan, cfg)
    best_val, best, evaluated, _ = _make_search(plan, cfg, strategy)(cfg.s)
    return LeakageReport(i_L=best_val / cfg.K, I_L=best_val, worst_subset=best,
                         strategy=strategy, subsets_evaluated=evaluated,
                         reason=STRUCTURAL if cfg.c > cfg.T else None)


def _amplitude_for(spectrum: np.ndarray, bits: float, cfg: PrivacyConfig) -> float:
    """The s at which sum log2(1 + s^2 T / sigma_n^2 * eig) over ``spectrum`` is ``bits``."""
    target = bits * math.log(2.0)
    eig = spectrum[spectrum > 0]
    if len(eig) == 1:
        gamma = math.expm1(target) / eig[0]
    else:
        # Newton on the concave, increasing sum of log1p climbs to the root from
        # any point below it, such as this one (log1p(x) <= x)
        gamma = target / eig.sum()
        for _ in range(_MAX_NEWTON):
            step = (target - np.log1p(gamma * eig).sum()) / (eig / (1.0 + gamma * eig)).sum()
            if not gamma + step > gamma:
                break
            gamma += step
    return cfg.sigma_n * math.sqrt(gamma / cfg.T)


def max_secure_amplitude(plan: CodingPlan, cfg: PrivacyConfig, bound: float,
                         strategy: str = GREEDY) -> float:
    """Largest input amplitude s <= cfg.s with worst-case i_L <= ``bound``.

    Each probe of s runs the search of :func:`worst_case_leakage` (same
    ``strategy``); no spectrum is computed twice in a call.  The solver steps s
    down from cfg.s to where the current worst set's bound equals ``bound``
    -- for K = 1, s = sigma_n sqrt((2^bound - 1) / (T v)) -- or by at least
    one ulp if that is not lower, until the search at s meets the bound.
    The worst set can change with s (the greedy path does for K >= 2), so
    s is then confirmed maximal to a relative :data:`_AMPLITUDE_TOL`,
    bisecting when it is not.  Returns 0.0 when no positive amplitude meets
    the bound: c > T (the bound is +inf at every s) or ``bound <= 0``.
    """
    if math.isnan(bound):
        raise ValueError("need a bound that is not NaN")
    _check_compat(plan, cfg)
    search = _make_search(plan, cfg, strategy)

    def leak_at(s: float) -> float:
        return search(s)[0] / cfg.K

    bits, _, _, spectrum = search(cfg.s)
    if bits / cfg.K <= bound:
        return cfg.s
    if spectrum is None or bound <= 0:
        return 0.0
    lo = hi = cfg.s
    shrink = np.finfo(float).eps
    while bits / cfg.K > bound:
        # the root normally meets the bound at once; a step that does not
        # (rounding, or a new worst set) shrinks s by a doubling fraction
        step_down = min(math.nextafter(lo, 0.0), lo * (1.0 - shrink))
        hi, lo = lo, min(step_down, _amplitude_for(spectrum, cfg.K * bound, cfg))
        shrink = min(2.0 * shrink, 0.5)
        bits, _, _, spectrum = search(lo)
    up = lo * (1.0 + _AMPLITUDE_TOL)
    if up < hi and leak_at(up) <= bound:
        lo = up
        while hi / lo > 1.0 + _AMPLITUDE_TOL:
            mid = math.sqrt(lo * hi)
            if leak_at(mid) <= bound:
                lo = mid
            else:
                hi = mid
    return lo
