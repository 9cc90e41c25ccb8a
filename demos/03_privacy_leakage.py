"""
Worst-case privacy leakage of the encoding
==========================================

Colluding workers pool their shares and try to infer the private input.
Treating the K data coefficients as transmit antennas and the colluders'
shares as receive antennas bounds what they can learn by an AWGN channel
capacity.  This script sweeps the knobs that control the bound and shows
the sharp tension between decoding accuracy and privacy in the placement
of the noise nodes.
"""

import numpy as np

from pbacc import (
    EXHAUSTIVE,
    GREEDY,
    NoiseSpec,
    PrivacyConfig,
    make_plan,
    max_secure_amplitude,
    roundtrip_error,
    worst_case_leakage,
)

# %% Leakage falls as the noise scale grows.

plan = make_plan(K=1, T=30, N=50)
print("sigma sweep (c=2 colluders, worst case by greedy search):")
for sigma in (10.0, 50.0, 100.0, 400.0):
    cfg = PrivacyConfig(K=1, T=30, sigma_n=sigma, c=2, s=1.0)
    print(f"  sigma={sigma:6.0f}: i_L = {worst_case_leakage(plan, cfg).i_L:8.3f} bits/element")

# %% Leakage rises with the number of colluders.
# With the noise block a unit away from the encoder interval, each extra
# colluder adds about ten bits here.  The colluders' noise block grows
# ill-conditioned (cond ~ 5e15 at c=10), but it keeps full rank up to c = T;
# past that some combination of the shares is noise-free and the bound is
# +inf for a structural reason.

print("\ncolluder sweep at sigma=10:")
for c in (1, 2, 3, 5, 10, 31):
    cfg = PrivacyConfig(K=1, T=30, sigma_n=10.0, c=c, s=1.0)
    report = worst_case_leakage(plan, cfg)
    why = f"  ({report.reason})" if report.reason else ""
    print(f"  c={c:2d}: i_L = {report.i_L:8.3f} bits/element{why}")

# %% The accuracy/privacy tension in the noise-node shift.
# Far noise nodes barely touch the shares (accurate decode, weak privacy);
# inside the data interval they cannot be separated from the data at all.

print("\nshift sweep (c=2, sigma=10) against decode error (identity, full set):")
x = np.sort(np.random.default_rng(0).normal(size=8))
for shift in (-1.5, -2.0, -4.0, -8.0):
    p = make_plan(K=1, T=30, N=50, shift=shift)
    cfg = PrivacyConfig(K=1, T=30, sigma_n=10.0, c=2, s=1.0)
    leak = worst_case_leakage(p, cfg).i_L
    err = roundtrip_error(x, lambda v: v, p, NoiseSpec(10.0, 30, seed=1), range(50))
    print(f"  shift {shift:+5.1f}: i_L = {leak:8.3f} bits, decode error = {err:.2e}")

# %% Exhaustive search is the ground truth at desk scale.

small = make_plan(K=2, T=5, N=10)
cfg = PrivacyConfig(K=2, T=5, sigma_n=3.0, c=3, s=1.0)
exact = worst_case_leakage(small, cfg, strategy=EXHAUSTIVE)
greedy = worst_case_leakage(small, cfg, strategy=GREEDY)
print(f"\nN=10, c=3: exhaustive {exact.i_L:.4f} over {exact.subsets_evaluated} subsets; "
      f"greedy {greedy.i_L:.4f} over {greedy.subsets_evaluated}")

# %% When a target bound is unreachable, find the amplitude that meets it.
# The bound scales with the input amplitude s, so shrinking the inputs is
# the remaining lever once the plan is fixed.

bound = 0.60
cfg = PrivacyConfig(K=2, T=5, sigma_n=3.0, c=3, s=1.0)
s_max = max_secure_amplitude(small, cfg, bound, strategy=EXHAUSTIVE)
print(f"largest amplitude with i_L <= {bound}: s = {s_max:.3g}")
