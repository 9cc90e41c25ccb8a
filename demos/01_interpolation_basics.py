"""
Interpolation nodes and the Berrut rational interpolant
========================================================

Walks through the three node families, the alternating-weight rational
basis, and the two properties everything else rests on: the basis is a
partition of unity, and the interpolant is exact at its nodes.
"""

import numpy as np

from pbacc import (
    berrut_basis,
    berrut_eval,
    berrut_weights,
    chebyshev_first,
    chebyshev_second,
    make_plan,
    shifted_chebyshev_first,
)

# %% The node families.
# Data nodes live strictly inside (-1, 1); encoder nodes include the
# endpoints; noise nodes are a translation of the first family.

print("data nodes, K=4:        ", np.round(chebyshev_first(4), 4))
print("encoder nodes, N=8:     ", np.round(chebyshev_second(8), 4))
print("noise nodes, T=3, b=-2: ", np.round(shifted_chebyshev_first(3, -2.0), 4))

# %% Partition of unity.
# The basis values at any point sum to one, which is why constant payloads
# pass through the codec untouched.

nodes = chebyshev_first(6)
for z in (0.31, -0.77, 2.5):
    q = berrut_basis(z, nodes)
    print(f"z={z:+.2f}: basis sum = {q.sum():.15f}")

# %% Interpolation property.
# At a node, the interpolant returns that node's payload exactly: the basis
# row there is the node's indicator, so the result is bit-for-bit equal.

payloads = np.random.default_rng(0).normal(size=(6, 2))
at_node = berrut_eval(float(nodes[2]), nodes, payloads)
print("u(alpha_2) == payload 2:", np.array_equal(at_node, payloads[2]))

# %% Between nodes the interpolant blends neighbours smoothly.

zs = np.linspace(-0.99, 0.99, 7)
vals = np.array([berrut_eval(z, nodes, payloads)[0] for z in zs])
print("interpolant first component over [-1, 1]:", np.round(vals, 3))

# %% Why the interpolant has no poles.
# The weights alternate in sign along the sorted node line, whatever order
# the nodes are listed in, so the denominator of the rational function has
# no real zeros.  That holds for a noise block below the data interval (the
# default) and above it, for odd K + T too.

for shift, label in ((-2.0, "shift -2 (default)"), (+2.0, "shift +2, K+T odd")):
    plan = make_plan(K=1, T=30, N=50, shift=shift)
    alphas = plan.alphas
    w = berrut_weights(alphas)
    zs = np.linspace(-1, 1, 200_001)
    keep = np.min(np.abs(zs[:, None] - alphas[None, :]), axis=1) > 1e-4
    denom = (w[None, :] / (zs[keep][:, None] - alphas[None, :])).sum(axis=1)
    print(f"{label}: min |denominator| on [-1,1] = {np.min(np.abs(denom)):.3e}")
