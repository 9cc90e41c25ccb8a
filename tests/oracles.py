"""Extended-precision (50-digit) re-evaluation of the coding closed forms.

This is the independent oracle for the codec and privacy tests: it never
calls the library's own evaluation path, only mpmath arithmetic on the
published formulas.
"""

import mpmath as mp

mp.mp.dps = 50


def berrut_basis_mp(z, nodes):
    terms = [((-1) ** i) / (mp.mpf(z) - mp.mpf(a)) for i, a in enumerate(nodes)]
    total = mp.fsum(terms)
    return [t / total for t in terms]


def berrut_eval_mp(z, nodes, values):
    """Interpolant through scalar ``values`` at ``z``; exact at nodes."""
    for i, a in enumerate(nodes):
        if mp.mpf(z) == mp.mpf(a):
            return mp.mpf(values[i])
    basis = berrut_basis_mp(z, nodes)
    return mp.fsum(q * mp.mpf(v) for q, v in zip(basis, values))


def encode_share_mp(beta, alphas, data_values, noise_values):
    """One scalar share: the interpolant over data plus noise coefficients."""
    coeffs = list(data_values) + list(noise_values)
    return berrut_eval_mp(beta, alphas, coeffs)


def sigma_entry_mp(beta, alphas, column):
    """q_column(beta) over the full alpha list."""
    return berrut_basis_mp(beta, alphas)[column]


def leakage_spectrum_mp(plan, subset, dps=80):
    """Eigenvalues of S^T (N N^T)^-1 S for one colluder set, at ``dps`` digits.

    S and N are the data and noise columns of the Berrut basis at the
    colluders' encoder nodes; the plan's float64 nodes are taken as exact.
    The K eigenvalues come from ``mp.eigsy``, largest first.
    """
    with mp.workdps(dps):
        alphas = [mp.mpf(float(a)) for a in plan.alphas]
        rows = [berrut_basis_mp(mp.mpf(float(plan.betas[j])), alphas) for j in subset]
        data = mp.matrix([row[:plan.K] for row in rows])
        noise = mp.matrix([row[plan.K:] for row in rows])
        inner = data.T * mp.inverse(noise * noise.T) * data
        eigs = mp.eigsy((inner + inner.T) / 2, eigvals_only=True)
        return sorted(eigs, reverse=True)


def leakage_mp(plan, subset, gamma, dps=80):
    """Leakage bound in bits of one colluder set, at ``dps`` digits.

    The published Gram form, log2 det(I_K + gamma S^T (N N^T)^-1 S).
    """
    with mp.workdps(dps):
        return mp.fsum(mp.log(1 + mp.mpf(gamma) * e, 2)
                       for e in leakage_spectrum_mp(plan, subset, dps))
