"""Extended-precision (50-digit) re-evaluation of the coding closed forms.

This is the independent oracle for the codec and privacy tests: it never
calls the library's own evaluation path, only mpmath arithmetic on the
published formulas.
"""

import mpmath as mp

mp.mp.dps = 50


def berrut_signs_mp(nodes):
    """(-1)^rank of each node, ranked in descending order along the line."""
    signs = [0] * len(nodes)
    for rank, i in enumerate(sorted(range(len(nodes)), key=lambda i: -mp.mpf(nodes[i]))):
        signs[i] = (-1) ** rank
    return signs


def berrut_basis_mp(z, nodes):
    signs = berrut_signs_mp(nodes)
    terms = [sign / (mp.mpf(z) - mp.mpf(a)) for sign, a in zip(signs, nodes)]
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


def cox_loss_and_grad_mp(eta, times, events):
    """Cox partial likelihood and its gradient in the risk scores, at 50 digits.

    The loss is -(1/E) sum over events i of (eta_i - log S(t_i)), with E the
    event count and S(t) the sum of exp(eta_j) over every j with t_j >= t
    (Breslow's convention: tied times share one risk set, censored samples
    included).  The gradient is -(1/E) (delta_k - exp(eta_k) C(t_k)), where
    C(t) sums 1/S(t_i) over the events i with t_i <= t.  Both sums are
    taken one distinct time at a time, grouped by exact equality of the
    float64 times.  Returns the loss and the per-sample gradient as mpf;
    with no events, both are zero.
    """
    n = len(eta)
    if sum(1 for d in events if d) == 0:
        return mp.mpf(0), [mp.mpf(0)] * n
    exp_eta = [mp.exp(mp.mpf(float(e))) for e in eta]
    at_time = {}
    for j, t in enumerate(times):
        at_time.setdefault(float(t), []).append(j)
    risk, total = {}, mp.mpf(0)
    for t in sorted(at_time, reverse=True):
        total += mp.fsum(exp_eta[j] for j in at_time[t])
        risk[t] = total
    below, total = {}, mp.mpf(0)
    for t in sorted(at_time):
        total += mp.fsum(1 / risk[t] for i in at_time[t] if events[i])
        below[t] = total
    n_events = mp.mpf(sum(1 for d in events if d))
    loss = -mp.fsum(mp.mpf(float(eta[i])) - mp.log(risk[float(times[i])])
                    for i in range(n) if events[i]) / n_events
    grad = [-((1 if events[k] else 0) - exp_eta[k] * below[float(times[k])]) / n_events
            for k in range(n)]
    return loss, grad
