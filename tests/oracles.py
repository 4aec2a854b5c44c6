"""Definitional brute-force checkers used as independent test oracles.

Everything here evaluates window sums directly from the definitions, with no
running-extremum shortcuts, so agreement with the package's O(N) algorithms
is meaningful.  Costs are O(N^2) per sequence throughout.
"""
import numpy as np


def window_matrix(values, slope):
    """D[m, n] = sum(values[m+1..n]) - slope * (n - m) for 0 <= m < n <= N.

    Entries with m >= n are set to +inf so "all windows nonnegative ending
    at n" is a column minimum.
    """
    v = np.asarray(values, float)
    n = len(v)
    s = np.concatenate([[0.0], np.cumsum(v)])
    idx = np.arange(n + 1)
    d = s[None, :] - s[:, None] - slope * (idx[None, :] - idx[:, None])
    d[idx[:, None] >= idx[None, :]] = np.inf
    return d


def pliss_oracle(b, c2):
    """All 1-based n with sum(b[m+1..n]) >= c2*(n-m) for every 0 <= m < n."""
    d = window_matrix(b, c2)
    ok = np.min(d[:, 1:], axis=0) >= 0.0
    return np.where(ok)[0] + 1


def hyperbolic_oracle(log_f_inv, sigma):
    """All 1-based n whose every suffix window satisfies the sigma bound.

    n qualifies iff S(n) - S(n-k) <= k log(sigma) for all 1 <= k <= n,
    checked window by window.
    """
    d = window_matrix(log_f_inv, np.log(sigma))
    ok = np.max(np.where(np.isinf(d[:, 1:]), -np.inf, d[:, 1:]), axis=0) <= 0.0
    return np.where(ok)[0] + 1


def shift_oracle(a, n_good):
    """Smallest k <= n_good with all tail sums over [k, n] nonnegative.

    Exhaustive over every (k, n) pair; returns None when no k works, which
    the hypothesis of the shift lemma rules out.
    """
    a = np.asarray(a, float)
    n = len(a)
    for k in range(1, n_good + 1):
        if all(a[k - 1:m].sum() >= 0.0 for m in range(k, n + 1)):
            return k
    return None


def membership_oracle(log_f_inv, lam, n_start):
    """Prefix-average definition of finite-horizon Lambda membership."""
    v = np.asarray(log_f_inv, float)
    s = np.cumsum(v)
    ns = np.arange(1, len(v) + 1)
    window = ns >= n_start
    return bool(np.all(s[window] / ns[window] <= np.log(lam)))


def admissible_sequence(rng, c0, c1, n):
    """A random length-n sequence with entries <= c0 and mean >= c1.

    Uniform noise in [-c0, c0] blended toward the ceiling c0 until the mean
    clears c1 with a little randomized headroom; blending preserves the
    entrywise bound.
    """
    raw = rng.uniform(-c0, c0, n)
    target = c1 + (c0 - c1) * rng.uniform(0.02, 0.3)
    mean = raw.mean()
    if mean >= target:
        return raw
    alpha = (c0 - target) / (c0 - mean)
    return alpha * raw + (1.0 - alpha) * c0


def greedy_packing_oracle(dist, radius):
    """Greedy disjoint-ball selection straight from the definition."""
    d = np.asarray(dist, float)
    chosen = []
    for i in range(d.shape[0]):
        if all(d[i, j] > 2.0 * radius for j in chosen):
            chosen.append(i)
    return chosen


def invariance_defect_oracle(sys, d, n, tests):
    """|int t d(f_* mu_n) - int t d(mu_n)| per test, from materialised atoms.

    Builds the n x samples atoms of mu_n and their forward images and
    integrates each test over both, straight from the definition.
    """
    from srblab import measures

    mu = measures.pushforward_average(sys, d, n)
    fmu = measures.pushforward_measure(sys, mu)
    return {t.name: abs(fmu.integrate(t) / fmu.total
                        - mu.integrate(t) / mu.total) for t in tests}
