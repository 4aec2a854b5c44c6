"""Good-time selection along finite orbit segments.

The three detectors:

* pliss_times   -- indices where every lookback window of a bounded sequence
                   keeps its average above a threshold (linear-time scan).
* hyperbolic_times -- indices n where every trailing window product of the
                   F-restricted inverse norms is below sigma^k.
* lambda_membership_batch -- rows whose every prefix average stays at or
                   below log(lam).

Prefix sums are accumulated in extended precision so that detection at
horizons ~1e5 is not at the mercy of float64 cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated


@dataclass(frozen=True)
class PlissParams:
    """Thresholds c0 >= c1 > c2 >= 0 for the selection lemma."""

    c0: float
    c1: float
    c2: float

    def __post_init__(self):
        if not (self.c0 >= self.c1 > self.c2 >= 0.0):
            raise ValueError(
                f"need c0 >= c1 > c2 >= 0, got {self.c0}, {self.c1}, {self.c2}")

    @property
    def theta(self):
        return (self.c1 - self.c2) / (self.c0 - self.c2)


@dataclass(frozen=True)
class HyperbolicTimeReport:
    """Detected contraction-certified times and their density."""

    times: np.ndarray   # ascending, 1-based orbit indices
    density: float


def _prefix(values):
    """S(0..N) with S(0) = 0, accumulated in extended precision."""
    v = np.asarray(values, dtype=np.longdouble)
    s = np.empty(len(v) + 1, dtype=np.longdouble)
    s[0] = 0.0
    np.cumsum(v, out=s[1:])
    return s


def _record_times(u):
    """Indices n >= 1 where u(n) <= min(u(0..n-1)): the weak running minima.

    Both selections are this scan: a window ending at n clears its bound
    iff u(n) is a new running extremum of the adjusted prefix sum.
    """
    return np.flatnonzero(u[1:] <= np.minimum.accumulate(u)[:-1]) + 1


def pliss_times(b, params):
    """Indices n_i (1-based) whose every lookback window averages >= c2.

    pre: b_j <= c0 for all j, and sum(b) >= c1 * N.
    post: for each returned n_i and every 0 <= n < n_i,
          sum(b[n+1..n_i]) >= c2 * (n_i - n); the count exceeds theta * N
          with theta = (c1 - c2)/(c0 - c2).

    Linear time: n qualifies iff the adjusted prefix sum T(n) = S(n) - n*c2
    is a running maximum of T(0..n).
    """
    b = np.asarray(b, float)
    n_len = len(b)
    if n_len == 0:
        raise ValueError("empty sequence")
    bad = np.argwhere(b > params.c0 + 1e-12)
    if bad.size:
        raise HypothesisViolated(
            f"b[{bad[0][0] + 1}] = {b[bad[0][0]]} exceeds c0 = {params.c0}")
    total = float(np.sum(np.asarray(b, np.longdouble)))
    if total < params.c1 * n_len - 1e-9:
        raise HypothesisViolated(
            f"sum(b) = {total} below c1*N = {params.c1 * n_len}")
    t = _prefix(b) - params.c2 * np.arange(n_len + 1, dtype=np.longdouble)
    return _record_times(-t)


def hyperbolic_times(log_f_inv, sigma):
    """Times n where every trailing window sum of log_f_inv is <= k log sigma.

    The array is read 1-based: entry p is orbit index p+1.  n qualifies iff
    S(n) - S(n-k) <= k log(sigma) for all 1 <= k <= n, detected in linear
    time via running minima of U(m) = S(m) - m log(sigma).  srblab passes
    logs at f^1..f^n: a time covers Df at f^(n-k+1)..f^n, not f^(n-k)..f^(n-1).
    """
    if not (0.0 < sigma < 1.0):
        raise ValueError(f"sigma must be in (0, 1), got {sigma}")
    a = np.asarray(log_f_inv, float)
    n_len = len(a)
    # threshold in double first, then upcast: ties are decided in the same
    # precision the caller's entries live in, accumulation in extended
    u = _prefix(a) - np.longdouble(np.log(sigma)) * np.arange(
        n_len + 1, dtype=np.longdouble)
    times = _record_times(u)
    return HyperbolicTimeReport(times=times,
                                density=len(times) / n_len if n_len else 0.0)


def lambda_membership_batch(log_f_inv_rows, lam):
    """Finite-horizon Lambda membership of every row of a (N, horizon) array.

    Columns are read 1-based: row s is a member iff
    (1/n) sum_{j=1..n} log_f_inv_rows[s, j] <= log(lam) for every
    1 <= n <= horizon.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    # a copy even of a longdouble input, so the prefix sums overwrite only it
    a = np.array(log_f_inv_rows, dtype=np.longdouble)
    np.cumsum(a, axis=1, out=a)
    ns = np.arange(1, a.shape[1] + 1, dtype=np.longdouble)
    return np.all(a <= np.longdouble(np.log(lam)) * ns, axis=1)


def density_theta(sigma1, sigma2, c0):
    """Guaranteed density of sigma2-hyperbolic times on sigma1-average orbits.

    theta = (log sigma2 - log sigma1) / (log sigma2 + c0): the selection
    lemma's (c1 - c2)/(c0 - c2) with c1 = -log sigma1, c2 = -log sigma2.
    """
    if not (0.0 < sigma1 < sigma2 < 1.0):
        raise HypothesisViolated(
            f"need 0 < sigma1 < sigma2 < 1, got {sigma1}, {sigma2}")
    c1 = -np.log(sigma1)
    c2 = -np.log(sigma2)
    if c0 < c1 - 1e-15:
        raise HypothesisViolated(f"c0 = {c0} must dominate -log sigma1 = {c1}")
    return float((c1 - c2) / (c0 - c2))
