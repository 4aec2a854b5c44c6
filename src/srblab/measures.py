"""Empirical measures from disk pushforwards and their diagnostics.

mu_n is the Cesaro average of forward pushes of a disk's normalized
intrinsic volume: atoms f^i(y_s) for 0 <= i < n, each carrying the initial
cell weight of its sample divided by n.  Weights are only relabeled, never
rescaled, so the total is conserved exactly and the invariance defect of
mu_n telescopes to a boundary term of size 2B/n.  The atoms are never
built: a measure is carried as its {test name: integral} dict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import region_sample
from .pliss import hyperbolic_times, lambda_membership_batch
from .systems import orbit_coords, time_logs


@dataclass
class Observable:
    """A bounded test function; fn is vectorized over (..., dim) coords.

    fn is the definition.  The streamed kernels build the k = 2 characters of
    default_observables from the k = 1 ones (tagged (axis, k, "cos" | "sin")
    in _harmonic), within 1e-15 of fn per step."""

    name: str
    fn: callable
    bound: float
    reference_integral: float = None
    _harmonic: tuple = None

    def __call__(self, coords):
        return self.fn(np.asarray(coords, float))


def default_observables(chart):
    """Four tests per periodic axis, the first two trigonometric characters
    (cos and sin each), and three per box axis: a linear, a quadratic and a
    cosine wave test."""
    obs = []
    for j in range(chart.dim):
        w = chart.widths[j]
        lo = chart.lower[j]
        if chart.periodic[j]:
            for k in (1, 2):
                freq = 2.0 * np.pi * k / w
                obs.append(Observable(
                    name=f"cos{k}_x{j}",
                    fn=(lambda c, j=j, freq=freq, lo=lo:
                        np.cos(freq * (c[..., j] - lo))),
                    bound=1.0, reference_integral=0.0,
                    _harmonic=(j, k, "cos")))
                obs.append(Observable(
                    name=f"sin{k}_x{j}",
                    fn=(lambda c, j=j, freq=freq, lo=lo:
                        np.sin(freq * (c[..., j] - lo))),
                    bound=1.0, reference_integral=0.0,
                    _harmonic=(j, k, "sin")))
        else:
            half = w / 2.0
            mid = lo + half
            obs.append(Observable(
                name=f"lin_x{j}",
                fn=lambda c, j=j, mid=mid, half=half: (c[..., j] - mid) / half,
                bound=1.0))
            obs.append(Observable(
                name=f"quad_x{j}",
                fn=(lambda c, j=j, mid=mid, half=half:
                    ((c[..., j] - mid) / half) ** 2),
                bound=1.0))
            freq = np.pi / half
            obs.append(Observable(
                name=f"wave1_x{j}",
                fn=(lambda c, j=j, freq=freq, mid=mid:
                    np.cos(freq * (c[..., j] - mid))),
                bound=1.0))
    return obs


# orbit rows per kernel block: a block holds _BLOCK x samples x dim floats
_BLOCK = 128


def _test_values(tests, block):
    """Each test's values on block, in the order of tests.  A k = 2 character
    that follows both k = 1 tests of its axis is built from their values,
    cos 2x = c*c - s*s and sin 2x = 2*s*c; every other test is called.  Only
    the current axis's k = 1 values are held."""
    held = {}
    for t in tests:
        j, k, kind = t._harmonic or (None, 0, None)
        if k == 2 and {(j, "cos"), (j, "sin")} <= held.keys():
            c, s = held[j, "cos"], held[j, "sin"]
            v = c * c - s * s if kind == "cos" else 2.0 * s * c
        else:
            v = t(block)
        if k == 1:
            held = {h: x for h, x in held.items() if h[0] == j}
            held[j, kind] = v
        yield v


def _orbit_blocks(sys, pts, n):
    """The forward-orbit rows f^i(pts), 0 <= i < n, in consecutive blocks.

    Yields (i, rows) with rows the (k, S, d) array of f^i .. f^(i+k-1),
    k <= _BLOCK.  Rows are not checked against the system region.
    """
    for i in range(0, n, _BLOCK):
        rows = orbit_coords(sys, pts if i == 0 else sys.forward(rows[-1]),
                            min(_BLOCK, n - i) - 1, check_region=False)
        yield i, rows


def pushforward_step_integrals(sys, d, n, tests):
    """(len(tests), n) array whose column i holds int t d(f^i_* mu_0).

    mu_0 is the disk's normalized volume.  The orbit is streamed in blocks,
    each test's values come once per block from _test_values, and the
    weighted sum over samples is a fixed-order numpy reduction, so results
    repeat bit for bit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    w = d.cell_weights()
    out = np.empty((len(tests), n))
    for i, block in _orbit_blocks(sys, d.points(), n):
        for ti, v in enumerate(_test_values(tests, block)):
            out[ti, i:i + len(block)] = np.sum(v * w, axis=-1)
    return out


def pushforward_integrals(sys, d, n, tests):
    """Integrals of the tests against mu_n, streamed step by step.

    Equivalent to integrating t against the materialised atom measure
    (tests/oracles.py `pushforward_average`) for every t, but without
    building the n x samples atom array; usable at n = 10^5.
    Returns {test name: integral}.
    """
    steps = pushforward_step_integrals(sys, d, n, tests)
    return {t.name: math.fsum(row.tolist()) / n
            for t, row in zip(tests, steps)}


def weak_star_distance(a, b, tests):
    """max over tests of |a[t.name] - b[t.name]|, for two measures given as
    {test name: integral} dicts (pushforward_integrals returns one)."""
    if not tests:
        raise ValueError("tests must be nonempty")
    return max(abs(a[t.name] - b[t.name]) for t in tests)


@dataclass(frozen=True)
class DefectReport:
    per_test: dict      # name -> |int t dmu_n - int t d f_* mu_n|
    bound: dict         # name -> 2 * bound / n

    @property
    def max_excess(self):
        return max(self.per_test[k] - self.bound[k] for k in self.per_test)


def invariance_defect(sys, d, n, tests):
    """The Cesaro invariance defect of mu_n against each test.

    |int t d(f_* mu_n) - int t d(mu_n)| telescopes to
    |int t d(f^n_* mu_0) - int t d(mu_0)| / n <= 2 bound / n; both sides are
    reported per test.  The two integrals are the sums of the per-step
    integrals over steps 1..n and 0..n-1, so no atom array is built.
    """
    steps = pushforward_step_integrals(sys, d, n + 1, tests)
    per = {}
    bound = {}
    for t, row in zip(tests, steps):
        row = row.tolist()
        per[t.name] = abs(math.fsum(row[1:]) - math.fsum(row[:-1])) / n
        bound[t.name] = 2.0 * t.bound / n
    return DefectReport(per_test=per, bound=bound)


def select_disjoint_balls(dist, radius):
    """Greedy maximal packing from a pairwise distance matrix.

    Processes centers in index order; a center is selected iff its ball of
    the given radius is disjoint from every previously selected ball
    (distance > 2*radius).  Returns the selected indices.  By construction
    the balls are pairwise disjoint and every center lies within 2*radius of
    a selected one.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    dist = np.asarray(dist, float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("dist must be a square pairwise-distance matrix")
    # blocked[i]: some selected j has dist[i, j] > 2r false (NaN included)
    blocked = np.zeros(dist.shape[0], bool)
    selected = []
    for i in range(dist.shape[0]):
        if not blocked[i]:
            selected.append(i)
            blocked |= ~(dist[:, i] > 2.0 * radius)
    return np.asarray(selected, dtype=int)


@dataclass(frozen=True)
class HyperbolicMassReport:
    eta: float             # accumulated selected-ball mass / n
    per_i: np.ndarray      # selected-ball mass at each step i (un-divided)
    lambda_mass: float     # disk volume of the finite-horizon membership set
    tau: float             # min over nonempty steps of captured/total mass
    floor: float           # tau * theta * lambda_mass


def hyperbolic_mass(sys, d, n, sigma, r1, lam, theta):
    """Mass of mu_n captured by disjoint balls at hyperbolic-time images.

    For each 0 <= i < n: S_i = samples whose cocycle rows pass the lam
    long-run test and for which i is a sigma-hyperbolic time; their step-i
    images get a greedy packing by balls of radius r1/4 (chart metric: at
    useful horizons the stretched image's intrinsic metric only exceeds it,
    so chart-disjoint is the conservative side), and the mass of S_i samples
    inside selected balls accumulates.  eta is the grand total over i
    divided by n; floor is tau * theta * lambda_mass.
    """
    if not (0.0 < sigma < 1.0):
        raise ValueError("sigma must be in (0, 1)")
    if r1 <= 0:
        raise ValueError("r1 must be > 0")
    w = d.cell_weights()
    rows = orbit_coords(sys, d.points(), n)
    log_f_inv = time_logs(sys, rows)

    member = lambda_membership_batch(log_f_inv, lam)
    lambda_mass = float(math.fsum(w[member].tolist()))

    hyp = np.zeros((len(w), n + 1), bool)
    for s in np.flatnonzero(member):
        hyp[s, hyperbolic_times(log_f_inv[s], sigma).times] = True

    per_i = np.zeros(n, float)
    captured_tot = 0.0
    tau = np.inf
    for i in range(n):
        in_set = member & hyp[:, i]
        idx = np.where(in_set)[0]
        if idx.size == 0:
            continue
        img = rows[i][idx]
        dist = sys.chart.distance(img[:, None, :], img[None, :, :])
        sel = select_disjoint_balls(dist, r1 / 4.0)
        near = (dist[:, sel] <= r1 / 4.0).any(axis=1)
        captured = float(math.fsum(w[idx[near]].tolist()))
        avail = float(math.fsum(w[idx].tolist()))
        per_i[i] = captured
        captured_tot += captured
        if avail > 0:
            tau = min(tau, captured / avail)
    eta = captured_tot / n
    tau = 0.0 if not np.isfinite(tau) else float(tau)
    return HyperbolicMassReport(eta=float(eta), per_i=per_i,
                                lambda_mass=lambda_mass, tau=tau,
                                floor=float(tau * theta * lambda_mass))


def physical_fraction(sys, mu_ref, tests, n, tol, samples, seed=0):
    """Fraction of region_sample starts whose Birkhoff averages match mu_ref.

    mu_ref: the {test name: integral} dict of the reference measure.  A start
    point counts iff every test's n-step average is within tol of the
    reference and its orbit rows 0..n all stay in the system region (row n
    is checked but not summed).  Every sample's sum adds its own orbit rows
    in step order, so the result repeats bit for bit.
    """
    if samples < 100:
        raise ValueError("samples must be >= 100")
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = region_sample(sys, samples, seed=seed)
    ref = np.array([float(mu_ref[t.name]) for t in tests])
    alive = np.ones(len(pts), bool)
    sums = np.zeros((len(tests), len(pts)))
    for i, block in _orbit_blocks(sys, pts, n + 1):
        alive &= np.all(sys.in_region(block), axis=0)
        for ti, v in enumerate(_test_values(tests, block[:n - i])):
            # an axis-0 reduction adds the rows in step order, one at a time
            sums[ti] = np.add.reduce(np.concatenate([sums[ti][None], v]))
    good = alive & np.all(np.abs(sums / n - ref[:, None]) <= tol, axis=0)
    return float(np.count_nonzero(good) / samples)
