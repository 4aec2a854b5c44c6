"""Model zoo: four concrete systems with known or measurable ground truth.

cat            -- the linear torus automorphism [[2,1],[1,1]]; everything exact.
perturbed_cat  -- cat plus an eps*sin shear in the first coordinate; splitting
                  recovered by cone iteration.
solenoid       -- angle-doubling solid-torus contraction; fiber plane exactly
                  invariant, unstable line converged.
dfa            -- cat deformed near its fixed point so the unstable multiplier
                  interpolates from 1+delta at the origin back to the linear
                  value outside radius rho; the non-uniform showcase.

`measure_constants_h` turns sampled derivative data into a constant chain
0 < l1 < l1 e^eps0 < l2 < l3 < 1 or explains why none exists.
"""

from __future__ import annotations

import numpy as np

from .charts import Chart, torus_chart
from .errors import ChainInfeasible, ConstructionFailed
from .linalg import subspace_distance
from .pliss import lambda_membership_batch
from .systems import (ConstantsH, MapSystem, SystemConstants,
                      _point_stretches, _tiled, orbit_coords, time_logs)

LAMBDA_U = (3.0 + np.sqrt(5.0)) / 2.0
LAMBDA_S = (3.0 - np.sqrt(5.0)) / 2.0
CAT_MATRIX = np.array([[2.0, 1.0], [1.0, 1.0]])
CAT_INVERSE = np.array([[1.0, -1.0], [-1.0, 2.0]])

_GOLDEN = 0.6180339887498949


def _unit(v):
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


CAT_UNSTABLE = _unit([1.0, LAMBDA_U - 2.0])
CAT_STABLE = _unit([1.0, LAMBDA_S - 2.0])


def _matvec(a, x):
    """a x at the (..., d) points x.  The cat family's matrices have small
    integer entries, at most two nonzero per row, so each entry is one
    rounded sum of exact products: np.einsum's bits at any batch size."""
    return np.matmul(x, a.T)


def _point_as_row(step):
    """step on (..., d) batches, with a (d,) point mapped as its one-row
    batch, so a point gets the bits of its (1, d) row."""
    def on_batch(x):
        x = np.asarray(x, float)
        return step(x[None])[0] if x.ndim == 1 else step(x)
    return on_batch


def linear_torus_system(matrix, e_dirs, f_dirs, name="linear"):
    """A torus automorphism with a declared constant splitting.

    Intended for exact baselines: any integer unimodular matrix works, in any
    dimension.  e_dirs / f_dirs are spanning columns for the two bundles,
    whose dimensions add up to the matrix's and which the matrix maps into
    themselves.
    """
    a = np.asarray(matrix, float)
    if not np.array_equal(a, np.round(a)):
        raise ConstructionFailed("torus automorphism needs integer entries")
    if abs(abs(np.linalg.det(a)) - 1.0) > 1e-9:
        raise ConstructionFailed("torus automorphism needs |det| = 1")
    e_frame = np.linalg.qr(np.atleast_2d(np.asarray(e_dirs, float).T).T)[0]
    f_frame = np.linalg.qr(np.atleast_2d(np.asarray(f_dirs, float).T).T)[0]
    d = a.shape[0]
    if not (e_frame.shape[0] == f_frame.shape[0] == d
            == e_frame.shape[1] + f_frame.shape[1]):
        raise ConstructionFailed(f"E and F need {d} rows and {d} columns "
                                 f"together, got E {e_frame.shape} and F "
                                 f"{f_frame.shape}")
    for bundle, frame in (("E", e_frame), ("F", f_frame)):
        if subspace_distance(np.linalg.qr(a @ frame)[0], frame) > 1e-9:
            raise ConstructionFailed(f"the matrix does not map {bundle} "
                                     "into itself")
    ainv = np.linalg.inv(a)
    chart = torus_chart(d)

    def forward(c):
        return chart.wrap(_matvec(a, c))

    def inverse(c):
        return chart.wrap(_matvec(ainv, c))

    def tangent(c):
        return _tiled(a, np.shape(c)[:-1])

    min_f = float(np.linalg.svd(a @ f_frame, compute_uv=False)[-1])
    consts = SystemConstants(c0=abs(float(np.log(min_f))), beta=1.0, xi=0.5)
    return MapSystem(name=name, chart=chart, forward=forward, inverse=inverse,
                     tangent=tangent, constants=consts,
                     dim_f=f_frame.shape[1], e_frame=e_frame, f_frame=f_frame)


def _build_cat():
    return linear_torus_system(CAT_MATRIX, CAT_STABLE, CAT_UNSTABLE, name="cat")


def _build_perturbed_cat(eps):
    if not (0.0 <= eps <= 0.05):
        raise ConstructionFailed(f"eps = {eps} outside [0, 0.05]")
    chart = torus_chart(2)
    two_pi = 2.0 * np.pi
    slope = eps * two_pi

    def forward(c):
        c = np.asarray(c, float)
        lin = _matvec(CAT_MATRIX, c)
        lin[..., 0] += eps * np.sin(two_pi * c[..., 0])
        return chart.wrap(lin)

    def inverse(y):
        # The map changes only x0 and (A^-1)_00 = 1, so with b = A^-1 y, x0
        # solves g(x0) = x0 + eps sin(2 pi x0) = b0.  Newton from b0 runs a
        # fixed 4 steps elementwise, so no row reads another: for eps <= 0.05,
        # g' > 0.68 and |g''| <= 4 pi^2 eps, so e_{k+1} <= 1.46 e_k^2 from
        # e_0 <= eps, i.e. 3.6e-3, 1.9e-5, 5e-10, 4e-19.  Then one round of
        # x = A^-1 (y - eps sin(2 pi x0) e0), a contraction by 2 pi eps.
        y = np.array(y, float)
        b0 = x0 = chart.wrap(_matvec(CAT_INVERSE, y))[..., 0]
        for _ in range(4):
            phase = two_pi * x0
            x0 = x0 - ((x0 + eps * np.sin(phase) - b0)
                       / (1.0 + slope * np.cos(phase)))
        y[..., 0] -= eps * np.sin(two_pi * x0)
        return chart.wrap(_matvec(CAT_INVERSE, y))

    def tangent(c):
        c = np.asarray(c, float)
        t = _tiled(CAT_MATRIX, c.shape[:-1])
        t[..., 0, 0] += slope * np.cos(two_pi * c[..., 0])
        return t

    return MapSystem(name="perturbed_cat", chart=chart, forward=forward,
                     inverse=inverse, tangent=tangent,
                     constants=SystemConstants(beta=0.5, xi=0.5), dim_f=1)


def _build_solenoid(c, d):
    if not (0.0 < c < 0.5):
        raise ConstructionFailed(f"c = {c} outside (0, 1/2)")
    if not (d > c):
        raise ConstructionFailed(f"need d > c for injectivity, got d = {d}, c = {c}")
    if not (c + d < 1.0):
        raise ConstructionFailed(f"need c + d < 1 for trapping, got {c + d}")
    two_pi = 2.0 * np.pi
    chart = Chart("solenoid", (0.0, -1.6, -1.6), (two_pi, 1.6, 1.6),
                  (True, False, False))

    def forward(x):
        x = np.asarray(x, float)
        out = np.empty_like(x)
        out[..., 0] = np.mod(2.0 * x[..., 0], two_pi)
        out[..., 1] = c * x[..., 1] + d * np.cos(x[..., 0])
        out[..., 2] = c * x[..., 2] + d * np.sin(x[..., 0])
        return out

    def inverse(y):
        y = np.asarray(y, float)
        half = y[..., 0] / 2.0
        cand = np.stack([half, np.mod(half + np.pi, two_pi)], axis=-1)
        # NaN fails both r2 < w2 tests, so a NaN row stays NaN
        best = np.full_like(y, np.nan)
        w2 = np.full(y.shape[:-1], np.inf)
        for k in range(2):
            phi = cand[..., k]
            u = (y[..., 1] - d * np.cos(phi)) / c
            v = (y[..., 2] - d * np.sin(phi)) / c
            r2 = u * u + v * v
            take = r2 < w2
            w2 = np.where(take, r2, w2)
            best[..., 0] = np.where(take, phi, best[..., 0])
            best[..., 1] = np.where(take, u, best[..., 1])
            best[..., 2] = np.where(take, v, best[..., 2])
        return best

    def tangent(x):
        x = np.asarray(x, float)
        t = np.zeros(x.shape[:-1] + (3, 3), float)
        t[..., 0, 0] = 2.0
        t[..., 1, 0] = -d * np.sin(x[..., 0])
        t[..., 1, 1] = c
        t[..., 2, 0] = d * np.cos(x[..., 0])
        t[..., 2, 2] = c
        return t

    def region(coords):
        coords = np.asarray(coords, float)
        return coords[..., 1] ** 2 + coords[..., 2] ** 2 <= 1.0 + 1e-9

    return MapSystem(name="solenoid", chart=chart, forward=forward,
                     inverse=inverse, tangent=tangent,
                     constants=SystemConstants(beta=0.5, xi=0.5), dim_f=1,
                     e_frame=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                     region_contains=region)


def _build_dfa(delta, rho):
    if not (0.0 < delta <= 0.5):
        raise ConstructionFailed(f"delta = {delta} outside (0, 0.5]")
    if not (0.05 <= rho <= 0.45):
        raise ConstructionFailed(f"rho = {rho} outside [0.05, 0.45]")
    chart = torus_chart(2)
    nu = 1.0 - (1.0 + delta) / LAMBDA_U
    vs, vu = CAT_STABLE, CAT_UNSTABLE

    def _eig_coords(y):
        # displacement of y from the fixed point, in (stable, unstable) coords
        z = chart.displacement(0.0, y)
        return z @ vs, z @ vu

    def _squeeze(s, u):
        """q = (1 - r^2/rho^2)_+ and the unstable multiplier m = 1 - nu q^3
        at eigen-coordinates (s, u); outside the ball q = 0 and m = 1."""
        q = np.maximum(1.0 - (s * s + u * u) / rho ** 2, 0.0)
        return q, 1.0 - nu * q ** 3

    def _deform_tangent(y):
        s, u = _eig_coords(y)
        q, m = _squeeze(s, u)
        # outside the ball du_ds is a signed zero and du_du exactly 1
        dm_dr2 = 3.0 * nu * q ** 2
        du_ds = u * dm_dr2 * (2.0 * s / rho ** 2)
        du_du = m + u * dm_dr2 * (2.0 * u / rho ** 2)
        # V T V^T with V = [vs | vu] and T = [[1, 0], [du_ds, du_du]], summed
        # in the order np.einsum("ij,...jk,lk->...il", V, T, V) takes
        # (T's exact zero adds nothing), so the bits are einsum's; each
        # entry is one expression along the batch axes
        dh = np.empty(np.shape(du_ds) + (2, 2))
        for i in range(2):
            for k in range(2):
                dh[..., i, k] = (((vu[i] * du_ds) * vs[k]
                                  + (vu[i] * du_du) * vu[k]) + vs[i] * vs[k])
        return dh

    @_point_as_row
    def forward(x):
        y = chart.wrap(_matvec(CAT_MATRIX, x))
        s, u = _eig_coords(y)
        m = _squeeze(s, u)[1]
        return chart.wrap(y + np.multiply.outer(u * m - u, vu))

    @_point_as_row
    def inverse(y):
        s, uprime = _eig_coords(y)
        inside = (s * s + uprime * uprime) / rho ** 2 < 1.0
        shift = np.zeros(uprime.shape)
        if np.any(inside):
            # Newton on the rows inside the ball alone: rows outside take no
            # step, so the batch-wide stop reads the same maximum
            s, uprime = s[inside], uprime[inside]
            bnd = np.sqrt(np.clip(rho ** 2 - s * s, 0.0, None))
            u = uprime
            for _ in range(60):
                q, m = _squeeze(s, u)
                gp = m + u * (3.0 * nu * q ** 2) * (2.0 * u / rho ** 2)
                step = (u * m - uprime) / gp
                u = np.clip(u - step, -bnd, bnd)
                if np.max(np.abs(step)) < 1e-15:
                    break
            shift[inside] = u - uprime
        mid = chart.wrap(y + np.multiply.outer(shift, vu))
        return chart.wrap(_matvec(CAT_INVERSE, mid))

    @_point_as_row
    def tangent(x):
        dh = _deform_tangent(chart.wrap(_matvec(CAT_MATRIX, x)))
        # dh @ CAT_MATRIX: its entries 1 and 2 make every product exact, so
        # each entry is one rounded sum, as in any matmul
        out = np.empty_like(dh)
        out[..., 0] = 2.0 * dh[..., 0] + dh[..., 1]
        out[..., 1] = dh[..., 0] + dh[..., 1]
        return out

    # construction-time sanity: Jacobian determinant bounded away from zero
    gg = np.linspace(-rho, rho, 41)
    mesh = np.stack(np.meshgrid(gg, gg, indexing="ij"), axis=-1).reshape(-1, 2)
    dets = np.linalg.det(_deform_tangent(chart.wrap(mesh)))
    if np.min(dets) < 0.05:
        raise ConstructionFailed(
            f"deformation Jacobian dips to {np.min(dets):.3g}; "
            f"reduce delta or enlarge rho")

    return MapSystem(name="dfa", chart=chart, forward=forward, inverse=inverse,
                     tangent=tangent, constants=SystemConstants(beta=0.5, xi=1.0),
                     dim_f=1)


# Per model: its builder, chart dimension, default parameters (declared
# nowhere else), a one-line description, the default disk center (None:
# drawn from the region, burned in 12 steps) and whether the map is linear
# (constant Jacobian, Lebesgue as its SRB measure), which the experiments
# turn into exact checks.  A model that sweeps a bundle declares its
# cone-sweep depth D (MapSystem.depth): 4 steps past the first multiple of
# 4 at which two seed frames swept along the same lead orbits agree within
# 2e-15 on each swept bundle, over measure_constants_h's sample.
# tests/test_systems.py::TestDeclaredDepth holds every D to that rule.
# cat declares both bundles and sweeps none.
MODEL_INFO = {
    "cat": {
        "build": _build_cat,
        "dim": 2,
        "params": {},
        "doc": "linear torus automorphism [[2,1],[1,1]]; exact splitting",
        "center": (0.2, 0.3),
        "linear": True,
    },
    "perturbed_cat": {
        "build": _build_perturbed_cat,
        "dim": 2,
        "params": {"eps": 0.01},
        "doc": "cat + eps*(sin(2*pi*x0), 0); eps in [0, 0.05]; converged splitting",
        "center": (0.2, 0.3),
        "linear": False,
        "depth": 24,
    },
    "solenoid": {
        "build": _build_solenoid,
        "dim": 3,
        "params": {"c": 0.25, "d": 0.5},
        "doc": "(phi, w) -> (2 phi, c w + d e^{i phi}) on the solid torus; "
               "0 < c < 1/2, c < d, c + d < 1",
        "center": None,
        "linear": False,
        "depth": 24,
    },
    "dfa": {
        "build": _build_dfa,
        "dim": 2,
        "params": {"delta": 0.05, "rho": 0.2},
        "doc": "cat deformed near its fixed point: unstable multiplier 1+delta "
               "at the origin, linear outside radius rho",
        "center": (0.2, 0.3),
        "linear": False,
        "depth": 40,
    },
}


def build(name, **params):
    """Instantiate a zoo model: its MODEL_INFO defaults updated by params,
    with its declared cone-sweep depth."""
    if name not in MODEL_INFO:
        raise ConstructionFailed(
            f"unknown model {name!r}; choose from {sorted(MODEL_INFO)}")
    info = MODEL_INFO[name]
    try:
        sys = info["build"](**{**info["params"], **params})
    except TypeError as exc:
        raise ConstructionFailed(f"bad parameters for {name}: {exc}") from None
    sys.depth = info.get("depth", sys.depth)
    return sys


def _halton(start, count, dim):
    """Unscrambled Halton points with indices start..start+count-1.

    Axis j is the radical inverse of the index in the j-th prime base,
    accumulated digit by digit from the least significant one.
    """
    primes = [p for p in range(2, 10 * dim + 2)
              if all(p % q for q in range(2, p))]
    out = np.zeros((count, dim))
    for j, base in enumerate(primes[:dim]):
        q = np.arange(start, start + count)
        scale = 1.0 / base
        while np.any(q > 0):
            out[:, j] += (q % base) * scale
            scale /= base
            q //= base
    return out


def quasi_uniform(lower, upper, count, seed=0, accept=None):
    """Low-discrepancy points in a box (Halton plus an irrational offset,
    which keeps the sequence off dyadic-rational artifacts of linear maps).

    accept: optional boolean predicate on (..., dim) coords; candidates
    failing it are skipped.  Deterministic in (count, seed).
    """
    lo = np.asarray(lower, float)
    hi = np.asarray(upper, float)
    dim = len(lo)
    offset = np.mod(_GOLDEN * (np.arange(dim) + 1)
                    + 0.123456789 * (seed + 1), 1.0)
    pts = []
    drawn = 0
    while len(pts) < count:
        raw = _halton(drawn, max(count, 64), dim)
        drawn += len(raw)
        cand = lo + np.mod(raw + offset, 1.0) * (hi - lo)
        ok = accept(cand) if accept is not None else np.ones(len(cand), bool)
        pts.extend(cand[ok][:count - len(pts)])
    return np.asarray(pts, float).reshape(count, dim)


def region_sample(sys, count, seed=0, burn_in=0):
    """Quasi-uniform points of the system's region.

    Points are optionally burned forward a few steps, which for dissipative
    models lands them near the attractor.  Deterministic in (count, seed).
    """
    chart = sys.chart

    def accept(cand):
        return sys.in_region(chart.wrap(cand))

    pts = chart.wrap(quasi_uniform(chart.lower, chart.upper, count,
                                   seed=seed, accept=accept))
    if burn_in > 0:
        pts = orbit_coords(sys, pts, burn_in)[-1]
    return pts


_MARGIN = 0.01   # headroom of eps0 and of lambda1's log


def measure_constants_h(sys, xi=None):
    """Measure (H)-style constants on a sampled region and pick a valid chain.

    The budget is fixed: 400 region samples (seed 7, burned in 30 steps)
    for sup||Df|E|| and b = inf mininorm(Df|F), and the first 200 of them
    for 400-step cocycle averages, whose orbits start from the F frames b
    read: each sample has one F lead.  A lead step is row-local on cat,
    perturbed_cat and the solenoid; dfa's inverse stops Newton batch-wide,
    so there the 400-sample lead defines the 200 orbits' F.  eps0 is the
    smallest _MARGIN-padded value compatible with every chain constraint:
    above log sup||Df|E||, above xi*log(b) (so the l3 slot stays above l2),
    and above zero.  lambda1 comes from the 0.9-quantile of long-run
    cocycle averages with _MARGIN headroom in the log; lambda2 sits at the
    geometric midpoint of its feasible window.  Raises ChainInfeasible with
    the measured numbers when the window is empty or F fails to expand on
    average.

    The one write to sys: when the model declares no c0, the measured
    sup |log mininorm(Df|F)| is stored in sys.constants.c0, where the
    hyperbolic_mass experiment reads it.  Declared constants are left alone.
    """
    xi = sys.constants.xi if xi is None else float(xi)
    pts = region_sample(sys, 400, seed=7, burn_in=30)

    stretch_e, mins, f = _point_stretches(sys, pts)
    sup_e = float(np.max(stretch_e))
    b = float(np.min(mins))
    c0 = float(np.max(np.abs(np.log(mins))))

    lf = time_logs(sys, orbit_coords(sys, pts[:200], 400), lead=f[:200])
    q = float(np.quantile(np.mean(lf, axis=1), 0.9))
    lam1 = float(np.exp(q + _MARGIN))
    if lam1 >= 1.0:
        raise ChainInfeasible(
            f"0.9-quantile of long-run averages is {q:.4f} >= -margin: "
            f"F does not expand on average, lambda1 = {lam1:.4f} >= 1")

    eps0 = max(np.log(sup_e), xi * np.log(b), 0.0) + _MARGIN
    lo = lam1 * np.exp(eps0)
    hi = min(b ** xi * np.exp(-eps0), 1.0 - 1e-12)
    if not lo < hi:
        raise ChainInfeasible(
            f"no lambda2 window: lambda1*e^eps0 = {lo:.6f} >= "
            f"min(b^xi e^-eps0, 1) = {hi:.6f} "
            f"(b = {b:.6f}, sup_e = {sup_e:.6f}, xi = {xi}, eps0 = {eps0:.6f})")
    lam2 = float(np.sqrt(lo * hi))
    lam3 = float(lam2 * np.exp(eps0) / b ** xi)
    consts = ConstantsH(eps0=float(eps0), lambda1=lam1, lambda2=lam2,
                        lambda3=lam3, b=b, xi=xi)
    consts.validate()
    if sys.constants.c0 is None:
        sys.constants.c0 = c0
    return consts


def lambda_fraction(sys, lam, horizon, seed=11):
    """Fraction of sampled points whose finite-horizon prefix averages all
    stay below log(lam) — the sampling surrogate for membership mass, on
    400 region samples."""
    pts = region_sample(sys, 400, seed=seed)
    lf = time_logs(sys, orbit_coords(sys, pts, horizon))
    ok = lambda_membership_batch(lf, lam)
    return float(np.mean(ok)), pts[ok]
