"""Cone fields around F and average-domination bookkeeping.

A cone of width a at x collects the vectors whose E-component (in the
oblique splitting decomposition) is at most a times their F-component.
Average domination of a cocycle certifies that such cones are mapped
strictly into themselves with geometrically shrinking width.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyRadius, HypothesisViolated
from .linalg import dot_norms, oblique_components
from .systems import (CocycleLog, _orbit, _point_stretches,
                      splitting_frames_along_orbit)


def cone_width_of(v, e, f):
    """Width ||v_E||/||v_F|| of a vector; inf when v_F vanishes.

    v (..., d) broadcasts against the frame stacks e and f (see
    oblique_components); a float for a single vector, else an array.
    """
    ve, vf = oblique_components(v, e, f)
    ne, nf = dot_norms(ve), dot_norms(vf)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(nf == 0.0, np.inf, ne / nf)
    return float(w) if w.ndim == 0 else w


def check_avg_domination(cocycle, gamma):
    """Certify prod_{j=0}^{i-1} ||Df|E(f^j x)|| / mininorm(Df|F(f^j x)) <= gamma^i
    for every i up to the cocycle's length n.

    The product is 0-based, from the cocycle's entry 0.  Returns the (n,)
    array of cumulative products for i = 1..n, or raises HypothesisViolated
    naming the first failing i.
    """
    if not isinstance(cocycle, CocycleLog):
        raise TypeError("expected a CocycleLog")
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    n = len(cocycle.log_e)
    step_logs = (np.asarray(cocycle.log_e, np.longdouble)
                 + np.asarray(cocycle.log_f_inv, np.longdouble))
    cum = np.cumsum(step_logs)
    bound = np.log(np.longdouble(gamma)) * np.arange(1, n + 1, dtype=np.longdouble)
    bad = np.argwhere(cum > bound + 1e-12)
    if bad.size:
        i = int(bad[0][0]) + 1
        raise HypothesisViolated(
            f"domination fails at i = {i}: log-product {float(cum[i - 1]):.6f} "
            f"> i*log(gamma) = {float(bound[i - 1]):.6f}")
    return np.exp(cum).astype(float)


def verify_cone_contraction(sys, x, a, gamma, n, seed=5):
    """Push cone-boundary vectors through Df^i and compare widths to gamma^i a.

    Samples 16 unit vectors on the width-a boundary at x
    (||v_E|| = a ||v_F||), transports them along the orbit, and measures the
    width of each image in the splitting at f^i(x).  Returns the (n,) array
    of worst ratios width_i / (gamma^i * a); a certificate-consistent run
    stays <= 1 + tol.  Widths are scale-free, so each vector is rescaled by
    a power of two before each push: exact, and no push overflows.
    """
    if not (a > 0 and 0 < gamma):
        raise ValueError("need a > 0 and gamma > 0")
    rows, tans = _orbit(sys, np.asarray(x, float)[None, :], n)
    e_fr, f_fr = splitting_frames_along_orbit(sys, rows, tans)
    e0, f0 = e_fr[0, 0], f_fr[0, 0]
    rng = np.random.default_rng(seed)
    # one draw of (16, dim E + dim F) normals is the stream of per-sample
    # (E, F) coefficient pairs; stacked matrix-vector products and dot_norms
    # round like the one-vector forms, so the widths do not depend on batching
    ce, cf = np.split(rng.standard_normal((16, e0.shape[1] + f0.shape[1])),
                      [e0.shape[1]], axis=1)
    ve = e0 @ (ce / dot_norms(ce)[:, None])[:, :, None]
    vf = f0 @ (cf / dot_norms(cf)[:, None])[:, :, None]
    vecs = a * ve[:, :, 0] + vf[:, :, 0]
    worst = np.empty(n, float)
    for i in range(1, n + 1):
        scale = np.frexp(np.max(np.abs(vecs), axis=-1))[1]
        vecs = np.ldexp(vecs, -scale[:, None]) @ tans[i - 1, 0].T
        widths = cone_width_of(vecs, e_fr[i], f_fr[i])
        worst[i - 1] = np.max(widths) / (gamma ** i * a)
    return worst


def domination_robustness_radius(sys, gamma1, gamma2):
    """Largest certified radius r keeping perturbed ratios inside
    [sqrt(gamma1/gamma2), sqrt(gamma2/gamma1)].

    pre: gamma1 < gamma2 (the slack pays for the perturbation).
    Scans a grid of 24 points per axis for the per-step quantities
    log||Df|E|| and log mininorm(Df|F), measures their modulus of continuity
    via adjacent grid differences, and returns bound / (2 * worst_slope),
    capped at the chart diameter.  Raises EmptyRadius when even one grid
    step already moves some quantity past the bound.
    """
    if not (0.0 < gamma1 < gamma2):
        raise ValueError("need 0 < gamma1 < gamma2")
    bound = 0.5 * float(np.log(gamma2 / gamma1))

    chart = sys.chart
    lo = np.asarray(chart.lower, float)
    hi = np.asarray(chart.upper, float)
    axes = [np.linspace(lo[j], hi[j], 24, endpoint=False)
            if chart.periodic[j] else
            np.linspace(lo[j], hi[j], 24)
            for j in range(chart.dim)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    pts = mesh.reshape(-1, chart.dim)
    keep = sys.in_region(pts)

    # evaluated only where the mask reads them; the values equal the full
    # grid's, as the solenoid's maps act per point and a torus keeps it all
    log_e, log_f = np.zeros(len(pts)), np.zeros(len(pts))
    if keep.any():
        stretch_e, stretch_f, _ = _point_stretches(sys, pts[keep])
        log_e[keep], log_f[keep] = np.log(stretch_e), np.log(stretch_f)

    shape = mesh.shape[:-1]
    mask = keep.reshape(shape)
    worst_slope = 0.0
    finest_jump = 0.0
    for vals in (log_e.reshape(shape), log_f.reshape(shape)):
        for j in range(chart.dim):
            step = (hi[j] - lo[j]) / (24 if chart.periodic[j] else 23)
            ok = mask & np.roll(mask, -1, axis=j)
            if not chart.periodic[j]:   # a box axis has no wrap-around pair
                np.moveaxis(ok, j, 0)[-1] = False
            diffs = np.abs(np.roll(vals, -1, axis=j) - vals)[ok]
            if diffs.size == 0:
                continue
            jump = float(np.max(diffs))
            finest_jump = max(finest_jump, jump)
            worst_slope = max(worst_slope, jump / step)

    if finest_jump > bound:
        raise EmptyRadius(
            f"a single grid step already moves a ratio by {finest_jump:.4g} "
            f"> bound {bound:.4g}; no positive radius certifiable at this grid")
    if worst_slope == 0.0:
        return chart.diameter
    return float(min(bound / (2.0 * worst_slope), chart.diameter))
