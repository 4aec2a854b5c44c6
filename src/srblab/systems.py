"""Map systems, invariant splittings, and derivative cocycles along orbits.

A MapSystem bundles a chart, the map and its inverse, the tangent map, an
E/F splitting field, and whatever constants are known exactly for the model.
All callables are vectorized: they accept (..., dim) coordinate arrays and
broadcast over leading axes.

The cocycle convention, fixed once for the whole toolkit: entry j of a
cocycle log stores the value at the orbit point f^j(x),

    log_e[j]     = log ||Df restricted to E at f^j(x)||
    log_f_inv[j] = -log mininorm(Df restricted to F at f^j(x))

with j running over 1..n by default, or 0..n when the zeroth entry is
requested (average-domination products are 0-based).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charts import Chart, Point, require_same_chart
from .errors import (ChainInfeasible, DegenerateSplitting, NoConvergence,
                     OrbitEscaped)
from .linalg import Subspace, restricted_stretch

_SEED_ANGLES = (0.7310987, 0.3891113, 0.9122891, 0.1930491)


def _generic_frame(dim, k):
    """A fixed, deterministically generic (dim, k) frame used as sweep seed."""
    rng = np.random.default_rng(1234567)
    m = np.stack([np.cos(_SEED_ANGLES[j % 4] * (np.arange(dim) + 2 + j))
                  for j in range(k)], axis=1)
    m = m + 1e-3 * rng.standard_normal((dim, k))  # fixed rng: still deterministic
    q, _ = np.linalg.qr(m)
    return q


def _batch_qr(frames):
    """Orthonormalize (..., dim, k) stacks of frames, sign-fixed."""
    q, r = np.linalg.qr(frames)
    # fix signs so the result is continuous in the input
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    s = np.where(diag < 0, -1.0, 1.0)
    return q * s[..., None, :]


class SplittingField:
    """Base interface: orthonormal E- and F-frames at coordinate arrays."""

    kind = "abstract"
    dim_e = None
    dim_f = None

    def e_frames(self, coords):
        raise NotImplementedError

    def f_frames(self, coords):
        raise NotImplementedError

    def at(self, coords):
        """(E, F) as Subspaces at a single coordinate vector."""
        c = np.asarray(coords, float)
        return Subspace(self.e_frames(c)), Subspace(self.f_frames(c))


class ExactSplitting(SplittingField):
    """Splitting given in closed form (constant or pointwise formulas)."""

    kind = "exact"

    def __init__(self, dim_e, dim_f, e_fn, f_fn):
        self.dim_e = dim_e
        self.dim_f = dim_f
        self._e_fn = e_fn
        self._f_fn = f_fn

    def e_frames(self, coords):
        return self._e_fn(np.asarray(coords, float))

    def f_frames(self, coords):
        return self._f_fn(np.asarray(coords, float))


class ConvergedSplitting(SplittingField):
    """Splitting obtained by cone iteration to a recorded depth.

    F at x: push a fixed generic frame forward along the backward orbit of x
    (depth steps).  E at x: pull a generic frame backward along the forward
    orbit (inverse/adjoint iteration).  Queries at identical (rounded)
    coordinates are memoized; the field behaves as a pure function.
    """

    kind = "converged"

    def __init__(self, dim_e, dim_f, forward, inverse, tangent, depth=40,
                 exact_e=None):
        self.dim_e = dim_e
        self.dim_f = dim_f
        self.depth = depth
        self._forward = forward
        self._inverse = inverse
        self._tangent = tangent
        self._exact_e = exact_e  # models with an exactly-invariant E supply it
        self._cache = {}

    # -- F: forward cone iteration ------------------------------------
    def f_frames(self, coords, depth=None):
        c = np.asarray(coords, float)
        depth = self.depth if depth is None else depth
        single = c.ndim == 1
        pts = c[None, :] if single else c.reshape(-1, c.shape[-1])
        out = self._f_batch(pts, depth)
        if single:
            return out[0]
        return out.reshape(c.shape[:-1] + out.shape[-2:])

    def _f_batch(self, pts, depth):
        back = pts
        trail = [back]
        for _ in range(depth):
            back = self._inverse(back)
            trail.append(back)
        frames = np.broadcast_to(
            _generic_frame(pts.shape[-1], self.dim_f),
            (pts.shape[0], pts.shape[-1], self.dim_f)).copy()
        for k in range(depth, 0, -1):
            t = self._tangent(trail[k])
            frames = _batch_qr(t @ frames)
        return frames

    # -- E: inverse iteration along the forward orbit ------------------
    def e_frames(self, coords, depth=None):
        c = np.asarray(coords, float)
        if self._exact_e is not None:
            return self._exact_e(c)
        depth = self.depth if depth is None else depth
        single = c.ndim == 1
        pts = c[None, :] if single else c.reshape(-1, c.shape[-1])
        out = self._e_batch(pts, depth)
        if single:
            return out[0]
        return out.reshape(c.shape[:-1] + out.shape[-2:])

    def _e_batch(self, pts, depth):
        fwd = pts
        trail = [fwd]
        for _ in range(depth):
            fwd = self._forward(fwd)
            trail.append(fwd)
        frames = np.broadcast_to(
            _generic_frame(pts.shape[-1], self.dim_e),
            (pts.shape[0], pts.shape[-1], self.dim_e)).copy()
        for k in range(depth - 1, -1, -1):
            t = self._tangent(trail[k])
            frames = _batch_qr(np.linalg.solve(t, frames))
        return frames

    def at(self, coords):
        c = np.asarray(coords, float)
        key = np.round(c, 12).tobytes()
        hit = self._cache.get(key)
        if hit is None:
            hit = (Subspace(self.e_frames(c)), Subspace(self.f_frames(c)))
            self._cache[key] = hit
        return hit


@dataclass
class SystemConstants:
    """Exactly-known or declared constants of a model.

    b        : inf over the region of mininorm(Df|F); None when only measurable.
    c0       : sup |log ||(Df|F)^-1||| over the region; None when measurable.
    sup_e    : sup ||Df|E||; None when measurable.
    beta     : declared Hoelder exponent of the F bundle.
    xi       : default curvature/Hoelder exponent used by constant chains.
    ground_truth : dict of named exact values with short derivations.
    """

    b: float = None
    c0: float = None
    sup_e: float = None
    beta: float = 0.5
    xi: float = 0.5
    ground_truth: dict = field(default_factory=dict)


@dataclass
class MapSystem:
    """A smooth invertible map with an invariant splitting on a region."""

    name: str
    chart: Chart
    forward: callable        # (..., d) -> (..., d), chart-wrapped
    inverse: callable        # (..., d) -> (..., d)
    tangent: callable        # (..., d) -> (..., d, d)
    splitting: SplittingField
    constants: SystemConstants
    region_contains: callable = None   # coords -> bool array; None = whole chart

    @property
    def dim(self):
        return self.chart.dim

    def point(self, coords):
        return Point(self.chart.chart_id, self.chart.wrap(coords))

    def in_region(self, coords):
        coords = np.asarray(coords, float)
        ok = self.chart.contains(coords)
        if self.region_contains is not None:
            ok = ok & self.region_contains(coords)
        return ok


@dataclass(frozen=True)
class ConstantsH:
    """A constant chain 0 < l1 < l1 e^eps0 < l2 < l3 = l2 e^eps0 / b^xi < 1."""

    eps0: float
    lambda1: float
    lambda2: float
    lambda3: float
    b: float
    xi: float

    def validate(self):
        l1, l2, l3 = self.lambda1, self.lambda2, self.lambda3
        expected_l3 = l2 * np.exp(self.eps0) / self.b ** self.xi
        if not np.isclose(l3, expected_l3, rtol=1e-12):
            raise ChainInfeasible(
                f"lambda3 = {l3} does not equal lambda2*e^eps0/b^xi = {expected_l3}")
        if not (0.0 < l1 < l1 * np.exp(self.eps0) < l2 < l3 < 1.0):
            raise ChainInfeasible(
                f"chain 0 < {l1} < {l1 * np.exp(self.eps0)} < {l2} < {l3} < 1 fails")
        return self


@dataclass
class CocycleLog:
    """Per-step restricted derivative logs along a finite orbit segment.

    Arrays are indexed so that position p corresponds to the orbit index
    start + p; start is 1 by default and 0 when the zeroth entry was
    requested.  `entry(j)` fetches by orbit index.
    """

    base: Point
    start: int
    log_e: np.ndarray
    log_f_inv: np.ndarray

    @property
    def horizon(self):
        return self.start + len(self.log_e) - 1

    def entry(self, j):
        if not (self.start <= j <= self.horizon):
            raise IndexError(f"orbit index {j} outside [{self.start}, {self.horizon}]")
        p = j - self.start
        return float(self.log_e[p]), float(self.log_f_inv[p])

    def f_inv_from_one(self):
        """The log_f_inv entries for orbit indices 1..n (detector convention)."""
        return self.log_f_inv[1 - self.start:]


def orbit_coords(sys, coords, n, check_region=True):
    """Forward orbit rows: (n+1, ..., d) with row j = f^j(coords), wrapped.

    Raises OrbitEscaped naming the first step any point leaves the region.
    """
    c = np.asarray(coords, float)
    rows = np.empty((n + 1,) + c.shape, float)
    rows[0] = sys.chart.wrap(c)
    if check_region and not np.all(sys.in_region(rows[0])):
        raise OrbitEscaped(0, rows[0])
    for j in range(1, n + 1):
        rows[j] = sys.forward(rows[j - 1])
        if check_region and not np.all(sys.in_region(rows[j])):
            bad = np.argwhere(~sys.in_region(rows[j]))
            raise OrbitEscaped(j, rows[j][tuple(bad[0])] if bad.size else rows[j])
    return rows


def splitting_frames_along_orbit(sys, rows):
    """E- and F-frames at each orbit row, propagated dynamically.

    rows: (m+1, ..., d) forward-orbit coordinates.  For exact splittings the
    fields are evaluated pointwise.  For converged splittings, F is seeded by
    the field at row 0 and pushed forward one tangent application per step
    (equivalent to deepening the cone iteration); E is seeded by the field at
    a point `depth` steps beyond the last row and pulled back.
    """
    sp = sys.splitting
    m = rows.shape[0] - 1
    if sp.kind == "exact":
        e = np.stack([sp.e_frames(rows[j]) for j in range(m + 1)])
        f = np.stack([sp.f_frames(rows[j]) for j in range(m + 1)])
        return e, f

    lead = rows.shape[1:-1]
    d = rows.shape[-1]
    f = np.empty((m + 1,) + lead + (d, sp.dim_f), float)
    f[0] = sp.f_frames(rows[0])
    for j in range(m):
        t = sys.tangent(rows[j])
        f[j + 1] = _batch_qr(t @ f[j])

    e = np.empty((m + 1,) + lead + (d, sp.dim_e), float)
    if sp._exact_e is not None:
        for j in range(m + 1):
            e[j] = sp._exact_e(rows[j])
        return e, f
    ext = rows[m]
    tail = []
    for _ in range(sp.depth):
        tail.append(ext)
        ext = sys.forward(ext)
    cur = np.broadcast_to(_generic_frame(d, sp.dim_e),
                          lead + (d, sp.dim_e)).copy()
    for y in reversed(tail):
        cur = _batch_qr(np.linalg.solve(sys.tangent(y), cur))
    e[m] = cur
    for j in range(m - 1, -1, -1):
        e[j] = _batch_qr(np.linalg.solve(sys.tangent(rows[j]), e[j + 1]))
    return e, f


def cocycle_logs(sys, x, n, include_zero=False):
    """Restricted derivative logs at f^j(x) for j = 1..n (0..n with the flag).

    post: log_e[j] = log ||Df|E(f^j x)||, log_f_inv[j] = -log mininorm(Df|F(f^j x)).
    Raises OrbitEscaped if the forward orbit leaves the region.
    """
    if isinstance(x, Point):
        require_same_chart(sys.chart, x)
        c = x.coords
    else:
        c = np.asarray(x, float)
    start = 0 if include_zero else 1
    le, lf = cocycle_logs_batch(sys, c[None, :], n, include_zero=include_zero)
    return CocycleLog(base=sys.point(c), start=start,
                      log_e=le[0], log_f_inv=lf[0])


def cocycle_logs_batch(sys, coords, n, include_zero=False):
    """Vectorized cocycle logs for a batch of base points.

    Returns (log_e, log_f_inv), each of shape (N, n+1) when include_zero else
    (N, n), column p holding the value at orbit index start + p.
    """
    start = 0 if include_zero else 1
    rows = orbit_coords(sys, np.asarray(coords, float), n)
    e, f = splitting_frames_along_orbit(sys, rows)
    m = n + 1 - start
    log_e = np.empty((rows.shape[1], m), float)
    log_f_inv = np.empty((rows.shape[1], m), float)
    for j in range(start, n + 1):
        t = sys.tangent(rows[j])
        log_e[:, j - start] = np.log(restricted_stretch(t, e[j], "max"))
        log_f_inv[:, j - start] = -np.log(restricted_stretch(t, f[j], "min"))
    return log_e, log_f_inv
