"""Map systems, invariant splittings, and derivative cocycles along orbits.

A MapSystem owns the map: forward, inverse and the tangent map Df are given
once, by the model, with the chart, the dimension of F, any constant E- or
F-frame and the constants known for the model.  The splitting field reads
the map from its system, so a dataclasses.replace copy with other callables
sweeps its cones with them.  All callables are vectorized: they accept
(..., dim) coordinate arrays and broadcast over leading axes.

E and F come from one cone sweep over (m+1, N, d) orbit rows fed by their
tangents, SplittingField._bundle, run both ways: the push yields F at rows
0..m after D steps along row 0's backward orbit, the pull E at rows m..0
after D - 1 along row m's forward one, where D is the system's depth.  A
zoo model declares its D (models.MODEL_INFO): 4 steps past the first
multiple of 4 at which two seed frames swept along the same lead orbits
agree within 2e-15 on every bundle it sweeps, over its constants sample;
a system that declares none walks DEPTH.  Only these lead orbits
take their own Df: a row's Df feeds the push and the pull, a point's
(_point_stretches) the pull's last step and both stretches.  Both cocycle
logs reduce Df's image of the row's frame through one reducer
(_image_logs): Df @ E of the pulled E, and the push's own product Df @ F.
A MapSystem keeps each anchor row's lead frames (SplittingField._lead) for
at most POINTS anchor points in all, so a point asked for again walks no
lead orbit; equal anchor bytes and callables give the bits a walk would.
Entry j of a cocycle log stores the value at the orbit point f^j(x);
time_logs owns the entries that hyperbolic times and Lambda membership read.

Df runs on blocks of POINTS // N stacked (N, d) rows, one call per block,
and the cocycle logs reduce one block of images per call: every model maps
a stacked row to the bits it gives that row alone, and no call or held
block takes more than max(POINTS, N) points.  The F logs (time_logs) read
Df as it streams, so they hold one block of it.  Two arrays still span a
whole orbit: cocycle_logs_batch's Df at every row, which the push reads
forwards and the pull backwards, and _lead's (D + 1, N, d) lead orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, islice

import numpy as np

from .charts import Chart
from .errors import ChainInfeasible, OrbitEscaped
from .linalg import Subspace, _image_stretch, restricted_stretch

_SEED_ANGLES = (0.7310987, 0.3891113, 0.9122891, 0.1930491)
DEPTH = 40   # a system's default cone-sweep depth (MapSystem.depth)
POINTS = 4096   # orbit points per stacked tangent call or chunked reduction


def _generic_frames(pts, k):
    """A fixed, deterministically generic (d, k) frame, one copy per point of
    the (..., d) array pts: the seed of every cone sweep."""
    dim = pts.shape[-1]
    rng = np.random.default_rng(1234567)
    m = np.stack([np.cos(_SEED_ANGLES[j % 4] * (np.arange(dim) + 2 + j))
                  for j in range(k)], axis=1)
    m = m + 1e-3 * rng.standard_normal((dim, k))  # fixed rng: still deterministic
    q, _ = np.linalg.qr(m)
    return _tiled(q, pts.shape[:-1])


def _tiled(a, lead):
    """Writable copies of the array a, one per index of the shape lead."""
    return np.broadcast_to(a, tuple(lead) + a.shape).copy()


# dlarfg's rescale threshold dlamch('S') / dlamch('E'), the guard's floor
_SAFMIN = 2.0 ** -969


def _batch_qr(frames):
    """Orthonormalize (..., dim, k) stacks of frames, sign-fixed: each Q
    column is flipped where np.linalg.qr's R has a negative diagonal entry,
    so the result is continuous in the input.

    (..., d, k) frames with k >= 2, the 2-D disks', take np.linalg.qr
    (dgeqrf + dorgqr).  A line, k = 1, takes one of two paths to the same
    bits:
    - a planar (..., 2, 1) stack whose every row has b != 0 and
      |beta| >= safmin, so that dlarfg neither rescales nor keeps H = I:
      dgeqr2's arithmetic as whole arrays, with no LAPACK call.  This equals
      LAPACK bit for bit under reference LAPACK, which OpenBLAS ships; it
      was checked with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64) only.
      Builds on Accelerate or MKL may round dlapy2 differently, and there
      the identity is unverified.
    - every other line stack, the solenoid's (..., 3, 1) F and a planar
      stack with a row whose b is zero or tiny or a value that is not
      finite: np.linalg.qr's raw mode, one dgeqrf per frame.  Its dlarfg
      norm is a dnrm2 that the BLAS rounds its own way (OpenBLAS on x86-64
      accumulates it in x87 extended precision), so no float64 expression
      matches it everywhere.
    Both build Q as dorgqr does for one reflector H = I - tau v v^T
    (v_0 = 1): its unblocked dorg2r applies no dlarf and only sets
    q_0 = 1 - tau and scales the tail by -tau (dscal).  On finite input a
    line gives np.linalg.qr's bits; on a frame holding NaN or inf, its NaN
    entries and every other bit, but a NaN's sign follows numpy's loops and
    is not pinned.
    """
    if frames.shape[-1] != 1:
        q, r = np.linalg.qr(frames)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        return q * np.where(diag < 0, -1.0, 1.0)[..., None, :]
    with np.errstate(all="ignore"):   # zero, overflowing or non-finite rows
        planar = frames.shape[-2] == 2
        if planar:
            ft = frames.T
            a, b = ft[0, 0, ...], ft[0, 1, ...]
            # dlarfg's beta -sign(dlapy2(a, |b|), a)
            aa, ab = np.abs(a), np.abs(b)
            w = np.maximum(aa, ab)
            zw = np.minimum(aa, ab) / w
            beta = np.copysign(w * np.sqrt(1.0 + zw * zw), -a)
            tau = (beta - a) / beta
            # tau is in [1, 2] on a finite column (inf where beta - a
            # overflows) and NaN where a value is not finite, so the guard
            # holds only on the rows the formula covers, and beta is then a
            # nonzero number, whose sign copysign reads as np.where does
            planar = (np.abs(b) * tau).min(initial=np.inf) >= 2.0 * _SAFMIN
        if planar:
            v, s = b * (1.0 / (a - beta)), np.copysign(1.0, beta)
        else:
            h, tau = np.linalg.qr(frames, mode="raw")
            ht = h.T   # (d, 1, ...): R's diagonal entry, then v's tail
            tau, v, s = tau.T[0], ht[1:, 0], np.where(ht[0, 0] < 0, -1.0, 1.0)
        # tau and s are indexed by the lead axes reversed, v by the tail row
        # first, so that they broadcast into the transposed Q
        q = np.empty(frames.shape)
        qt = q.T
        qt[0, 0] = (1.0 - tau) * s
        qt[0, 1:] = (-tau * v) * s
    return q


def _swept(step, tangents, frames):
    """The cone iteration: frames carried through each Df of tangents by step
    (np.matmul pushes, np.linalg.solve pulls), yielded after every step."""
    for t in tangents:
        frames = _batch_qr(step(t, frames))
        yield frames


def _blocks(rows):
    """Slices of the (m+1, N, ...) rows, in order, of POINTS // N rows each
    (at least one): the blocks one tangent call or one reduction takes."""
    step = max(1, POINTS // max(1, rows.shape[1]))
    return (slice(i, i + step) for i in range(0, len(rows), step))


def _streamed_tangents(tangent, rows):
    """Df at each (N, d) row of the (m+1, N, d) rows, yielded in order from
    one call per block, so no call takes more than max(POINTS, N) points.
    Every model's Df gives a row the same bits whichever rows are stacked
    with it, a (1, N, d) stack of one row included."""
    for s in _blocks(rows):
        yield from tangent(rows[s])


def _row_tangents(tangent, rows):
    """Df at the (m+1, N, d) rows, filled into one (m+1, N, d, d) array."""
    shape = rows.shape[1:] + rows.shape[-1:]
    return np.fromiter(_streamed_tangents(tangent, rows), (float, shape),
                       len(rows))


def _image_logs(out, imgs, shape, which):
    """Fill the (N, m+1) array out, or a view of one, in place: column j
    is log _image_stretch(img, which) of the j-th image Df @ frame, of
    shape (N, d, k), that imgs streams.  A block of rows per reduction, so
    only one block's images are held at a time.  Returns out."""
    cols = out.T
    for s in _blocks(cols):
        k = len(cols[s])
        img = np.fromiter(islice(imgs, k), (float, shape), k)
        cols[s] = np.log(_image_stretch(img, which))
    return out


class SplittingField:
    """Orthonormal E- and F-frames of a MapSystem: one sweep, _bundle, pushes
    F along backward orbits and pulls E along forward ones, unless the
    system declares the bundle's constant frame.  A query flattens its rows
    to (m+1, N, d), so no frame depends on the leading shape, and fills one
    array from the sweep.  The field keeps nothing: the lead frames live in
    its system's memo, and a repeated query gets the bits of a fresh one.
    """

    def __init__(self, system):
        self.system = system

    def _bundle(self, which, rows, tans):
        """E (which "e") or F ("f") at the (m+1, N, d) rows: a stream of
        (N, d, dim) frames, F at rows 0..m fed Df at rows 0..m-1, E at rows
        m..0 fed Df at rows m..0.  The sweep goes on from the anchor row's
        _lead frame: F yields it first, E pulls it on.  It reads tans
        lazily, one per frame but F's first; a declared bundle reads none
        and tiles its frame."""
        s = self.system
        push = which == "f"
        frame = s.f_frame if push else s.e_frame
        if frame is not None:
            return iter(_tiled(frame, rows.shape[:-1]))
        lead = self._lead(which, rows[0] if push else rows[-1])
        sweep = _swept(np.matmul if push else np.linalg.solve, tans, lead)
        return chain([lead], sweep) if push else sweep

    def _lead(self, which, anchor):
        """The sweep's frame at the end of the (N, d) anchor's lead orbit: F
        at the anchor after depth pushes along its backward orbit, or E at
        f(anchor) after depth - 1 pulls along its forward one, from the
        generic frames, where depth is the system's.  The system's memo
        keeps it by the anchor's bytes, the depth and the callables that
        made it, read-only, for at most POINTS anchor points in all, and
        drops its oldest entries first."""
        s = self.system
        push = which == "f"
        step, n = (s.inverse, s.depth) if push else (s.forward, s.depth - 1)
        key = (which, n, step, s.tangent, anchor.shape, anchor.dtype.str,
               anchor.tobytes())
        memo = s._leads
        if key in memo:
            return memo[key]
        # orbit[k]: the anchor after n - k steps; Df there leads to its end
        orbit = np.empty((n + 1,) + anchor.shape)
        orbit[n] = anchor
        for k in range(n, 0, -1):
            orbit[k - 1] = step(orbit[k])
        sweep = np.matmul if push else np.linalg.solve
        frames = _generic_frames(anchor, s.dim_f if push else s.dim_e)
        for t in _streamed_tangents(s.tangent, orbit[:-1]):
            frames = _batch_qr(sweep(t, frames))
        if len(anchor) <= POINTS:
            frames.flags.writeable = False
            held = len(anchor) + sum(map(len, memo.values()))
            while held > POINTS:
                held -= len(memo.pop(next(iter(memo))))
            memo[key] = frames
        return frames

    def _frames_at(self, which, coords):
        """The bundle at the (..., d) points coords, as their one-row
        stream's first frame, copied out of the memo: only a pull reads
        Df at the row."""
        c = np.asarray(coords, float)
        row = c.reshape(1, -1, c.shape[-1])
        fr = next(self._bundle(which, row, map(self.system.tangent, row)))
        return fr.reshape(c.shape + fr.shape[-1:]).copy()

    def e_frames(self, coords):
        return self._frames_at("e", coords)

    def f_frames(self, coords):
        return self._frames_at("f", coords)

    def frames_along(self, rows, tans):
        """E- and F-frames at every row of (m+1, ..., d) forward-orbit rows;
        the push and the pull share the caller's tangents tans, Df at the
        rows (m+1, ..., d, d)."""
        s = self.system
        rows = np.asarray(rows, float)
        flat = rows.reshape(len(rows), -1, rows.shape[-1])
        tans = np.reshape(tans, flat.shape + flat.shape[-1:])
        f = np.fromiter(self._bundle("f", flat, tans[:-1]),
                        (float, flat.shape[1:] + (s.dim_f,)), len(flat))
        e = np.fromiter(self._bundle("e", flat, tans[::-1]),
                        (float, flat.shape[1:] + (s.dim_e,)), len(flat))[::-1]
        return (e.reshape(rows.shape + (s.dim_e,)),
                f.reshape(rows.shape + (s.dim_f,)))

    def at(self, coords):
        """(E, F) as Subspaces at a single coordinate vector."""
        return Subspace(self.e_frames(coords)), Subspace(self.f_frames(coords))


# the old name stays while perfbench/test_perfbench.py and __all__ use it
ConvergedSplitting = SplittingField


@dataclass
class SystemConstants:
    """Exactly-known or declared constants of a model.

    c0       : sup |log ||(Df|F)^-1||| over the region; None when measurable.
    beta     : declared Hoelder exponent of the F bundle.
    xi       : default curvature/Hoelder exponent used by constant chains.
    """

    c0: float = None
    beta: float = 0.5
    xi: float = 0.5


@dataclass
class MapSystem:
    """A smooth invertible map with an invariant splitting on a region.

    F has dimension dim_f and E the rest of the chart's.  e_frame/f_frame
    declare a bundle as one constant orthonormal (d, dim) frame; a bundle
    left None converges by cone iteration of this system's map, whose lead
    orbits take depth steps for F and depth - 1 for E.
    """

    name: str
    chart: Chart
    forward: callable        # (..., d) -> (..., d), chart-wrapped
    inverse: callable        # (..., d) -> (..., d)
    tangent: callable        # (..., d) -> (..., d, d)
    constants: SystemConstants
    dim_f: int
    e_frame: np.ndarray = None
    f_frame: np.ndarray = None
    region_contains: callable = None   # coords -> bool array; None = whole chart
    depth: int = DEPTH   # cone-sweep depth D of the bundles left None
    # the splitting's lead frames by anchor (SplittingField._lead); a
    # dataclasses.replace copy starts with none, and equality ignores them
    _leads: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def dim(self):
        return self.chart.dim

    @property
    def dim_e(self):
        return self.chart.dim - self.dim_f

    @property
    def splitting(self):
        """The E/F field of this system, built on each access from its
        current map and frames; it keeps no copy of either."""
        return SplittingField(self)

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

    Position j of each array holds the value at orbit index j = 0..n.
    """

    log_e: np.ndarray
    log_f_inv: np.ndarray

    def f_inv_from_one(self):
        """The log_f_inv entries for orbit indices 1..n (detector convention)."""
        return self.log_f_inv[1:]


def orbit_coords(sys, coords, n, check_region=True):
    """Forward orbit rows: (n+1, ..., d) with row j = f^j(coords), wrapped.

    Raises OrbitEscaped naming the first step any point leaves the region.
    When the chart has no box axis and the system no region_contains,
    every point is in the region and no row is tested.
    """
    c = np.asarray(coords, float)
    rows = np.empty((n + 1,) + c.shape, float)
    rows[0] = sys.chart.wrap(c)
    check_region = check_region and (not all(sys.chart.periodic)
                                     or sys.region_contains is not None)
    if check_region:
        _check_in_region(sys, rows[0], 0)
    for j in range(1, n + 1):
        rows[j] = sys.forward(rows[j - 1])
        if check_region:
            _check_in_region(sys, rows[j], j)
    return rows


def _check_in_region(sys, row, step):
    """Raise OrbitEscaped(step, p) for the first point p of row outside the
    region (row itself when it is one point)."""
    inside = sys.in_region(row)
    if not np.all(inside):
        bad = np.argwhere(~inside)
        raise OrbitEscaped(step, row[tuple(bad[0])] if bad.size else row)


def splitting_frames_along_orbit(sys, rows, tans):
    """E- and F-frames at each of the (m+1, ..., d) forward-orbit rows, from
    tans, Df at the rows (see frames_along)."""
    return sys.splitting.frames_along(rows, tans)


def cocycle_logs(sys, x, n):
    """Restricted derivative logs at f^j(x) for j = 0..n.

    post: log_e[j] = log ||Df|E(f^j x)||, log_f_inv[j] = -log mininorm(Df|F(f^j x)).
    Raises OrbitEscaped if the forward orbit leaves the region.
    """
    le, lf = cocycle_logs_batch(sys, np.asarray(x, float)[None, :], n,
                                include_zero=True)
    return CocycleLog(log_e=le[0], log_f_inv=lf[0])


def cocycle_logs_batch(sys, coords, n, include_zero=False):
    """Vectorized cocycle logs for a batch of base points.

    Returns (log_e, log_f_inv), each of shape (N, n+1) when include_zero else
    (N, n), column p holding the value at orbit index start + p.  Each row's
    Df feeds the pull, whose E frames it maps into log_e, and _log_f_inv.
    """
    start = 0 if include_zero else 1
    rows = orbit_coords(sys, np.asarray(coords, float), n)
    tans = _row_tangents(sys.tangent, rows)
    log_e = np.empty((rows.shape[1], n + 1 - start), float)
    # the pull yields E at rows n..start, so column j - start fills backwards
    rev = tans[::-1]
    imgs = map(np.matmul, rev, sys.splitting._bundle("e", rows, rev))
    _image_logs(log_e[:, ::-1], imgs, rows.shape[1:] + (sys.dim_e,), "max")
    return log_e, _log_f_inv(sys, rows, tans)[:, start:]


def time_logs(sys, rows, tans=None, lead=None):
    """The F logs that hyperbolic times and Lambda membership read, from
    (n+1, N, d) orbit rows: (N, n), column j - 1 holding
    -log mininorm(Df restricted to F at f^j(x)) for j = 1..n.  So a time n
    covers Df at f^(n-k+1)..f^n, one step after the backward contraction
    at f^n, which uses f^(n-k)..f^(n-1).  tans, lead: as in _log_f_inv;
    without tans, one block of Df is held at a time."""
    return _log_f_inv(sys, rows, tans, lead)[:, 1:]


def _log_f_inv(sys, rows, tans=None, lead=None):
    """-log mininorm(Df|F) at (n+1, N, d) orbit rows as (N, n+1), column j at
    row j: the norm (or, for dim F >= 2, the smallest singular value) of the
    push's own product at row j, reduced by _image_logs.  tans and
    lead: the row tangents and the (N, d, dim_f) F at rows[0] if held.
    Without tans, Df streams one block of rows at a time, after the lead,
    so the logs hold one block of Df and one of images, not the orbit's."""
    push = sys.f_frame is None
    if lead is None:
        lead = sys.splitting._lead("f", rows[0]) if push else sys.f_frame
    tans = (_streamed_tangents(sys.tangent, rows) if tans is None
            else iter(tans))
    # product j's QR is F at row j + 1, formed when that row is asked for:
    # the last row's product takes none, and a declared F none at all
    step = (lambda img, t: t @ _batch_qr(img)) if push else (
        lambda img, t: t @ lead)
    imgs = accumulate(tans, step, initial=next(tans) @ lead)
    log_f_inv = _image_logs(np.empty((rows.shape[1], len(rows)), float),
                            imgs, rows.shape[1:] + (sys.dim_f,), "min")
    return np.negative(log_f_inv, out=log_f_inv)


def _point_stretches(sys, pts):
    """||Df|E||, mininorm(Df|F) and the F frames at the (N, d) points pts,
    from one Df call that also feeds the pull's last step."""
    t = sys.tangent(pts)
    e, f = (next(sys.splitting._bundle(w, pts[None], [t])) for w in "ef")
    return restricted_stretch(t, e, "max"), restricted_stretch(t, f, "min"), f
