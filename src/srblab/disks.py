"""Embedded disks tangent to F and the finite-time geometry run on them.

A disk is a sampled immersion of the parameter unit ball (dim 1 or 2) into a
chart.  Samples are stored anchored: a center point plus per-sample
displacements in the universal cover.  The anchoring matters: carving at a
hyperbolic time n pulls the disk back by factors like lambda^-n, far below
what absolute float64 coordinates can resolve, while displacement arithmetic
keeps full relative precision at any scale.  Below a switch threshold the
iteration propagates displacements through the center's tangent map (the
quadratic remainder is below float resolution exactly when the switch is
active); above it, the map is evaluated directly.

Carving decides its r-ball condition one way: the pair distances of
anchored displacements along the center orbit that certifies the hyperbolic
time (maps take (N, d) rows only).  They find each ray's r-close component
edge in batches (the ladder t = 2^-k brackets it, k-section rounds refine
it), check a curve's resample and pick a 2-D disk's nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (CarvingFailed, ChartOverflow, ConstantsInvalid,
                     DegenerateTangent, DimensionMismatch, HypothesisViolated,
                     ResolutionExhausted)
from .cones import cone_width_of
from .linalg import (_frames, dot_norms, restricted_log_volume,
                     subspace_distance)
from .models import region_sample
from .pliss import hyperbolic_times
from .systems import _batch_qr, _orbit, _tiled, cocycle_logs, time_logs

MICRO_SWITCH = 1e-8


@dataclass
class EmbeddedDisk:
    """A sampled disk: parameters on the unit ball, anchored sample geometry.

    params    : (S, dim) parameter coordinates in the unit ball.
    center    : (d,) wrapped chart coordinates of the center sample.
    disp      : (S, d) displacement of each sample from the center, in the
                universal cover (periodic axes unwrapped along the mesh).
    tangents  : (S, d, dim) orthonormal tangent frames.
    edges     : (E, 2) sample index pairs of the mesh, built with the grid
                (_unit_ball_grid) and restricted by a 2-D carve.
    """

    chart: object
    params: np.ndarray
    center: np.ndarray
    disp: np.ndarray
    tangents: np.ndarray
    center_index: int
    radius: float
    edges: np.ndarray

    @property
    def dim(self):
        return self.params.shape[1]

    @property
    def n_samples(self):
        return self.params.shape[0]

    def points(self):
        """Wrapped chart coordinates of all samples."""
        return self.chart.wrap(self.center + self.disp)

    # ---- intrinsic metric -------------------------------------------
    def edge_lengths(self):
        e = self.edges
        return np.linalg.norm(self.disp[e[:, 1]] - self.disp[e[:, 0]], axis=1)

    def arclengths(self):
        """1-D only: signed arclength coordinate per sample (0 at sample 0)."""
        if self.dim != 1:
            raise DimensionMismatch("arclengths are defined for curves only")
        return np.concatenate([[0.0], np.cumsum(self.edge_lengths())])

    def dist_from_center(self):
        """Intrinsic distance of every sample from the center sample.

        Curves use arclength.  2-D disks use shortest mesh paths: each round
        relaxes the edges out of the nodes whose distance dropped in the
        round before, until none drops (Bellman 1958).  The result is the
        least float path sum, as Dijkstra's; unreachable nodes stay inf.
        """
        if self.dim == 1:
            s = self.arclengths()
            return np.abs(s - s[self.center_index])
        a, b = np.concatenate([self.edges, self.edges[:, ::-1]]).T
        w = np.tile(self.edge_lengths(), 2)
        dist = np.full(self.n_samples, np.inf)
        dist[self.center_index] = 0.0
        out = a == self.center_index
        while np.any(out):
            new = dist.copy()
            np.minimum.at(new, b[out], dist[a[out]] + w[out])
            out = (new < dist)[a]
            dist = new
        return dist

    def intrinsic_radius(self):
        """Smallest intrinsic distance from the center to the disk boundary."""
        return float(np.min(self.dist_from_center()[self._boundary_nodes()]))

    def _boundary_nodes(self):
        """Nodes with fewer than 2 dim mesh edges: a grid neighbour lies
        outside the grid or outside the disk."""
        deg = np.bincount(self.edges.ravel(), minlength=self.n_samples)
        return np.flatnonzero(deg < 2 * self.dim)

    def cell_weights(self):
        """Normalized intrinsic-volume weights per sample (the disk's Lebesgue):
        half a curve node's edges, a 2-D node's squared mean edge."""
        # bincount adds in input order: the interleaved edge ends keep the
        # per-edge accumulation order
        ends = self.edges.ravel()
        acc = np.bincount(ends, np.repeat(self.edge_lengths(), 2),
                          minlength=self.n_samples)
        if self.dim == 1:
            w = acc / 2.0
        else:
            cnt = np.bincount(ends, minlength=self.n_samples)
            w = (acc / np.maximum(cnt, 1)) ** 2
        total = w.sum()
        if total <= 0:
            raise CarvingFailed("disk has no positive intrinsic volume")
        return w / total


def _unit_ball_grid(dim, resolution):
    """(params, edges, center_index) of the grid on the unit ball.

    edges: for a curve the consecutive sample pairs; for a 2-D disk the
    in-ball grid neighbours along j, then along i, each in row-major order
    (cell_weights' sums and _mesh_tree's first-edge parents follow it).
    """
    if resolution < 3 or resolution % 2 == 0:
        raise ValueError("resolution must be an odd integer >= 3")
    t = np.linspace(-1.0, 1.0, resolution)
    # linspace leaves the middle sample at -1.1e-16 for some resolutions
    # (99, 197, ...); the center is exactly 0, as _param_to_disp relies on
    t[resolution // 2] = 0.0
    if dim == 1:
        i = np.arange(resolution)
        return t[:, None], np.stack([i[:-1], i[1:]], axis=1), resolution // 2
    gi, gj = np.meshgrid(t, t, indexing="ij")
    mask = gi ** 2 + gj ** 2 <= 1.0 + 1e-12
    idx = np.full(mask.shape, -1)
    idx[mask] = np.arange(np.count_nonzero(mask))
    pairs = np.concatenate([np.stack([a.ravel(), b.ravel()], axis=1)
                            for a, b in ((idx[:, :-1], idx[:, 1:]),
                                         (idx[:-1], idx[1:]))])
    mid = resolution // 2
    return (np.stack([gi[mask], gj[mask]], axis=1),
            pairs[(pairs >= 0).all(axis=1)], int(idx[mid, mid]))


def _disk(chart, x, radius, grid, disp, tangents):
    """The disk with sample i at x + disp[i] on grid, _unit_ball_grid's
    (params, edges, center_index).  Raises ValueError unless radius > 0, and
    ChartOverflow when the disk cannot sit inside one chart (box bounds
    violated, or diameter at least half a period on a periodic axis)."""
    if radius <= 0:
        raise ValueError("radius must be > 0")
    for j in range(chart.dim):
        if chart.periodic[j] and 2.0 * radius >= chart.widths[j] / 2.0:
            raise ChartOverflow(f"disk diameter {2 * radius} reaches half "
                                f"the period on axis {j}")
    if not np.all(chart.contains(x + disp)):
        raise ChartOverflow("disk leaves the chart's box bounds")
    params, edges, center_index = grid
    return EmbeddedDisk(chart, params, chart.wrap(x), disp, tangents,
                        center_index, float(radius), edges)


def make_disk(sys, x, direction, radius, resolution=101):
    """A flat disk through x spanned by `direction`, sampled on a grid.

    direction: a Subspace, a vector or a (d, k) frame with orthonormal
    columns, k = 1 or 2 (ValueError otherwise).  Raises as _disk does.
    """
    frame = _frames(direction)
    if frame.ndim != 2:
        raise ValueError("frame must be a 2-D array of columns")
    dim = frame.shape[1]
    if dim not in (1, 2):
        raise DimensionMismatch(f"disk dimension must be 1 or 2, got {dim}")
    grid = _unit_ball_grid(dim, resolution)
    params = grid[0]
    return _disk(sys.chart, np.asarray(x, float), radius, grid,
                 radius * params @ frame.T, _tiled(frame, params.shape[:1]))


def _mesh_tree(d, live=None):
    """Parents and hop levels 1, 2, ... of the breadth-first tree from the
    center of a 2-D disk's mesh, over the edges whose two ends are both
    live (every edge when live is None): each node's parent is its first
    mesh edge from the level before.  Nodes not reached keep parent -1."""
    a, b = np.concatenate([d.edges, d.edges[:, ::-1]]).T
    if live is not None:
        both = live[a] & live[b]
        a, b = a[both], b[both]
    parent = np.full(d.n_samples, -1)
    seen = np.zeros(d.n_samples, bool)
    seen[d.center_index] = True
    levels = [np.array([d.center_index])]
    while True:
        out = np.isin(a, levels[-1]) & ~seen[b]
        nodes, first = np.unique(b[out], return_index=True)
        if nodes.size == 0:
            return parent, levels[1:]
        parent[nodes] = a[out][first]
        seen[nodes] = True
        levels.append(nodes)


def _advance(sys, d, tree):
    """One forward step of an anchored disk; returns a new disk.

    tree: _mesh_tree(d) for a 2-D disk (it depends on the mesh only, so one
    tree serves every step of an iteration), None for a curve.
    """
    scale = float(np.max(np.linalg.norm(d.disp, axis=1))) if d.n_samples else 0.0
    new_center = sys.forward(d.center[None])[0]
    if scale < MICRO_SWITCH:
        t = sys.tangent(d.center[None])[0]
        new_disp = d.disp @ t.T
        new_tangents = _batch_qr(t[None, :, :] @ d.tangents)
    else:
        pts = d.points()
        imgs = sys.forward(pts)
        # rebuild cover displacements by accumulating short wrapped jumps
        # outward from the center (wrapping does not commute with negation)
        new_disp = np.empty_like(d.disp)
        ctr = d.center_index
        new_disp[ctr] = d.chart.displacement(new_center, imgs[ctr])
        if d.dim == 1:
            out = d.chart.displacement(imgs[ctr:-1], imgs[ctr + 1:])
            back = d.chart.displacement(imgs[1:ctr + 1], imgs[:ctr])[::-1]
            new_disp[ctr:] = np.cumsum(
                np.concatenate([new_disp[ctr:ctr + 1], out]), axis=0)
            new_disp[ctr::-1] = np.cumsum(
                np.concatenate([new_disp[ctr:ctr + 1], back]), axis=0)
        else:
            parent, levels = tree
            # the root's entry (parent -1) is never read
            jump = d.chart.displacement(imgs[parent], imgs)
            for nodes in levels:
                new_disp[nodes] = new_disp[parent[nodes]] + jump[nodes]
        t = sys.tangent(pts)
        new_tangents = _batch_qr(t @ d.tangents)
    return replace(d, center=d.chart.wrap(new_center), disp=new_disp,
                   tangents=new_tangents)


def iterate_disk(sys, d, steps):
    """The list [d, f(d), ..., f^steps(d)] of a disk's forward images.

    Raises ResolutionExhausted as soon as an edge exceeds the trust ceiling,
    a tenth of the chart diameter; the harness owns any refine-and-retry
    loop.  The input disk is left as it is.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    ceiling = 0.1 * sys.chart.diameter
    tree = _mesh_tree(d) if d.dim == 2 else None
    trace = [d]
    for k in range(1, steps + 1):
        trace.append(_advance(sys, trace[-1], tree))
        gap = float(np.max(trace[-1].edge_lengths()))
        if gap > ceiling:
            raise ResolutionExhausted(k, gap, ceiling)
    return trace


@dataclass(frozen=True)
class TangencyReport:
    max_width: float        # worst ||v_E||/||v_F|| over all tangent vectors
    max_f_distance: float   # worst subspace distance from T_yD to F(y)


def tangency_report(d, splitting):
    """How far the disk's tangents sit from F, measured two ways.

    E and F are queried once for all samples; every tangent column is then
    split along them in one batch.
    """
    pts = d.points()
    e, f = splitting.e_frames(pts), splitting.f_frames(pts)
    dist = subspace_distance(d.tangents, f)
    widths = cone_width_of(np.swapaxes(d.tangents, 1, 2), e[:, None], f[:, None])
    return TangencyReport(max_width=float(np.max(widths)),
                          max_f_distance=float(np.max(dist)))


def _param_to_disp(d, t):
    """Linear interpolation of the displacement field at parameter t (1-D).

    Queries inside the two segments adjacent to the center are anchored at
    the center node (displacement exactly 0), so parameters many orders of
    magnitude below the grid step keep full relative precision instead of
    cancelling against the neighbour node's value.
    """
    t = np.atleast_1d(np.asarray(t, float))
    base = d.params[:, 0]
    out = np.stack([np.interp(t, base, col) for col in d.disp.T], axis=1)
    ci = d.center_index
    lo = base[ci - 1] if ci > 0 else 0.0
    hi = base[ci + 1] if ci + 1 < len(base) else 0.0
    neg = (t < 0) & (t > lo)
    pos = (t > 0) & (t < hi)
    if lo < 0 and np.any(neg):
        out[neg] = np.outer(t[neg] / lo, d.disp[ci - 1])
    if hi > 0 and np.any(pos):
        out[pos] = np.outer(t[pos] / hi, d.disp[ci + 1])
    out[t == 0.0] = 0.0
    return out


def _pair_distances(sys, orbit, disps):
    """(m, n+1) norms ||displacement||_k, k = 0..n, between orbits of
    ctrs[0] + disps[i] and the center orbit (ctrs, tans) = orbit: its
    wrapped rows 0..n, (n+1, d), and Df at rows 0..n-1, (n, d, d).

    Anchored two-point propagation: rows below the micro switch ride the
    center's tangent map (full relative precision at any scale); the other
    rows are mapped directly.
    """
    chart = sys.chart
    ctrs, tans = orbit
    disp = np.array(disps, dtype=float)
    out = np.empty((len(disp), len(ctrs)))
    # stacked matmuls round like one point's t @ disp and norm (a dot), so
    # every row takes the same micro/macro decisions as it would alone
    out[:, 0] = dot_norms(disp)
    for k in range(1, len(ctrs)):
        micro = out[:, k - 1] < MICRO_SWITCH
        if micro.any():
            disp[micro] = (tans[k - 1] @ disp[micro, :, None])[:, :, 0]
        if not micro.all():
            pts = chart.wrap(ctrs[k - 1] + disp[~micro])
            disp[~micro] = chart.displacement(ctrs[k], sys.forward(pts))
        out[:, k] = dot_norms(disp)
    return out


def _ball_condition(sys, orbit, r, disps):
    """Per displacement from the center: does its orbit stay r-close to the
    center orbit at every step 0..n (see _pair_distances)?"""
    return np.all(_pair_distances(sys, orbit, disps) <= r, axis=1)


SECTIONS = 64   # a k-section round tests SECTIONS - 1 interior points
RUNGS = 64      # ladder rungs tested per batch


def _ray_search(sign):
    """The edge search on one parameter ray, as a generator: it yields each
    batch of parameters to test, is sent their ball conditions, and returns
    the outermost parameter whose orbit stays in the r-ball.

    The edge can sit exponentially deep (scale sigma^n of the ray), so the
    ladder t = sign 2^-k, k = 0..997 (down to about 1e-300), is tested
    RUNGS rungs at a time up to the first good rung, which brackets the edge
    within a binade.  A row of _pair_distances takes the decisions it would
    take alone, so where the map is batch-invariant the rungs not tested
    could not have changed it.
    k-section rounds then shrink the bracket until no float lies strictly
    inside it.  Inside one binade the section points are exact floats, so
    where the ball condition is monotone along the ray the edge is the same
    adjacent-float transition that bisection would find.
    """
    ladder = sign * np.ldexp(1.0, -np.arange(998))
    for start in range(0, len(ladder), RUNGS):
        ok = yield ladder[start:start + RUNGS]
        if ok.any():
            break
    else:
        raise CarvingFailed(f"ball condition fails arbitrarily close to the "
                            f"center on the {'+' if sign > 0 else '-'} ray")
    k = start + int(np.argmax(ok))  # rung 0 (the ray's end) brackets itself
    good, bad = ladder[k], ladder[max(k - 1, 0)]
    while True:
        ts = good + (bad - good) * (np.arange(1, SECTIONS) / SECTIONS)
        ts = ts[(ts != good) & (ts != bad)]
        if ts.size == 0:
            return float(good)
        ok = np.concatenate([[True], (yield ts), [False]])
        j = int(np.argmin(ok))      # the first failing point, or bad itself
        good, bad = np.concatenate([[good], ts, [bad]])[j - 1:j + 1]


def _component_edges(sys, d, orbit, r):
    """(t_minus, t_plus): each ray's outermost parameter satisfying the
    full-orbit ball condition along the center orbit (ctrs, tans) = orbit
    (see _pair_distances and _ray_search).

    The two rays' searches run side by side: each round tests every live
    ray's next batch, a ladder batch or a k-section round, in one
    _ball_condition call, and a ray leaves once its bracket holds no float.
    """
    searches = {sign: _ray_search(sign) for sign in (-1.0, 1.0)}
    asks = {sign: next(search) for sign, search in searches.items()}
    edges = {}
    while asks:
        ok = _ball_condition(sys, orbit, r, _param_to_disp(
            d, np.concatenate(list(asks.values()))))
        cuts = np.cumsum([len(ts) for ts in asks.values()])[:-1]
        for sign, part in zip(list(asks), np.split(ok, cuts)):
            try:
                asks[sign] = searches[sign].send(part)
            except StopIteration as done:
                edges[sign] = done.value
                del asks[sign]
    return edges[-1.0], edges[1.0]


def _resample_interval(d, t_minus, t_plus):
    """Sub-disk of a 1-D disk over [t_minus, t_plus], t_minus < 0 < t_plus,
    on d's mesh, center at 0.

    The two sides are resampled separately so that parameter 0 still maps to
    the original center sample.
    """
    half = d.n_samples // 2
    left = np.linspace(t_minus, 0.0, half + 1)
    right = np.linspace(0.0, t_plus, half + 1)
    t_new = np.concatenate([left[:-1], right])
    disp = _param_to_disp(d, t_new)
    tan = _batch_qr(np.stack([np.interp(t_new, d.params[:, 0], col)
                              for col in d.tangents[:, :, 0].T], axis=1)[:, :, None])
    scale = max(abs(t_minus), abs(t_plus))
    params = np.where(t_new[:, None] >= 0, t_new[:, None] / t_plus,
                      t_new[:, None] / -t_minus)
    return replace(d, params=params, center=d.center.copy(), disp=disp,
                   tangents=tan, center_index=half,
                   radius=float(d.radius * scale))


def carve_radius_limit(chart):
    """Largest carving radius whose wrapped distances stay unambiguous: an
    eighth of the chart's shortest period (no limit without periodic axes)."""
    per = [w for w, p in zip(chart.widths, chart.periodic) if p]
    return min(per) / 8.0 if per else np.inf


def hyperbolic_component(sys, d, n, r, sigma):
    """The sub-disk around the center whose whole n-orbit stays r-close and
    whose n-th image has intrinsic radius r.

    Construction: on each of the two parameter rays, find the outermost
    parameter whose anchored two-point orbit satisfies the r-ball condition
    at every step 0..n (the component of a curve under expanding dynamics
    is an interval, so its edge is the first exit along the ray).  Each
    ray's search tests the ladder t = +-2^-k in batches of rungs, then
    refines its bracket by k-section rounds down to adjacent floats; the
    two rays' batches share one pair-distance call per round
    (_component_edges), and each ray keeps the decisions it would take
    alone.  The surviving interval is
    resampled at the original resolution, the ball condition is verified
    at the resampled nodes, and each side is trimmed so the intrinsic
    radius of the n-th image equals r (each side must reach at least 0.95 r
    before the trim).  n is first certified as a sigma-hyperbolic time of
    the center orbit; every r-ball decision reads the pair distances along
    that orbit's rows (_ball_condition), which the trace also steps on.

    1-D disks get the full edge search; 2-D disks are carved at sample
    granularity: the center's connected component, over the mesh, of the
    nodes whose n-orbit stays r-close.
    """
    if r <= 0:
        raise ValueError("r must be > 0")
    limit = carve_radius_limit(d.chart)
    if r > limit:
        raise ValueError(
            f"r = {r} too large for unambiguous wrapped distances "
            f"(limit {limit})")
    rows, tans = _orbit(sys, d.center[None], n)
    rep = hyperbolic_times(time_logs(sys, rows, tans)[0], sigma)
    if n not in rep.times:
        raise HypothesisViolated(
            f"n = {n} is not a sigma = {sigma} hyperbolic time of the center")
    orbit = rows[:, 0], tans[:-1, 0]
    if d.dim == 2:
        return _carve_2d(sys, d, orbit, r)

    t_minus, t_plus = _component_edges(sys, d, orbit, r)

    carved = _resample_interval(d, t_minus, t_plus)
    final = iterate_disk(sys, carved, n)[-1]
    # a NaN distance leaves the ball too
    far = ~(_pair_distances(sys, orbit, carved.disp) <= r)
    if far.any():
        raise CarvingFailed(
            f"resampled component leaves the r-ball at step "
            f"{int(np.argmax(far.any(axis=0)))}: the first-exit interval "
            f"assumption does not hold here")

    # trim each side to intrinsic radius exactly r in the n-th image
    s = final.arclengths()
    s_c = s[final.center_index]
    right = s[final.center_index:] - s_c
    left = s_c - s[: final.center_index + 1][::-1]
    if right[-1] < 0.95 * r or left[-1] < 0.95 * r:
        raise CarvingFailed(
            f"n-th image radius only ({left[-1]:.3g}, {right[-1]:.3g}) < r = {r}; "
            f"initial disk too small or resolution too coarse")
    tp = carved.params[:, 0][final.center_index:]
    tm = carved.params[:, 0][: final.center_index + 1][::-1]
    # past the image's end np.interp clamps to the end parameter +-1
    t_hi = float(np.interp(r, right, tp)) * t_plus
    t_lo = abs(float(np.interp(r, left, tm))) * t_minus
    return _resample_interval(d, t_lo, t_hi)


def _carve_2d(sys, d, orbit, r):
    # the hyperbolic pre-disk: the center's component of the r-close nodes
    keep = _mesh_tree(d, _ball_condition(sys, orbit, r, d.disp))[0] >= 0
    keep[d.center_index] = True
    if keep.sum() < 9:
        raise CarvingFailed(
            f"carved component has {int(keep.sum())} samples, below 3 per axis")
    # the mesh restricted to the kept nodes, relabelled in order
    new = np.cumsum(keep) - 1
    return replace(d, params=d.params[keep], center=d.center.copy(),
                   disp=d.disp[keep], tangents=d.tangents[keep],
                   center_index=int(new[d.center_index]),
                   edges=new[d.edges[keep[d.edges].all(axis=1)]])


@dataclass(frozen=True)
class ContractionReport:
    max_violation: float      # worst d_{n-k} / (sigma^{k/2} d_n)
    per_k: np.ndarray         # worst ratio for each k = 1..n


def backward_contraction_check(sys, d, n, sigma):
    """Check d_{f^{n-k}D}(center, y) <= sigma^{k/2} d_{f^nD}(center, y).

    d should be a carved hyperbolic-time disk; ratios are measured for every
    sample y != center and every 1 <= k <= n on the iterated trace.
    """
    if not (0.0 < sigma < 1.0):
        raise ValueError("sigma must be in (0, 1)")
    arcs = np.stack([dk.dist_from_center() for dk in iterate_disk(sys, d, n)])
    final = arcs[n]
    live = final > 0
    live[d.center_index] = False
    per_k = np.empty(n, float)
    for k in range(1, n + 1):
        ratio = arcs[n - k][live] / (sigma ** (k / 2.0) * final[live])
        per_k[k - 1] = float(np.max(ratio)) if ratio.size else 0.0
    return ContractionReport(max_violation=float(np.max(per_k)), per_k=per_k)


# ---- distortion ------------------------------------------------------

@dataclass(frozen=True)
class DistortionReport:
    ratio: float
    bound_k: float


def distortion_profile(sys, d, n):
    """Volume-distortion ratios of f^n between every sample and the center."""
    # log tangent-volume factors of steps 0..n-1, added in step order
    tot = sum((restricted_log_volume(sys.tangent(dk.points()), dk.tangents)
               for dk in iterate_disk(sys, d, n)[:-1]), np.zeros(d.n_samples))
    ratios = np.exp(tot - tot[d.center_index])
    return ratios


def distortion(sys, d, y_index, n, constants):
    """Distortion of f^n along the disk between sample y_index and the center.

    constants: a DistortionConstants (measured R1/R2 etc); the report carries
    its bound exp(2 R1 a/(1-l2) + R2 l2^{b/2}/(1-l2^{b/2})).
    """
    if not (0 <= y_index < d.n_samples):
        raise ValueError(f"y_index {y_index} out of range")
    ratios = distortion_profile(sys, d, n)
    return DistortionReport(ratio=float(ratios[y_index]),
                            bound_k=constants.bound_k)


@dataclass(frozen=True)
class DistortionConstants:
    """Measured regularity constants feeding the distortion bound."""

    r1: float        # Lipschitz constant of log-volume in the tangent plane
    r2: float        # beta-Hoelder constant of log-volume along F
    a: float         # cone width
    lambda2: float
    beta: float

    @property
    def bound_k(self):
        """K; inf where the Hoelder tail diverges or the exponent overflows."""
        l2 = self.lambda2
        tail = l2 ** (self.beta / 2.0)
        if tail >= 1.0:
            return np.inf
        with np.errstate(over="ignore"):
            return float(np.exp(2.0 * self.r1 * self.a / (1.0 - l2)
                                + self.r2 * tail / (1.0 - tail)))


def _neighbour_holder(sys, pts, vals, exponent, size):
    """Worst size(vals[p] - vals[q]) / d(p, q)^exponent over the samples p, q
    adjacent in x0 order, pairs within 1e-9 skipped; 0.0 if none is left."""
    order = np.argsort(pts[:, 0])
    p, q = order[:-1], order[1:]
    gap = sys.chart.distance(pts[p], pts[q])
    ok = gap > 1e-9
    if not np.any(ok):
        return 0.0
    p, q, gap = p[ok], q[ok], gap[ok]
    return float(np.max(size(vals[p] - vals[q]) / gap ** exponent))


def measure_distortion_constants(sys, a, lambda2, beta=None, seed=3):
    """Estimates of R1 and R2 on 150 region samples, padded by a factor 1.5.

    R1: worst |d log vol(Df | plane)| per unit subspace distance, probed by
    tilting F(x) by small rotations.  R2: worst beta-Hoelder quotient of
    log vol(Df|F) over nearby sample pairs.
    """
    beta = sys.constants.beta if beta is None else float(beta)
    pts = region_sample(sys, 150, seed=seed, burn_in=10)
    t = sys.tangent(pts)
    f = sys.splitting.f_frames(pts)

    base = restricted_log_volume(t, f)
    rng = np.random.default_rng(seed)
    r1 = 0.0
    for h in (0.02, 0.005):
        w = rng.standard_normal(f.shape)
        tilted = _batch_qr(f + h * w)
        dist = subspace_distance(f, tilted)
        val = restricted_log_volume(t, tilted)
        ok = dist > 1e-12
        r1 = max(r1, float(np.max(np.abs(val - base)[ok] / dist[ok])))

    r2 = _neighbour_holder(sys, pts, base, beta, np.abs)
    return DistortionConstants(r1=1.5 * r1, r2=1.5 * r2, a=float(a),
                               lambda2=float(lambda2), beta=beta)


# ---- curvature -------------------------------------------------------

def holder_curvature(d, xi):
    """Worst ||L_x(y)|| / d_D(x,y)^xi over sample pairs of a curve within
    intrinsic distance delta0 = 0.1 * chart diameter.

    L_x(y) is the linear map carrying T_xD onto T_yD as a graph over T_xD
    into its orthogonal complement.  Raises DimensionMismatch for 2-D disks
    and DegenerateTangent when a pair's tangents are more than 45 degrees
    apart (the graph leaves the width-1 cone and the representation breaks
    down).
    """
    if not (0.0 < xi <= 1.0):
        raise ValueError("xi must be in (0, 1]")
    if d.dim != 1:
        raise DimensionMismatch("holder_curvature is defined for curves only")
    delta0 = 0.1 * d.chart.diameter
    s = d.arclengths()
    dist = np.abs(s[:, None] - s[None, :])
    sel = (dist > 0) & (dist <= delta0)
    if not np.any(sel):
        return 0.0
    tmat = d.tangents[:, :, 0]
    g = tmat @ tmat.T
    # perpendicular part of t_j relative to t_i, as explicit vectors: the
    # difference arithmetic stays exact for near-parallel tangents, where
    # 1 - g^2 would square away all precision
    diff = tmat[None, :, :] - g[:, :, None] * tmat[:, None, :]
    perp = np.linalg.norm(diff, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = perp / np.abs(g)
    if np.any(sel & (ratio > 1.0 + 1e-12)):
        raise DegenerateTangent(
            "tangent pair further than 45 degrees apart within delta0")
    return float(np.max(ratio[sel] / dist[sel] ** xi))


@dataclass(frozen=True)
class CurvatureConstants:
    """Inputs of the curvature recursion bound."""

    l1: float       # xi-Hoelder constant of the tangent map
    b: float        # infimum of mininorm(Df|F)
    xi: float
    alpha: float    # cone/angle slack, must stay below b/4
    lambda4: float  # contraction slot in (lambda3, 1)

    def __post_init__(self):
        if not (0.0 < self.alpha < self.b / 4.0):
            raise ConstantsInvalid(
                f"alpha = {self.alpha} must lie in (0, b/4) = (0, {self.b / 4.0})")
        if not (0.0 < self.lambda4 < 1.0):
            raise ConstantsInvalid("lambda4 must lie in (0, 1)")

    @property
    def l_term(self):
        return float(2.0 ** (1.0 + self.xi) * self.l1 / self.b ** (1.0 + self.xi))


def measure_l1(sys, xi):
    """xi-Hoelder constant of x -> Df(x) over nearby pairs of 200 region
    samples, padded by a factor 1.5."""
    pts = region_sample(sys, 200, seed=3, burn_in=10)
    return 1.5 * _neighbour_holder(
        sys, pts, sys.tangent(pts), xi,
        lambda v: np.linalg.norm(v, ord=2, axis=(1, 2)))


def curvature_constants(sys, consts_h, alpha=None, lambda4=None):
    """Assemble the curvature recursion constants from a constant chain and
    the measured l1 (measure_l1)."""
    b = consts_h.b
    xi = consts_h.xi
    l1 = measure_l1(sys, xi)
    alpha = b / 8.0 if alpha is None else float(alpha)
    lambda4 = (consts_h.lambda3 + 1.0) / 2.0 if lambda4 is None else float(lambda4)
    if not (consts_h.lambda3 < lambda4 < 1.0):
        raise ConstantsInvalid(
            f"lambda4 = {lambda4} outside (lambda3, 1) = ({consts_h.lambda3}, 1)")
    return CurvatureConstants(l1=float(l1), b=float(b), xi=float(xi),
                              alpha=alpha, lambda4=lambda4)


@dataclass(frozen=True)
class CurvatureReport:
    measured: float
    bound: float            # min of the two forms
    bound_product: float
    bound_closed: float


def curvature_recursion(sys, d, n, consts, check=True):
    """Iterate a disk n steps and compare measured curvature to the recursion.

    The per-step factors c_j = (||Df|E(f^j x)|| + 2 alpha) /
    (mininorm(Df|F(f^j x)) - 2 alpha)^(1+xi) come from the center orbit
    (0-based products).  The bound is the smaller of the unrolled product
    form and the closed form lambda4^n H_0 + L/(1 - lambda4).
    """
    xi = consts.xi
    logs = cocycle_logs(sys, d.center, n - 1)
    norm_e = np.exp(logs.log_e)
    min_f = np.exp(-logs.log_f_inv)
    if np.any(min_f - 2.0 * consts.alpha <= 0.0):
        raise ConstantsInvalid("mininorm(Df|F) - 2 alpha hits zero on the orbit")
    c = (norm_e + 2.0 * consts.alpha) / (min_f - 2.0 * consts.alpha) ** (1.0 + xi)

    for k in range(n):
        tail = np.prod(c[k:])
        if tail > consts.lambda4 ** (n - k) * (1.0 + 1e-9):
            raise ConstantsInvalid(
                f"product of c_j over trailing window [{k}, {n}) is {tail:.4g} "
                f"> lambda4^{n - k} = {consts.lambda4 ** (n - k):.4g}")

    h0 = holder_curvature(d, xi)
    measured = holder_curvature(iterate_disk(sys, d, n)[-1], xi)

    lterm = consts.l_term
    geo = 1.0
    acc = 1.0
    for j in range(n - 1, 0, -1):
        acc *= c[j]
        geo += acc
    bound_product = float(np.prod(c) * h0 + lterm * geo)
    bound_closed = float(consts.lambda4 ** n * h0 + lterm / (1.0 - consts.lambda4))
    bound = min(bound_product, bound_closed)
    if check and measured > bound * 1.05:
        raise ConstantsInvalid(
            f"measured curvature {measured:.4g} exceeds bound {bound:.4g}")
    return CurvatureReport(measured=float(measured), bound=bound,
                           bound_product=bound_product,
                           bound_closed=bound_closed)


def make_graph_disk(sys, x, base_dir, normal_dir, radius, resolution=101,
                    curvature=0.0):
    """A quadratic-graph curve: useful for curvature tests and demos.

    disp(t) = t r u + (t r)^2/2 kappa w, tangent renormalized accordingly.
    Raises ValueError and ChartOverflow where make_disk does.
    """
    coords = np.asarray(x, float)
    u = np.asarray(base_dir, float)
    u = u / np.linalg.norm(u)
    w = np.asarray(normal_dir, float)
    w = w - (w @ u) * u
    w = w / np.linalg.norm(w)
    grid = _unit_ball_grid(1, resolution)
    t = grid[0][:, 0] * radius
    disp = np.outer(t, u) + 0.5 * curvature * np.outer(t ** 2, w)
    tan = u[None, :] + curvature * np.outer(t, w)
    tan = tan / np.linalg.norm(tan, axis=1, keepdims=True)
    return _disk(sys.chart, coords, radius, grid, disp, tan[:, :, None])
