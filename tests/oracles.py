"""Definitional brute-force checkers used as independent test oracles.

The window-sum checkers evaluate every window directly from the definitions,
with no running-extremum shortcuts, so agreement with the package's O(N)
algorithms is meaningful; they cost O(N^2) per sequence.  The "selection
scans" section is the exception: loop references compared bit for bit.
"""
import dataclasses
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra


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


def membership_oracle(log_f_inv, lam):
    """Prefix-average definition of finite-horizon Lambda membership."""
    v = np.asarray(log_f_inv, float)
    s = np.cumsum(v)
    ns = np.arange(1, len(v) + 1)
    return bool(np.all(s / ns <= np.log(lam)))


# ---- selection scans: the element-by-element running-extremum loops ----
# The package now selects with one vectorised record scan; these keep the
# loop form it replaced, with the same extended-precision prefix arithmetic,
# so the two can be compared bit for bit.

def _prefix_loop(values):
    v = np.asarray(values, dtype=np.longdouble)
    s = np.empty(len(v) + 1, dtype=np.longdouble)
    s[0] = 0.0
    np.cumsum(v, out=s[1:])
    return s


def pliss_times_loop(b, c2):
    """1-based n where T(n) = S(n) - n c2 is a weak running maximum."""
    b = np.asarray(b, float)
    n_len = len(b)
    t = _prefix_loop(b) - c2 * np.arange(n_len + 1, dtype=np.longdouble)
    out = []
    running = t[0]
    for n in range(1, n_len + 1):
        if t[n] >= running:
            out.append(n)
        running = max(running, t[n])
    return np.asarray(out, dtype=int)


def hyperbolic_times_loop(log_f_inv, sigma):
    """1-based n where U(n) = S(n) - n log(sigma) is a weak running minimum."""
    a = np.asarray(log_f_inv, float)
    n_len = len(a)
    u = _prefix_loop(a) - np.longdouble(np.log(sigma)) * np.arange(
        n_len + 1, dtype=np.longdouble)
    times = []
    running_min = u[0]
    for n in range(1, n_len + 1):
        if u[n] <= running_min:
            times.append(n)
        running_min = min(running_min, u[n])
    return np.asarray(times, dtype=int)


def lambda_membership_single(log_f_inv, lam):
    """Prefix averages of one row against log(lam), in extended precision."""
    a = np.asarray(log_f_inv, float)
    n_len = len(a)
    s = _prefix_loop(a)
    ns = np.arange(1, n_len + 1, dtype=np.longdouble)
    return bool(np.all(s[1:] <= np.longdouble(np.log(lam)) * ns))


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


def packing_check(dist, radius, selected):
    """Verify disjointness and 2r-maximality of a packing; returns (ok, why)."""
    dist = np.asarray(dist, float)
    sel = list(selected)
    for a in range(len(sel)):
        for b in range(a + 1, len(sel)):
            if dist[sel[a], sel[b]] <= 2.0 * radius:
                return False, f"balls {sel[a]} and {sel[b]} intersect"
    for i in range(dist.shape[0]):
        if not any(dist[i, j] <= 2.0 * radius for j in sel):
            return False, f"center {i} is 2r-far from every selected ball"
    return True, ""


# ---- measures as atoms: the materialised form the streamed kernels avoid ----

@dataclasses.dataclass
class EmpiricalMeasure:
    """Weighted atoms on a chart; sub-probability totals are allowed."""

    coords: np.ndarray     # (M, dim)
    weights: np.ndarray    # (M,)
    chart: object
    total: float

    def __post_init__(self):
        self.coords = np.asarray(self.coords, float)
        self.weights = np.asarray(self.weights, float)
        if np.any(self.weights < 0):
            raise ValueError("atom weights must be nonnegative")
        s = math.fsum(self.weights.tolist())
        if abs(s - self.total) > 1e-12:
            raise ValueError(
                f"weights sum to {s}, declared total {self.total}")
        if not (0.0 < self.total <= 1.0 + 1e-12):
            raise ValueError(f"total {self.total} outside (0, 1]")

    def integrate(self, obs):
        """Exactly-rounded integral of the observable against the measure."""
        vals = np.asarray(obs(self.coords), float) * self.weights
        return math.fsum(vals.tolist())

    def integrals(self, tests):
        """{test name: normalized integral}, the form measures compares."""
        return {t.name: self.integrate(t) / self.total for t in tests}


def disk_measure(d):
    """The disk's normalized intrinsic volume as a discrete measure."""
    return EmpiricalMeasure(coords=d.points(), weights=d.cell_weights(),
                            chart=d.chart, total=1.0)


def pushforward_average(sys, d, n):
    """mu_n: atoms f^i(y_s) for 0 <= i < n, weights w_s/n, total exactly 1.

    The materialised atom measure that the streamed orbit kernel
    (measures.pushforward_step_integrals / pushforward_integrals) integrates
    against without building it.
    """
    from srblab.systems import orbit_coords

    if n < 1:
        raise ValueError("n must be >= 1")
    w = d.cell_weights()
    rows = orbit_coords(sys, d.points(), n - 1)
    coords = rows.reshape(-1, rows.shape[-1])
    weights = np.tile(w / n, n)
    # the float total of the relabeled weights, declared exactly
    total = math.fsum(weights.tolist())
    return EmpiricalMeasure(coords=coords, weights=weights, chart=sys.chart,
                            total=total)


def birkhoff_average_loop(sys, pts, n, test):
    """Each start's n-step average of test over its orbit rows 0..n-1, the
    rows added to the running sums one at a time in step order."""
    from srblab.systems import orbit_coords

    sums = np.zeros(len(pts))
    for row in orbit_coords(sys, pts, n - 1, check_region=False):
        sums += test(row)
    return sums / n


def pushforward_measure(sys, mu):
    """f_* mu: the same weights on forward-mapped atoms."""
    return EmpiricalMeasure(coords=sys.forward(mu.coords),
                            weights=mu.weights.copy(), chart=mu.chart,
                            total=mu.total)


def invariance_defect_oracle(sys, d, n, tests):
    """|int t d(f_* mu_n) - int t d(mu_n)| per test, from materialised atoms.

    Builds the n x samples atoms of mu_n and their forward images and
    integrates each test over both, straight from the definition.
    """
    mu = pushforward_average(sys, d, n)
    fmu = pushforward_measure(sys, mu)
    return {t.name: abs(fmu.integrate(t) / fmu.total
                        - mu.integrate(t) / mu.total) for t in tests}


def span(vectors):
    """Orthonormalize arbitrary spanning columns into a Subspace."""
    from srblab.linalg import FRAME_TOL, Subspace
    v = np.asarray(vectors, float)
    if v.ndim == 1:
        v = v[:, None]
    q, r = np.linalg.qr(v)
    if not np.all(np.abs(np.diag(r)) > FRAME_TOL):
        raise ValueError("spanning vectors are linearly dependent")
    return Subspace(q)


# ---- charts and disks: the per-axis, per-point and per-edge definitions ----

def wrap_oracle(chart, coords):
    """Fold periodic axes into [lower, upper), one axis at a time: np.mod's
    fold, which rounds a value just below a period boundary up to upper,
    clamped to the largest float below upper."""
    out = np.array(coords, dtype=float)
    lo = np.asarray(chart.lower, float)
    hi = np.asarray(chart.upper, float)
    for j in range(chart.dim):
        if chart.periodic[j]:
            out[..., j] = np.minimum(np.mod(out[..., j] - lo[j], hi[j] - lo[j])
                                     + lo[j], np.nextafter(hi[j], lo[j]))
    return out


def displacement_oracle(chart, a, b):
    """b - a with each periodic axis wrapped into [-w/2, w/2)."""
    d = np.asarray(b, float) - np.asarray(a, float)
    w = np.asarray(chart.upper, float) - np.asarray(chart.lower, float)
    out = np.array(d, copy=True)
    for j in range(chart.dim):
        if chart.periodic[j]:
            out[..., j] = np.mod(d[..., j] + w[j] / 2.0, w[j]) - w[j] / 2.0
    return out


def pair_distances_oracle(sys, center, disp0, n):
    """||displacement||_k, k = 0..n, of one point's orbit from the center's.

    One point at a time: below disks.MICRO_SWITCH the displacement rides the
    center's tangent map, above it both points are mapped directly.  The
    center steps as a one-row batch, as the carve's certified orbit does.
    """
    from srblab.disks import MICRO_SWITCH
    chart = sys.chart
    ctr = chart.wrap(np.asarray(center, float))
    disp = np.asarray(disp0, float).copy()
    out = np.empty(n + 1)
    out[0] = np.linalg.norm(disp)
    for k in range(1, n + 1):
        if np.linalg.norm(disp) < MICRO_SWITCH:
            t = sys.tangent(ctr[None])[0]
            disp = t @ disp
            ctr = chart.wrap(sys.forward(ctr[None])[0])
        else:
            pt = chart.wrap(ctr + disp)
            new_ctr = chart.wrap(sys.forward(ctr[None])[0])
            disp = chart.displacement(new_ctr, sys.forward(pt))
            ctr = new_ctr
        out[k] = np.linalg.norm(disp)
    return out


def pair_distances_per_call_oracle(sys, center, disps, n):
    """(m, n+1) rows of pair_distances_oracle in one batch that maps its own
    center orbit, one row per step, as every carving batch did before the
    orbit was shared."""
    from srblab.disks import MICRO_SWITCH
    from srblab.linalg import dot_norms
    chart = sys.chart
    ctr = chart.wrap(np.asarray(center, float))
    disp = np.array(disps, dtype=float)
    out = np.empty((len(disp), n + 1))
    out[:, 0] = dot_norms(disp)
    for k in range(1, n + 1):
        micro = out[:, k - 1] < MICRO_SWITCH
        new_ctr = chart.wrap(sys.forward(ctr[None])[0])
        if micro.any():
            disp[micro] = (sys.tangent(ctr[None])[0]
                           @ disp[micro, :, None])[:, :, 0]
        if not micro.all():
            pts = chart.wrap(ctr + disp[~micro])
            disp[~micro] = chart.displacement(new_ctr, sys.forward(pts))
        ctr = new_ctr
        out[:, k] = dot_norms(disp)
    return out


def edge_bisection_oracle(sys, d, n, r, sign):
    """Outermost parameter on one ray whose orbit stays r-close, by halving
    t from sign down to 1e-300 and then bisecting the bracket serially."""
    from srblab.disks import _param_to_disp

    def good(t):
        disp = _param_to_disp(d, t)[0]
        return bool(np.all(pair_distances_oracle(sys, d.center, disp, n) <= r))

    t = float(sign)
    if good(t):
        return t
    bad, lo = t, 0.0
    while abs(bad) > 1e-300:
        t = bad / 2.0
        if good(t):
            lo = t
            break
        bad = t
    assert lo != 0.0, "ball condition fails arbitrarily close to the center"
    for _ in range(60):
        mid = 0.5 * (lo + bad)
        if mid == lo or mid == bad:
            break
        if good(mid):
            lo = mid
        else:
            bad = mid
    return lo


def edge_search_oracle(sys, d, orbit, r, sign):
    """Outermost parameter on one ray satisfying the full-orbit ball condition
    along the center orbit (ctrs, tans) = orbit (see _pair_distances).

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
    from srblab.disks import RUNGS, SECTIONS, _ball_condition, _param_to_disp
    from srblab.errors import CarvingFailed
    ladder = sign * np.ldexp(1.0, -np.arange(998))
    for start in range(0, len(ladder), RUNGS):
        ok = _ball_condition(sys, orbit, r,
                             _param_to_disp(d, ladder[start:start + RUNGS]))
        if ok.any():
            break
    else:
        raise CarvingFailed("ball condition fails arbitrarily close to the center")
    k = start + int(np.argmax(ok))  # rung 0 (the ray's end) brackets itself
    good, bad = ladder[k], ladder[max(k - 1, 0)]
    while True:
        ts = good + (bad - good) * (np.arange(1, SECTIONS) / SECTIONS)
        ts = ts[(ts != good) & (ts != bad)]
        if ts.size == 0:
            return float(good)
        ok = np.concatenate([[True], _ball_condition(
            sys, orbit, r, _param_to_disp(d, ts)), [False]])
        j = int(np.argmin(ok))      # the first failing point, or bad itself
        good, bad = np.concatenate([[good], ts, [bad]])[j - 1:j + 1]


def advance_oracle(sys, d):
    """One forward step of an anchored disk in the macro regime, rebuilding
    displacements edge by edge: along the curve outward from the center in
    1-D, breadth-first from the center in 2-D.  The center steps as
    a one-row batch."""
    new_center = sys.forward(d.center[None])[0]
    pts = d.chart.wrap(d.center + d.disp)
    imgs = sys.forward(pts)
    new_disp = np.empty_like(d.disp)
    ctr = d.center_index
    new_disp[ctr] = d.chart.displacement(new_center, imgs[ctr])
    if d.dim == 1:
        for i in range(ctr + 1, d.n_samples):
            new_disp[i] = new_disp[i - 1] + d.chart.displacement(
                imgs[i - 1], imgs[i])
        for i in range(ctr - 1, -1, -1):
            new_disp[i] = new_disp[i + 1] + d.chart.displacement(
                imgs[i + 1], imgs[i])
    else:
        # level by level: each new node hangs off its first edge, in the
        # edge list and then the reversed edge list, from the level before
        pairs = [(i, j) for i, j in d.edges]
        pairs += [(j, i) for i, j in pairs]
        seen = {ctr}
        level = {ctr}
        while level:
            nxt = set()
            for i, j in pairs:
                if i in level and j not in seen and j not in nxt:
                    nxt.add(j)
                    new_disp[j] = new_disp[i] + d.chart.displacement(
                        imgs[i], imgs[j])
            seen |= nxt
            level = nxt
    new_tangents = batch_qr_oracle(sys.tangent(pts) @ d.tangents)
    return dataclasses.replace(d, center=d.chart.wrap(new_center),
                               disp=new_disp, tangents=new_tangents)


def unit_ball_grid_oracle(dim, resolution):
    """The unit ball's grid built node by node: (params, edges, center
    index).  The edges are the in-ball node pairs at Manhattan distance 1
    in grid indices, those along j and then those along i, each in
    row-major order of the first node."""
    t = np.linspace(-1.0, 1.0, resolution)
    if dim == 1:
        nodes = [(i,) for i in range(resolution)]
        steps = [(1,)]
    else:
        nodes = [(i, j) for i in range(resolution) for j in range(resolution)
                 if t[i] ** 2 + t[j] ** 2 <= 1.0 + 1e-12]
        steps = [(0, 1), (1, 0)]
    index = {node: k for k, node in enumerate(nodes)}
    edges = []
    for step in steps:
        for node in nodes:
            nb = tuple(a + b for a, b in zip(node, step))
            if nb in index:
                edges.append((index[node], index[nb]))
    params = np.array([[t[i] for i in node] for node in nodes])
    return params, np.array(edges), index[(resolution // 2,) * dim]


def grid_indices(d, resolution):
    """(S, 2) grid indices of a 2-D disk's samples, read off their params
    on the grid of the given resolution."""
    return np.rint((d.params + 1.0) * ((resolution - 1) / 2.0)).astype(int)


def restricted_edges_oracle(edges, kept):
    """The edges whose two ends are among the sorted node indices kept,
    renumbered over the kept nodes."""
    new = {int(old): k for k, old in enumerate(kept)}
    return np.array([(new[i], new[j]) for i, j in edges.tolist()
                     if i in new and j in new], dtype=int).reshape(-1, 2)


def curve_mesh_oracle(d):
    """A curve's mesh methods by sample order: arclengths from np.diff
    segments, cell weights from two-slice half sums, the intrinsic radius
    at the two end samples, which are the boundary."""
    seg = np.linalg.norm(np.diff(d.disp, axis=0), axis=1)
    w = np.zeros(d.n_samples)
    w[:-1] += seg / 2.0
    w[1:] += seg / 2.0
    s = np.concatenate([[0.0], np.cumsum(seg)])
    dist = np.abs(s - s[d.center_index])
    return {"arclengths": s, "cell_weights": w / w.sum(),
            "intrinsic_radius": float(min(dist[0], dist[-1])),
            "_boundary_nodes": np.array([0, d.n_samples - 1])}


def cell_weights_oracle(d):
    """2-D cell weights: squared mean length of the edges at each node."""
    acc = np.zeros(d.n_samples)
    cnt = np.zeros(d.n_samples)
    for (i, j), length in zip(d.edges, d.edge_lengths()):
        acc[i] += length
        acc[j] += length
        cnt[i] += 1
        cnt[j] += 1
    w = (acc / np.maximum(cnt, 1)) ** 2
    return w / w.sum()


def boundary_nodes_oracle(d, resolution):
    """2-D nodes with a grid neighbour off the grid or outside the disk, on
    the grid of the given resolution that d's params sit on."""
    r = resolution
    ij = grid_indices(d, resolution)
    idx = -np.ones((r, r), dtype=int)
    idx[tuple(ij.T)] = np.arange(d.n_samples)
    out = []
    for k, (i, j) in enumerate(ij):
        nb = [(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)]
        if any(not (0 <= a < r and 0 <= b < r) or idx[a, b] < 0 for a, b in nb):
            out.append(k)
    return np.asarray(out, dtype=int)


def dist_from_center_oracle(d):
    """2-D shortest mesh-path lengths from the center: scipy's Dijkstra on
    the symmetric edge-length graph (inf where no path reaches)."""
    e = d.edges
    w = d.edge_lengths()
    g = coo_matrix((np.concatenate([w, w]),
                    (np.concatenate([e[:, 0], e[:, 1]]),
                     np.concatenate([e[:, 1], e[:, 0]]))),
                   shape=(d.n_samples, d.n_samples))
    return dijkstra(g.tocsr(), indices=d.center_index)


def carve_2d_oracle(sys, d, n, r):
    """The node indices of a 2-D disk that a carve keeps: the center's
    connected component (scipy's labels) of the mesh over the nodes whose
    pair distances from the center orbit, taken one node at a time
    (pair_distances_oracle), stay within r at steps 0..n."""
    close = [np.all(pair_distances_oracle(sys, d.center, disp, n) <= r)
             for disp in d.disp]
    e = np.array([(i, j) for i, j in d.edges if close[i] and close[j]],
                 dtype=int).reshape(-1, 2)
    g = coo_matrix((np.ones(len(e)), (e[:, 0], e[:, 1])),
                   shape=(d.n_samples, d.n_samples))
    _, label = connected_components(g, directed=False)
    return np.flatnonzero(label == label[d.center_index])


def f_batch_oracle(sys, pts, depth):
    """F at (N, d) points: a generic frame pushed forward along the depth
    steps of each backward orbit, deepest preimage first."""
    from srblab.systems import _generic_frames
    back = pts
    trail = [back]
    for _ in range(depth):
        back = sys.inverse(back)
        trail.append(back)
    frames = _generic_frames(pts, sys.dim_f)
    for k in range(depth, 0, -1):
        frames = batch_qr_oracle(sys.tangent(trail[k]) @ frames)
    return frames


def stacked_calls(points, rows):
    """The point counts of the Df calls on rows orbit rows of points points
    each, stacked POINTS // points rows to a call (at least one row)."""
    from srblab.systems import POINTS
    per = max(1, POINTS // points)
    return [points * min(per, rows - i) for i in range(0, rows, per)]


def lead_residual_oracle(sys, which, pts, depth):
    """Per point of the (N, d) pts, the subspace distance between two seed
    frames swept along one lead orbit: pushed through depth steps of each
    backward orbit to F at the point (which "f"), or pulled through depth - 1
    steps of each forward one to E at its image ("e").  The seeds are the
    sweep's own _generic_frames and a second fixed generic frame, stacked
    into one sweep, so both read the same orbit and the same Df."""
    from srblab.linalg import subspace_distance
    from srblab.systems import _generic_frames
    push = which == "f"
    k = sys.dim_f if push else sys.dim_e
    step, n = (sys.inverse, depth) if push else (sys.forward, depth - 1)
    orbit = [pts]
    for _ in range(n):
        orbit.append(step(orbit[-1]))
    # a second seed, fixed and generic: QR of a fixed normal draw
    other = np.linalg.qr(np.random.default_rng(2718281).standard_normal(
        (pts.shape[-1], k)))[0]
    frames = np.stack([_generic_frames(pts, k),
                       np.broadcast_to(other, pts.shape[:-1] + other.shape)])
    sweep = np.matmul if push else np.linalg.solve
    for y in reversed(orbit[1:]):
        frames = batch_qr_oracle(sweep(sys.tangent(y), frames))
    return subspace_distance(frames[0], frames[1])


def splitting_frames_oracle(sys, rows):
    """E- and F-frames along (m+1, N, d) orbit rows, one row at a time.

    A declared bundle is its constant frame at every row.  A converged F is
    seeded by f_batch_oracle at row 0 and pushed forward step by step; a
    converged E is seeded by pulling a generic frame back along a tail of
    sys.depth forward steps past the last row, then pulled back row by row.
    """
    from srblab.systems import _generic_frames
    m = rows.shape[0] - 1
    lead = rows.shape[1:-1]
    d = rows.shape[-1]
    f = np.empty((m + 1,) + lead + (d, sys.dim_f), float)
    e = np.empty((m + 1,) + lead + (d, sys.dim_e), float)
    if sys.f_frame is not None:
        f[...] = sys.f_frame
    else:
        f[0] = f_batch_oracle(sys, rows[0], sys.depth)
        for j in range(m):
            f[j + 1] = batch_qr_oracle(sys.tangent(rows[j]) @ f[j])
    if sys.e_frame is not None:
        e[...] = sys.e_frame
        return e, f
    ext = rows[m]
    tail = []
    for _ in range(sys.depth):
        tail.append(ext)
        ext = sys.forward(ext)
    cur = _generic_frames(rows[m], sys.dim_e)
    for y in reversed(tail):
        cur = batch_qr_oracle(np.linalg.solve(sys.tangent(y), cur))
    e[m] = cur
    for j in range(m - 1, -1, -1):
        e[j] = batch_qr_oracle(
            np.linalg.solve(sys.tangent(rows[j]), e[j + 1]))
    return e, f


def cocycle_logs_oracle(sys, coords, n, include_zero=False):
    """(log_e, log_f_inv) as cocycle_logs_batch returns them, in three passes:
    the orbit rows, their E- and F-frames from splitting_frames_oracle, then
    one sys.tangent(rows[j]) call per row for both logs."""
    from srblab.linalg import restricted_stretch
    from srblab.systems import orbit_coords
    start = 0 if include_zero else 1
    rows = orbit_coords(sys, np.asarray(coords, float), n)
    e, f = splitting_frames_oracle(sys, rows)
    log_e = np.empty((rows.shape[1], n + 1 - start), float)
    log_f_inv = np.empty_like(log_e)
    for j in range(start, n + 1):
        t = sys.tangent(rows[j])
        log_e[:, j - start] = np.log(restricted_stretch(t, e[j], "max"))
        log_f_inv[:, j - start] = -np.log(restricted_stretch(t, f[j], "min"))
    return log_e, log_f_inv


def time_logs_oracle(sys, rows):
    """time_logs at (n+1, N, d) orbit rows with F walked afresh: columns
    1..n of cocycle_logs_oracle's F logs, whose lead is f_batch_oracle's at
    rows[0]."""
    return cocycle_logs_oracle(sys, rows[0], len(rows) - 1)[1]


def tangency_report_oracle(d, splitting):
    """(worst width, worst F-distance) over the disk, sample by sample and
    tangent column by tangent column."""
    from srblab.linalg import Subspace, oblique_components, subspace_distance
    pts = d.points()
    worst_w = 0.0
    worst_dist = 0.0
    for s in range(d.n_samples):
        e, f = splitting.at(pts[s])
        worst_dist = max(worst_dist,
                         subspace_distance(Subspace(d.tangents[s]), f))
        for col in range(d.tangents.shape[2]):
            ve, vf = oblique_components(d.tangents[s][:, col], e, f)
            nf = np.linalg.norm(vf)
            w = np.inf if nf == 0 else np.linalg.norm(ve) / nf
            worst_w = max(worst_w, w)
    return worst_w, worst_dist


def cone_contraction_oracle(sys, x, a, gamma, n, samples=16, seed=5):
    """verify_cone_contraction with one draw, one oblique split and one width
    per boundary vector."""
    from srblab.linalg import Subspace, oblique_components
    from srblab.systems import orbit_coords
    rows = orbit_coords(sys, np.asarray(x, float)[None, :], n)
    e_fr, f_fr = splitting_frames_oracle(sys, rows)
    e0, f0 = Subspace(e_fr[0, 0]), Subspace(f_fr[0, 0])
    rng = np.random.default_rng(seed)
    vecs = []
    for _ in range(samples):
        ce = rng.standard_normal(e0.dim)
        cf = rng.standard_normal(f0.dim)
        vecs.append(a * (e0.frame @ (ce / np.linalg.norm(ce)))
                    + f0.frame @ (cf / np.linalg.norm(cf)))
    vecs = np.stack(vecs)
    worst = np.empty(n, float)
    for i in range(1, n + 1):
        vecs = vecs @ sys.tangent(rows[i - 1, 0]).T
        e_i, f_i = Subspace(e_fr[i, 0]), Subspace(f_fr[i, 0])
        widths = []
        for v in vecs:
            ve, vf = oblique_components(v, e_i, f_i)
            nf = np.linalg.norm(vf)
            widths.append(np.inf if nf == 0 else np.linalg.norm(ve) / nf)
        worst[i - 1] = max(widths) / (gamma ** i * a)
    return worst


# ---- whole-array kernels: the library forms they replaced, bit for bit ----

def batch_qr_oracle(frames):
    """_batch_qr through np.linalg.qr: each Q column flipped where R's
    diagonal entry is negative."""
    q, r = np.linalg.qr(frames)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.where(diag < 0, -1.0, 1.0)[..., None, :]


def dfa_tangent_oracle(x, delta=0.05, rho=0.2):
    """dfa's tangent at (..., 2) points, the deformation's derivative taken
    as one three-operand einsum V T V^T with V = [vs | vu] and
    T = [[1, 0], [du_ds, du_du]] in eigen-coordinates."""
    from srblab.charts import torus_chart
    from srblab.models import CAT_MATRIX, CAT_STABLE, CAT_UNSTABLE, LAMBDA_U
    chart = torus_chart(2)
    nu = 1.0 - (1.0 + delta) / LAMBDA_U
    y = chart.wrap(np.einsum("ij,...j->...i", CAT_MATRIX,
                             np.asarray(x, float)))
    z = chart.displacement(np.zeros_like(y), y)
    s, u = z @ CAT_STABLE, z @ CAT_UNSTABLE
    r2 = (s * s + u * u) / rho ** 2
    inside = r2 < 1.0
    one_m_r2 = np.where(inside, 1.0 - r2, 0.0)
    m = 1.0 - nu * one_m_r2 ** 3
    dm_dr2 = 3.0 * nu * one_m_r2 ** 2
    t = np.zeros(np.shape(s) + (2, 2))
    t[..., 0, 0] = 1.0
    t[..., 1, 0] = np.where(inside, u * dm_dr2 * (2.0 * s / rho ** 2), 0.0)
    t[..., 1, 1] = np.where(inside, m + u * dm_dr2 * (2.0 * u / rho ** 2),
                            1.0)
    v = np.stack([CAT_STABLE, CAT_UNSTABLE], axis=1)
    return np.einsum("ij,...jk,lk->...il", v, t, v) @ CAT_MATRIX


def dfa_squeeze_oracle(delta=0.05, rho=0.2):
    """dfa's forward, inverse and tangent as whole-batch squeezes: the power
    taken on every row (a negative base outside the ball), Newton run on
    every row, and Df as a broadcast V T V^T times CAT_MATRIX."""
    from srblab.charts import torus_chart
    from srblab.models import (CAT_INVERSE, CAT_MATRIX, CAT_STABLE,
                               CAT_UNSTABLE, LAMBDA_U)
    chart = torus_chart(2)
    nu = 1.0 - (1.0 + delta) / LAMBDA_U
    vs, vu = CAT_STABLE, CAT_UNSTABLE

    def eig_coords(y):
        z = chart.displacement(np.zeros_like(y), y)
        return z @ vs, z @ vu

    def deform(y):
        s, u = eig_coords(y)
        r2 = (s * s + u * u) / rho ** 2
        inside = r2 < 1.0
        m = np.where(inside, 1.0 - nu * (1.0 - r2) ** 3, 1.0)
        out = np.asarray(y, float) + np.multiply.outer(u * m - u, vu)
        return chart.wrap(out)

    def deform_tangent(y):
        s, u = eig_coords(y)
        r2 = (s * s + u * u) / rho ** 2
        inside = r2 < 1.0
        one_m_r2 = np.where(inside, 1.0 - r2, 0.0)
        m = 1.0 - nu * one_m_r2 ** 3
        dm_dr2 = 3.0 * nu * one_m_r2 ** 2
        du_ds = np.where(inside, u * dm_dr2 * (2.0 * s / rho ** 2), 0.0)
        du_du = np.where(inside, m + u * dm_dr2 * (2.0 * u / rho ** 2), 1.0)
        cu = vu[:, None]
        return (((cu * du_ds[..., None, None]) * vs
                 + (cu * du_du[..., None, None]) * vu) + np.outer(vs, vs))

    def deform_inverse(y):
        s, uprime = eig_coords(y)
        inside = (s * s + uprime * uprime) / rho ** 2 < 1.0
        bnd = np.sqrt(np.clip(rho ** 2 - s * s, 0.0, None))
        u = np.array(uprime, copy=True)
        for _ in range(60):
            r2 = (s * s + u * u) / rho ** 2
            one_m_r2 = np.clip(1.0 - r2, 0.0, None)
            m = 1.0 - nu * one_m_r2 ** 3
            g = u * m
            gp = m + u * (3.0 * nu * one_m_r2 ** 2) * (2.0 * u / rho ** 2)
            step = np.where(inside, (g - uprime) / gp, 0.0)
            u = np.where(inside, np.clip(u - step, -bnd, bnd), u)
            if np.max(np.abs(step)) < 1e-15:
                break
        out = np.asarray(y, float) + np.multiply.outer(
            np.where(inside, u - uprime, 0.0), vu)
        return chart.wrap(out)

    def forward(x):
        return deform(chart.wrap(np.asarray(x, float) @ CAT_MATRIX.T))

    def inverse(y):
        mid = deform_inverse(np.asarray(y, float))
        return chart.wrap(mid @ CAT_INVERSE.T)

    def tangent(x):
        y = chart.wrap(np.asarray(x, float) @ CAT_MATRIX.T)
        return deform_tangent(y) @ CAT_MATRIX

    return forward, inverse, tangent


def robustness_mesh(chart):
    """domination_robustness_radius's grid: 24 points per axis, a periodic
    axis without its upper end, as a (24, ..., 24, d) mesh."""
    axes = [np.linspace(lo, hi, 24, endpoint=not periodic)
            for lo, hi, periodic in zip(chart.lower, chart.upper,
                                        chart.periodic)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def robustness_radius_full_grid_oracle(sys, gamma1, gamma2):
    """domination_robustness_radius with the frames evaluated at all 24^d
    grid points, the region mask applied only to the differences."""
    from srblab.errors import EmptyRadius
    from srblab.linalg import restricted_stretch
    bound = 0.5 * float(np.log(gamma2 / gamma1))
    chart = sys.chart
    lo = np.asarray(chart.lower, float)
    hi = np.asarray(chart.upper, float)
    mesh = robustness_mesh(chart)
    pts = mesh.reshape(-1, chart.dim)
    t = sys.tangent(pts)
    e, f = sys.splitting.e_frames(pts), sys.splitting.f_frames(pts)
    shape = mesh.shape[:-1]
    mask = sys.in_region(pts).reshape(shape)
    worst_slope = finest_jump = 0.0
    for vals in (np.log(restricted_stretch(t, e, "max")),
                 np.log(restricted_stretch(t, f, "min"))):
        vals = vals.reshape(shape)
        for j in range(chart.dim):
            step = (hi[j] - lo[j]) / (24 if chart.periodic[j] else 23)
            ok = mask & np.roll(mask, -1, axis=j)
            if not chart.periodic[j]:
                np.moveaxis(ok, j, 0)[-1] = False
            diffs = np.abs(np.roll(vals, -1, axis=j) - vals)[ok]
            if diffs.size:
                finest_jump = max(finest_jump, float(np.max(diffs)))
                worst_slope = max(worst_slope, float(np.max(diffs)) / step)
    if finest_jump > bound:
        raise EmptyRadius(f"a single grid step moves a ratio by {finest_jump}")
    if worst_slope == 0.0:
        return chart.diameter
    return float(min(bound / (2.0 * worst_slope), chart.diameter))


# ---- map steps: the forms they replaced, equal within rounding ----

def perturbed_cat_inverse_oracle(eps, y):
    """perturbed_cat's inverse as the fixed point x = A^-1 (y - eps sin(2 pi
    x0) e0), iterated from A^-1 y until a round moves the batch by less than
    1e-15 (at most 80 rounds)."""
    from srblab.charts import torus_chart
    from srblab.models import CAT_INVERSE
    chart = torus_chart(2)
    y = np.asarray(y, float)
    x = chart.wrap(np.einsum("ij,...j->...i", CAT_INVERSE, y))
    for _ in range(80):
        rhs = np.array(y, copy=True)
        rhs[..., 0] -= eps * np.sin(2.0 * np.pi * x[..., 0])
        nxt = chart.wrap(np.einsum("ij,...j->...i", CAT_INVERSE, rhs))
        step = np.max(chart.distance(nxt, x)) if nxt.size else 0.0
        x = nxt
        if step < 1e-15:
            break
    return x


# ---- closed-form cone certificates ----

def _cat_slopes(k):
    """The fixed slopes (expanding, contracting) of [[k, 1], [1, 1]]: the
    roots of m^2 + (k - 1) m - 1 = 0, its eigen-directions (1, m)."""
    root = math.sqrt((k - 1.0) ** 2 + 4.0)
    return (1.0 - k + root) / 2.0, (1.0 - k - root) / 2.0


def perturbed_cat_cones(eps, pad=1e-9):
    """Whole-torus cones of perturbed_cat, whose Df = [[k, 1], [1, 1]] with
    k = 2 + s c, s = 2 pi eps and c = cos(2 pi x0) in [-1, 1].

    Returns (f_cone, e_cone, f_inf, e_sup), each cone a (low, high) pair of
    slopes v1 / v0:
    - f_cone = [m+(2 + s), m+(2 - s)], m+ the expanding root.  Df maps the
      slope m to (1 + m) / (k + m), increasing in m and decreasing in k, so
      the cone is forward-invariant at every point and holds F.
    - e_cone = [m-(2 + s), m-(2 - s)], m- the contracting root.  Df^-1 maps
      m to (k m - 1) / (1 - m), increasing in m and, for m < 0, decreasing
      in k, so the cone is backward-invariant and holds E.
    - f_inf: inf of |Df v| / |v| over v in the F cone and every c; e_sup:
      sup over the E cone.
    Both cones are widened by the relative pad against the rounding of the
    roots, which only weakens the certificate, and the extrema are padded
    by 1e-12 relative against their own rounding.

    The extrema are exact at the box's edges, not read off a grid.  In c:
    |Df (1, m)|^2 = (k + m)^2 + (1 + m)^2 is convex in k, so its sup lies
    at c = -1 or c = 1, and it increases in k where k + m > 0, which holds
    on the F box, so its inf lies at c = -1.  In the slope: for a fixed k,
    |Df v|^2 / |v|^2 = a + b cos 2(theta - theta_max) in v's angle theta,
    so on an arc of slopes its inf lies at an end unless the arc holds the
    least eigen-direction of Df^T Df, and its sup at an end unless the arc
    holds the greatest.  Both are checked before the ends are read.
    """
    s = 2.0 * math.pi * eps
    k_lo, k_hi = 2.0 - s, 2.0 + s

    def widened(lo, hi):
        return lo - pad * abs(lo), hi + pad * abs(hi)

    f_cone = widened(_cat_slopes(k_hi)[0], _cat_slopes(k_lo)[0])
    e_cone = widened(_cat_slopes(k_hi)[1], _cat_slopes(k_lo)[1])

    def eigen_slopes(k):
        # Df^T Df's eigen-directions, least eigenvalue first
        a = np.array([[k, 1.0], [1.0, 1.0]])
        vec = np.linalg.eigh(a.T @ a)[1]
        return vec[1] / vec[0]

    def stretch(k, m):
        return math.sqrt(((k + m) ** 2 + (1.0 + m) ** 2) / (1.0 + m * m))

    if not k_lo + f_cone[0] > 0.0:
        raise ValueError("|Df v| is not monotone in c on the F box")
    for k, (lo, hi), extreme in ((k_lo, f_cone, 0), (k_lo, e_cone, 1),
                                 (k_hi, e_cone, 1)):
        if lo <= eigen_slopes(k)[extreme] <= hi:
            raise ValueError(f"the slope arc [{lo}, {hi}] holds an "
                             f"eigen-direction of Df^T Df at k = {k}")
    f_inf = min(stretch(k_lo, m) for m in f_cone)
    e_sup = max(stretch(k, m) for k in (k_lo, k_hi) for m in e_cone)
    return f_cone, e_cone, f_inf * (1.0 - 1e-12), e_sup * (1.0 + 1e-12)
