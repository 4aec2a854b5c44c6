"""Embedded disks: construction, iteration, carving, contraction,
distortion, and curvature control."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import block_diag

import srblab
from srblab import cones, disks
from srblab.errors import (CarvingFailed, ChartOverflow, ConstantsInvalid,
                           DimensionMismatch, HypothesisViolated,
                           ResolutionExhausted)
from srblab.linalg import Subspace
from srblab.models import MODEL_INFO, measure_constants_h, region_sample
from srblab.pliss import hyperbolic_times
from srblab.systems import _row_tangents, cocycle_logs, orbit_coords

from . import oracles
from .conftest import LAM_U, V_S, V_U

X = np.array([0.2, 0.7])
R = 0.02


def flat_disk(sys, resolution=401):
    return disks.make_disk(sys, X, V_U, R, resolution=resolution)


class TestMakeDisk:
    def test_basic_fields(self, cat):
        d = flat_disk(cat, resolution=101)
        assert d.dim == 1
        assert d.params.shape == (101, 1)
        assert np.array_equal(d.edges, np.stack([np.arange(100),
                                                 np.arange(1, 101)], axis=1))
        assert d.center_index == 50
        assert np.array_equal(d.center, X)
        assert d.disp.shape == (101, 2)
        assert np.allclose(d.disp[d.center_index], 0.0)
        assert d.radius == R
        # flat: every tangent equals the spanning direction
        assert np.allclose(d.tangents, V_U[:, None])

    def test_intrinsic_radius_matches(self, cat):
        d = flat_disk(cat, resolution=101)
        assert np.isclose(d.intrinsic_radius(), R, rtol=1e-12)

    def test_radius_validation(self, cat):
        with pytest.raises(ValueError):
            disks.make_disk(cat, X, V_U, 0.0)
        with pytest.raises(ValueError):
            disks.make_disk(cat, X, V_U, -0.1)

    def test_resolution_validation(self, cat):
        for res in (2, 100, 1):
            with pytest.raises(ValueError):
                disks.make_disk(cat, X, V_U, R, resolution=res)

    def test_periodic_overflow(self, cat):
        # diameter must stay under half the period
        with pytest.raises(ChartOverflow):
            disks.make_disk(cat, X, V_U, 0.25)

    def test_box_overflow(self, sol):
        up = Subspace(np.array([[0.0], [1.0], [0.0]]))
        with pytest.raises(ChartOverflow):
            disks.make_disk(sol, np.array([0.1, 1.55, 0.0]), up, 0.1)

    def test_dimension_guard(self, cat4):
        with pytest.raises(DimensionMismatch):
            disks.make_disk(cat4, np.zeros(4), Subspace(np.eye(4)[:, :3]), R)

    def test_degenerate_direction_rejected(self, cat):
        with pytest.raises(ValueError):
            disks.make_disk(cat, X, np.zeros(2), R)

    # make_graph_disk runs make_disk's three checks
    def test_graph_disk_radius_validation(self, cat):
        normal = np.array([-V_U[1], V_U[0]])
        for r in (0.0, -0.1):
            with pytest.raises(ValueError, match="radius must be > 0"):
                disks.make_graph_disk(cat, X, V_U, normal, r)

    def test_graph_disk_periodic_overflow(self, cat):
        normal = np.array([-V_U[1], V_U[0]])
        disks.make_graph_disk(cat, X, V_U, normal, 0.24, curvature=0.3)
        for r in (0.25, 0.3):
            with pytest.raises(ChartOverflow, match="half the period"):
                disks.make_graph_disk(cat, X, V_U, normal, r, curvature=0.3)

    def test_graph_disk_box_overflow(self, sol):
        # the flat curve keeps z = 1.55; bent by 0.5 * 20 * 0.1^2 it leaves
        # the box at z = 1.6
        x, base, up = np.array([0.1, 0.0, 1.55]), np.eye(3)[0], np.eye(3)[2]
        disks.make_graph_disk(sol, x, base, up, 0.1)
        with pytest.raises(ChartOverflow, match="box bounds"):
            disks.make_graph_disk(sol, x, base, up, 0.1, curvature=20.0)


class TestIterateDisk:
    def test_cat_stretches_by_unstable_rate(self, cat):
        d = flat_disk(cat, resolution=101)
        d1 = disks.iterate_disk(cat, d, 1)[-1]
        ratio = d1.edge_lengths().sum() / d.edge_lengths().sum()
        assert np.isclose(ratio, LAM_U, rtol=1e-10)
        assert np.allclose(d1.center, cat.forward(X))

    def test_zero_steps_identity(self, cat):
        d = flat_disk(cat, resolution=101)
        trace = disks.iterate_disk(cat, d, 0)
        assert len(trace) == 1 and trace[0] is d
        with pytest.raises(ValueError):
            disks.iterate_disk(cat, d, -1)

    def test_trace_collects_every_stage(self, cat):
        d = flat_disk(cat, resolution=101)
        trace = disks.iterate_disk(cat, d, 3)
        assert len(trace) == 4
        assert trace[0] is d
        assert np.array_equal(trace[-1].disp,
                              disks.iterate_disk(cat, trace[2], 1)[-1].disp)

    def test_resolution_exhausted_on_deep_push(self, cat):
        d = flat_disk(cat, resolution=101)
        with pytest.raises(ResolutionExhausted, match="refine"):
            disks.iterate_disk(cat, d, 10)


class TestTangencyAndHolder:
    def test_flat_disk_tangent_to_f(self, cat):
        rep = disks.tangency_report(flat_disk(cat, 101), cat.splitting)
        assert rep.max_width < 1e-12
        assert rep.max_f_distance < 1e-12

    def test_graph_disk_tilts(self, cat):
        normal = np.array([-V_U[1], V_U[0]])
        g = disks.make_graph_disk(cat, X, V_U, normal, R, curvature=0.3)
        rep = disks.tangency_report(g, cat.splitting)
        assert rep.max_width > 1e-4

    @pytest.mark.parametrize("steps", [0, 3])
    @pytest.mark.parametrize("model", ["cat", "pcat", "sol", "dfa"])
    def test_report_matches_per_sample_loop(self, request, model, steps):
        sys = request.getfixturevalue(model)
        d = disks.iterate_disk(sys, model_disk(sys), steps)[-1]
        rep = disks.tangency_report(d, sys.splitting)
        want = oracles.tangency_report_oracle(d, sys.splitting)
        np.testing.assert_allclose([rep.max_width, rep.max_f_distance], want,
                                   rtol=1e-12, atol=1e-12)

    def test_holder_flat_is_zero(self, cat):
        assert disks.holder_curvature(flat_disk(cat, 101), 0.5) < 1e-12

    def test_holder_grows_with_curvature(self, cat):
        normal = np.array([-V_U[1], V_U[0]])
        gs = [disks.make_graph_disk(cat, X, V_U, normal, R, curvature=c)
              for c in (0.3, 0.6)]
        h1, h2 = (disks.holder_curvature(g, 0.5) for g in gs)
        assert np.isclose(h1, 0.0600019800910650, rtol=1e-9)
        assert h2 > h1


class TestHyperbolicComponent:
    def test_requires_hyperbolic_time(self, cat):
        d = flat_disk(cat)
        with pytest.raises(HypothesisViolated, match="hyperbolic time"):
            disks.hyperbolic_component(cat, d, 3, R, sigma=0.1)

    def test_cat_component_scale(self, cat):
        d = flat_disk(cat)
        carved = disks.hyperbolic_component(cat, d, 10, R, sigma=0.5)
        # one expansion step per iterate: the carved piece spans
        # lam_u^-10 of the original radius
        assert np.isclose(carved.radius, R * LAM_U**-10, rtol=1e-6)
        assert np.allclose(carved.center, d.center)
        assert np.allclose(carved.disp[carved.center_index], 0.0)

    def test_nth_image_has_requested_radius(self, cat):
        d = flat_disk(cat)
        carved = disks.hyperbolic_component(cat, d, 10, R, sigma=0.5)
        img = disks.iterate_disk(cat, carved, 10)[-1]
        assert np.isclose(img.intrinsic_radius(), R, rtol=1e-8)

    def test_deep_time_reachable(self, cat):
        # the component edge sits at scale lam_u^-50 ~ 1e-21; the search
        # must bracket it rather than bottom out at a fixed step count
        d = flat_disk(cat)
        carved = disks.hyperbolic_component(cat, d, 50, R, sigma=0.5)
        assert np.isclose(carved.radius, R * LAM_U**-50, rtol=1e-5)

    def test_perturbed_cat_carves(self, pcat):
        logs = cocycle_logs(pcat, X, 40)
        lam2 = measure_constants_h(pcat, xi=0.5).lambda2
        n = int(hyperbolic_times(logs.f_inv_from_one(), lam2).times[2])
        d = flat_disk(pcat)
        carved = disks.hyperbolic_component(pcat, d, n, R, sigma=lam2)
        assert 0 < carved.radius < R


class TestBackwardContraction:
    def test_cat_exact_violation(self, cat):
        # worst ratio d_{n-k} / (sigma^{k/2} d_n) over k; for the cat the
        # per-step factor lam_u^-1 against sigma^{1/2} peaks at k = 1
        d = flat_disk(cat)
        carved = disks.hyperbolic_component(cat, d, 10, R, sigma=0.5)
        rep = disks.backward_contraction_check(cat, carved, 10, 0.5)
        theory = (1.0 / LAM_U) / np.sqrt(0.5)
        assert np.isclose(rep.max_violation, theory, rtol=1e-9)
        assert rep.per_k.shape == (10,)
        assert np.isclose(rep.per_k[0], rep.max_violation, rtol=1e-12)

    def test_violation_below_one(self, pcat):
        lam2 = measure_constants_h(pcat, xi=0.5).lambda2
        logs = cocycle_logs(pcat, X, 40)
        n = int(hyperbolic_times(logs.f_inv_from_one(), lam2).times[2])
        carved = disks.hyperbolic_component(pcat, flat_disk(pcat), n, R,
                                            sigma=lam2)
        rep = disks.backward_contraction_check(pcat, carved, n, lam2)
        assert rep.max_violation < 1.0


class TestDistortion:
    def test_cat_ratio_exactly_one(self, cat):
        d = flat_disk(cat)
        carved = disks.hyperbolic_component(cat, d, 10, R, sigma=0.5)
        # zero regularity constants make the bound exactly 1
        flat = disks.DistortionConstants(r1=0.0, r2=0.0, a=0.05,
                                         lambda2=0.5, beta=0.5)
        rep = disks.distortion(cat, carved, 3, 10, constants=flat)
        assert rep.ratio == 1.0
        assert rep.bound_k == 1.0
        prof = disks.distortion_profile(cat, carved, 10)
        assert np.all(prof == 1.0)

    def test_measured_constants_bound_ratio(self, pcat):
        lam2 = measure_constants_h(pcat, xi=0.5).lambda2
        dc = disks.measure_distortion_constants(pcat, a=0.05, lambda2=lam2)
        assert dc.r1 > 0 and dc.r2 > 0 and dc.beta == 0.5
        logs = cocycle_logs(pcat, X, 40)
        n = int(hyperbolic_times(logs.f_inv_from_one(), lam2).times[2])
        carved = disks.hyperbolic_component(pcat, flat_disk(pcat), n, R,
                                            sigma=lam2)
        rep = disks.distortion(pcat, carved, 5, n, constants=dc)
        assert np.isfinite(rep.bound_k) and rep.bound_k > 1.0
        assert 1.0 / rep.bound_k <= rep.ratio <= rep.bound_k


class TestCurvature:
    def test_constants_measured(self, pcat):
        ch = measure_constants_h(pcat, xi=0.5)
        cc = disks.curvature_constants(pcat, ch)
        assert cc.l1 > 0
        assert cc.b > 1.0
        assert 0.0 < cc.alpha < 1.0
        assert ch.lambda3 < cc.lambda4 < 1.0

    def test_lambda4_window_enforced(self, cat):
        ch = measure_constants_h(cat, xi=0.5)
        with pytest.raises(ConstantsInvalid):
            disks.curvature_constants(cat, ch, lambda4=1.5)

    def test_recursion_bounds_measured_curvature(self, pcat):
        ch = measure_constants_h(pcat, xi=0.5)
        cc = disks.curvature_constants(pcat, ch)
        logs = cocycle_logs(pcat, X, 40)
        n = int(hyperbolic_times(logs.f_inv_from_one(), ch.lambda2).times[2])
        carved = disks.hyperbolic_component(pcat, flat_disk(pcat), n, R,
                                            sigma=ch.lambda2)
        rep = disks.curvature_recursion(pcat, carved, n, cc)
        assert rep.measured <= rep.bound
        assert rep.bound == min(rep.bound_product, rep.bound_closed)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1")
    def test_solenoid_recursion_bounds_measured_curvature(self, sol):
        # the curvature experiment's default solenoid run: l1 is measured
        # on one fibre, so at n = 6 the bound is 408.8x below the measure
        ch = measure_constants_h(sol)
        cc = disks.curvature_constants(sol, ch)
        x = region_sample(sol, 1, seed=7, burn_in=12)[0]
        e, f = sol.splitting.at(x)
        g = disks.make_graph_disk(sol, x, f.frame[:, 0], e.frame[:, 0], R,
                                  resolution=201, curvature=0.5)
        logs = cocycle_logs(sol, x, 6)
        n = int(hyperbolic_times(logs.f_inv_from_one(), ch.lambda2).times[-1])
        carved = disks.hyperbolic_component(sol, g, n, R, sigma=ch.lambda2)
        rep = disks.curvature_recursion(sol, carved, n, cc, check=False)
        assert rep.measured <= rep.bound

    @staticmethod
    def pcat_l1(eps):
        """perturbed_cat's xi = 1/2 Hoelder constant of Df, and its delta:
        Df(x) - Df(y) = 2 pi eps (cos 2 pi x0 - cos 2 pi y0) e0 e0^T, so it
        is 4 pi eps sup sin(pi delta) / sqrt(delta), reached at x0 + y0 =
        1/2 with y - x = (delta, 0)."""
        delta = np.linspace(1e-4, 0.5, 50_000)
        k = 4 * np.pi * eps * np.sin(np.pi * delta) / np.sqrt(delta)
        return k.max(), delta[np.argmax(k)]

    def test_pcat_l1_closed_form_holds_on_the_map(self, pcat):
        l1, delta = self.pcat_l1(MODEL_INFO["perturbed_cat"]["params"]["eps"])
        assert l1 == pytest.approx(0.18960, abs=5e-6)
        pair = np.array([[0.25 - delta / 2, 0.3], [0.25 + delta / 2, 0.3]])
        t = pcat.tangent(pair)
        on_map = np.linalg.norm(t[1] - t[0], 2) / np.sqrt(
            pcat.chart.distance(pair[0], pair[1]))
        assert on_map == pytest.approx(l1, rel=1e-9)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 17")
    def test_pcat_l1_reaches_its_closed_form(self, pcat):
        # measure_l1 pairs samples too far apart to see the constant: its
        # padded estimate is 0.0519 against 0.18960 (ROADMAP item 21)
        l1, _ = self.pcat_l1(MODEL_INFO["perturbed_cat"]["params"]["eps"])
        assert disks.measure_l1(pcat, 0.5) >= l1

    def test_flat_cat_needs_check_off(self, cat):
        # the cat's flat-disk admission threshold is exactly zero, so the
        # ~1e-15 measured curvature of a sampled straight line fails it
        ch = measure_constants_h(cat, xi=0.5)
        cc = disks.curvature_constants(cat, ch)
        carved = disks.hyperbolic_component(cat, flat_disk(cat), 6, R,
                                            sigma=0.5)
        with pytest.raises(ConstantsInvalid):
            disks.curvature_recursion(cat, carved, 6, cc)
        rep = disks.curvature_recursion(cat, carved, 6, cc, check=False)
        assert rep.measured < 1e-10


class TestTwoDimensional:
    def make(self, cat4, resolution=41):
        f_cols = np.column_stack([
            np.concatenate([V_U, np.zeros(2)]),
            np.concatenate([np.zeros(2), V_U]),
        ])
        x4 = np.array([0.15, 0.3, 0.55, 0.8])
        return disks.make_disk(cat4, x4, Subspace(f_cols), R,
                               resolution=resolution)

    def test_grid_and_fields(self, cat4, cat):
        d = self.make(cat4, resolution=21)
        assert d.dim == 2
        assert d.params.shape[1] == 2
        # every edge joins two grid neighbours, one grid step 2 / 20 apart
        steps = np.abs(d.params[d.edges[:, 1]] - d.params[d.edges[:, 0]])
        assert np.allclose(np.sort(steps, axis=1), [0.0, 0.1])
        assert np.allclose(d.disp[d.center_index], 0.0)
        assert flat_disk(cat).edges.shape == (400, 2)

    def test_iterate_leaves_the_disk_unchanged(self, cat4):
        d = self.make(cat4, resolution=21)
        before = dict(vars(d))
        disp = d.disp.copy()
        trace = disks.iterate_disk(cat4, d, 2)
        assert vars(d).keys() == before.keys()
        assert all(vars(d)[k] is v for k, v in before.items())
        assert np.array_equal(d.disp, disp)
        assert all(vars(dk).keys() == before.keys() for dk in trace)

    def test_iterate_stretches(self, cat4):
        d = self.make(cat4, resolution=21)
        d1 = disks.iterate_disk(cat4, d, 1)[-1]
        assert np.isclose(d1.edge_lengths().max() / d.edge_lengths().max(),
                          LAM_U, rtol=1e-9)

    def test_carve_and_contract(self, cat4):
        d = self.make(cat4, resolution=41)
        carved = disks.hyperbolic_component(cat4, d, 2, R, sigma=0.5)
        assert carved.dim == 2
        assert carved.params.shape[0] >= 9
        rep = disks.backward_contraction_check(cat4, carved, 2, 0.5)
        assert np.isclose(rep.max_violation, (1.0 / LAM_U) / np.sqrt(0.5),
                          rtol=1e-9)

    def test_tangency_matches_per_sample_loop(self, cat4):
        d = self.make(cat4, resolution=21)
        tilted = disks.iterate_disk(cat4, d, 1)[-1]
        tilted.tangents = disks._batch_qr(
            tilted.tangents + 0.01 * np.cos(np.arange(tilted.tangents.size))
            .reshape(tilted.tangents.shape))
        for disk in (d, tilted):
            rep = disks.tangency_report(disk, cat4.splitting)
            want = oracles.tangency_report_oracle(disk, cat4.splitting)
            np.testing.assert_allclose([rep.max_width, rep.max_f_distance],
                                       want, rtol=1e-12, atol=1e-12)
        assert rep.max_width > 1e-3

    def test_dist_from_center_matches_dijkstra(self, cat4, sol):
        d = self.make(cat4)
        # cut one node off from the mesh: no path reaches it
        ij = oracles.grid_indices(d, 41)
        cut = ij[d.center_index] + (5, 0)
        keep = np.abs(ij - cut).sum(axis=1) != 1
        island = dataclasses.replace(
            d, params=d.params[keep], disp=d.disp[keep],
            tangents=d.tangents[keep],
            edges=oracles.restricted_edges_oracle(d.edges,
                                                  np.flatnonzero(keep)),
            center_index=int(np.count_nonzero(keep[:d.center_index])))
        x = region_sample(sol, 1, seed=7, burn_in=12)[0]
        sol_e = disks.make_disk(sol, x, sol.splitting.at(x)[0], R,
                                resolution=21)
        cases = [d, disks.iterate_disk(cat4, d, 2)[-1],
                 disks.hyperbolic_component(cat4, d, 2, R, sigma=0.5),
                 island, sol_e]
        for disk in cases:
            got = disk.dist_from_center()
            assert np.array_equal(got, oracles.dist_from_center_oracle(disk))
        assert np.count_nonzero(np.isinf(island.dist_from_center())) == 1

    def test_holder_curvature_is_for_curves_only(self, cat4):
        with pytest.raises(DimensionMismatch):
            disks.holder_curvature(self.make(cat4, resolution=5), 0.5)

    def test_carve_needs_enough_cells(self, cat4):
        d = self.make(cat4, resolution=21)
        with pytest.raises(CarvingFailed, match="below 3 per axis"):
            disks.hyperbolic_component(cat4, d, 4, R, sigma=0.5)

    @pytest.mark.parametrize("seed,resolution,size", [
        (7, 41, 89), (10, 41, 66), (20, 21, 7)])
    def test_carve_keeps_the_centers_component(self, dfa, seed, resolution,
                                               size):
        # dfa bends a coordinate disk, so its r-close nodes need not form a
        # star around the center: at seed 7, 8 of the component's nodes see
        # an r-far node on their straight ray to the center, and at seeds 10
        # and 20 some nodes with r-close rays lie outside the component
        x = region_sample(dfa, 1, seed=seed, burn_in=12)[0]
        d = disks.make_disk(dfa, x, np.eye(2), R, resolution=resolution)
        want = oracles.carve_2d_oracle(dfa, d, 3, R)
        assert len(want) == size
        if size < 9:
            with pytest.raises(CarvingFailed, match="below 3 per axis"):
                disks.hyperbolic_component(dfa, d, 3, R, sigma=0.9)
            return
        carved = disks.hyperbolic_component(dfa, d, 3, R, sigma=0.9)
        assert np.array_equal(carved.params, d.params[want])
        # the carve restricts its parent's mesh to the component
        assert np.array_equal(carved.edges,
                              oracles.restricted_edges_oracle(d.edges, want))

    @pytest.mark.parametrize("resolution,size,at_r", [
        (21, 83, [54, 262]), (41, 329, [196, 1060])])
    def test_carve_keeps_the_nodes_at_r(self, dfa, resolution, size, at_r):
        # two nodes sit at exactly r at step 0 and stay r-close after: the
        # ball condition keeps them, where a re-wrapped chart distance from
        # the center read 0.020000000000000018 and dropped them
        x = region_sample(dfa, 1, seed=12, burn_in=5)[0]
        d = disks.make_disk(dfa, x, np.eye(2), R, resolution=resolution)
        assert [np.linalg.norm(d.disp[i]) for i in at_r] == [R, R]
        want = oracles.carve_2d_oracle(dfa, d, 3, R)
        assert len(want) == size
        assert set(at_r) <= set(want)
        carved = disks.hyperbolic_component(dfa, d, 3, R, sigma=0.9)
        assert np.array_equal(carved.params, d.params[want])

    def test_cat4_carve_keeps_the_centers_component(self, cat4):
        d = self.make(cat4, resolution=41)
        carved = disks.hyperbolic_component(cat4, d, 2, R, sigma=0.5)
        want = oracles.carve_2d_oracle(cat4, d, 2, R)
        assert np.array_equal(carved.params, d.params[want])
        assert np.array_equal(carved.edges,
                              oracles.restricted_edges_oracle(d.edges, want))

    def test_carved_disks_are_connected(self, dfa, cat4):
        # dfa seeds whose r-close nodes do not all connect to the center;
        # an unreached node would have no path to step its displacement on
        carves = [(cat4, self.make(cat4), 2, 0.5)]
        for seed, resolution in ((10, 41), (20, 21), (21, 41), (28, 41)):
            x = region_sample(dfa, 1, seed=seed, burn_in=12)[0]
            carves.append((dfa, disks.make_disk(dfa, x, np.eye(2), R,
                                                resolution=resolution), 3, 0.9))
        kept = 0
        for sys, d, n, sigma in carves:
            try:
                carved = disks.hyperbolic_component(sys, d, n, R, sigma=sigma)
            except CarvingFailed:
                continue
            assert np.all(np.isfinite(carved.dist_from_center()))
            kept += 1
        assert kept == 4

    def test_macro_step_is_the_linear_map(self, cat4):
        # a breadth-first path is at most about resolution hops long, so the
        # summed wrapped jumps round like a few products; a depth-first walk
        # through the whole disk errs by 2.0e-12 here
        d = self.make(cat4, resolution=201)
        got = disks.iterate_disk(cat4, d, 1)[-1].disp
        a = np.array([[2.0, 1.0], [1.0, 1.0]])
        want = d.disp @ block_diag(a, a).T
        assert np.max(np.abs(got - want)) <= 2e-13 * np.max(np.abs(want))


MODELS = ["cat", "pcat", "sol", "dfa"]


def model_disk(sys, x=None, resolution=201):
    """A flat F-disk of radius R through x (default: a sampled region point)."""
    x = region_sample(sys, 1, seed=5)[0] if x is None else x
    return disks.make_disk(sys, x, sys.splitting.at(x)[1], R,
                           resolution=resolution)


# dfa's forward rounds this point differently as (d,) and as (1, d)
X_SPLIT = np.array([0.966048156468645, 0.04138220356024824])


def center_orbit(sys, d, n):
    """The edge-search orbit as hyperbolic_component takes it from the rows
    it certifies n on: the center's rows 0..n and Df at rows 0..n-1."""
    rows = orbit_coords(sys, d.center_point()[None], n)
    return rows[:, 0], _row_tangents(sys.tangent, rows)[:-1, 0]


class TestBatchedCarving:
    """The batched edge search and disk stepping against the one-point,
    bisection and per-edge definitions in tests/oracles.py."""

    @pytest.mark.parametrize("model", MODELS)
    def test_pair_distances_rows_match_serial(self, request, model):
        sys = request.getfixturevalue(model)
        d = model_disk(sys)
        rng = np.random.default_rng(11)
        dirs = [d.tangents[d.center_index, :, 0], rng.standard_normal(sys.dim)]
        disps = np.concatenate([np.outer(np.logspace(-14, -3, 12),
                                         v / np.linalg.norm(v)) for v in dirs])
        n = 12
        got = disks._pair_distances(sys, center_orbit(sys, d, n), disps)
        assert got.shape == (len(disps), n + 1)
        # rows start on both sides of the switch, and some cross it
        assert np.any(got[:, 0] < disks.MICRO_SWITCH)
        assert np.any(got[:, 0] > disks.MICRO_SWITCH)
        assert np.any((got[:, 0] < disks.MICRO_SWITCH)
                      & (got[:, -1] > disks.MICRO_SWITCH))
        # the shared center orbit changes no bit of the per-call batches,
        # whole or split at the switch
        micro = got[:, 0] < disks.MICRO_SWITCH
        for rows in (np.ones(len(disps), bool), micro, ~micro):
            want = oracles.pair_distances_per_call_oracle(
                sys, d.center, disps[rows], n)
            assert np.array_equal(got[rows], want)
        for row, disp in zip(got, disps):
            want = oracles.pair_distances_oracle(sys, d.center, disp, n)
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [4, 10, 26])
    def test_trace_steps_the_certified_center_orbit(self, dfa, n):
        # a carve certifies n on orbit_coords' rows; its trace must step the
        # center through those rows, not through (d,) point calls.  dfa's
        # (d,) and (1, d) images differ only on some hosts, so the witness's
        # (d,) path moves every image by one ulp on every host
        def forward(x):
            y = dfa.forward(x)
            return np.nextafter(y, 0.5) if x.ndim == 1 else y

        sys = dataclasses.replace(dfa, forward=forward)
        assert not np.array_equal(sys.forward(X_SPLIT),
                                  sys.forward(X_SPLIT[None])[0])
        d = disks.make_disk(sys, X_SPLIT, sys.splitting.at(X_SPLIT)[1], 1e-12,
                            resolution=201)
        rows = orbit_coords(sys, d.center_point()[None], n)[:, 0]
        centers = np.array([dk.center for dk in disks.iterate_disk(sys, d, n)])
        assert np.array_equal(centers, rows)

    @pytest.mark.parametrize("n", [10, 26])
    @pytest.mark.parametrize("model", MODELS)
    def test_edges_match_bisection(self, request, model, n):
        sys = request.getfixturevalue(model)
        d = model_disk(sys)
        got = disks._component_edges(sys, d, center_orbit(sys, d, n), R)
        for sign, edge in zip((-1, +1), got):
            want = oracles.edge_bisection_oracle(sys, d, n, R, sign)
            assert edge == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [10, 26])
    @pytest.mark.parametrize("model", MODELS)
    def test_edges_match_the_per_ray_search(self, request, model, n):
        # searching both rays at once takes each ray's decisions, so its
        # edges are the one-ray-at-a-time search's, bit for bit
        sys = request.getfixturevalue(model)
        for x in region_sample(sys, 5, seed=11, burn_in=12):
            d = model_disk(sys, x)
            orbit = center_orbit(sys, d, n)
            want = tuple(oracles.edge_search_oracle(sys, d, orbit, R, sign)
                         for sign in (-1, +1))
            assert disks._component_edges(sys, d, orbit, R) == want

    @pytest.mark.parametrize("n", [10, 26])
    @pytest.mark.parametrize("model", MODELS)
    def test_carve_tests_both_rays_per_call(self, request, monkeypatch,
                                            model, n):
        # one ladder batch and nine k-section rounds for both rays, then the
        # resample check: 11 calls where a search per ray made 21, on the
        # same 1 455 rows
        sys = request.getfixturevalue(model)
        rows = []
        pair_distances = disks._pair_distances

        def spy(sys, orbit, disps):
            rows.append(len(disps))
            return pair_distances(sys, orbit, disps)

        monkeypatch.setattr(disks, "_pair_distances", spy)
        disks.hyperbolic_component(sys, model_disk(sys), n, R, sigma=0.9)
        assert len(rows) == 11
        assert sum(rows) == 1455

    def test_edge_search_names_the_ray_with_no_good_rung(self, cat):
        # 26 steps stretch every macro rung out of the ball, and a Df of
        # norm 1e305 throws every micro rung out, down to 2^-997; the two
        # rays fail in the same round, and the - ray reports first
        d = model_disk(cat)
        ctrs, tans = center_orbit(cat, d, 26)
        with np.errstate(all="ignore"), pytest.raises(
                CarvingFailed, match="center on the - ray"):
            disks._component_edges(cat, d, (ctrs, 1e305 * tans), R)

    @pytest.mark.parametrize("model", MODELS)
    def test_advance_1d_bit_identical(self, request, model):
        sys = request.getfixturevalue(model)
        # near the origin the images sit in fine binades, where a negated
        # wrapped jump differs from the reverse jump in the last bit
        xs = [None, np.full(sys.dim, 0.05)] + [X_SPLIT] * (sys.dim == 2)
        for x in xs:
            cur = model_disk(sys, x)
            for _ in range(3):
                nxt = disks.iterate_disk(sys, cur, 1)[-1]
                want = oracles.advance_oracle(sys, cur)
                for field in ("center", "disp", "tangents"):
                    assert np.array_equal(getattr(nxt, field),
                                          getattr(want, field))
                cur = nxt

    def test_2d_advance_and_weights_bit_identical(self, cat4):
        full = TestTwoDimensional().make(cat4, resolution=41)
        carved = disks.hyperbolic_component(cat4, full, 2, R, sigma=0.5)
        for d in (full, carved):
            cur = d
            for _ in range(2):
                nxt = disks.iterate_disk(cat4, cur, 1)[-1]
                want = oracles.advance_oracle(cat4, cur)
                for field in ("center", "disp", "tangents"):
                    assert np.array_equal(getattr(nxt, field),
                                          getattr(want, field))
                assert np.array_equal(nxt.cell_weights(),
                                      oracles.cell_weights_oracle(nxt))
                assert np.array_equal(nxt._boundary_nodes(),
                                      oracles.boundary_nodes_oracle(nxt, 41))
                cur = nxt


class TestMesh:
    """A disk's mesh edges, built with the grid, and the methods that curves
    and 2-D disks read off them."""

    @pytest.mark.parametrize("dim", [1, 2])
    def test_grid_edges_match_the_node_pairs(self, dim):
        for resolution in range(3, 42, 2):
            got = disks._unit_ball_grid(dim, resolution)
            want = oracles.unit_ball_grid_oracle(dim, resolution)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[1].dtype == want[1].dtype
            assert got[2] == want[2]

    @pytest.mark.parametrize("dim, top", [(1, 1001), (2, 201)])
    def test_center_sample_is_exactly_zero(self, cat, dim, top):
        # linspace's middle sample is -1.1e-16 at 99, 197, 207, ...
        direction = np.eye(2)[:, :dim]
        for resolution in range(3, top + 1, 2):
            d = disks.make_disk(cat, np.array([0.2, 0.3]), direction, 0.1,
                                resolution=resolution)
            assert np.all(d.params[d.center_index] == 0.0)
            assert np.all(d.disp[d.center_index] == 0.0)

    @pytest.mark.parametrize("model", MODELS)
    def test_curve_methods_match_sample_order(self, request, model):
        sys = request.getfixturevalue(model)
        x = region_sample(sys, 1, seed=5)[0]
        lf = cocycle_logs(sys, x, 30).f_inv_from_one()
        n = int(next(t for t in hyperbolic_times(lf, 0.5).times if t >= 10))
        d = model_disk(sys, x, resolution=101)
        carved = disks.hyperbolic_component(sys, d, n, R, sigma=0.5)
        cases = [d, disks.iterate_disk(sys, d, 3)[-1], carved,
                 disks.iterate_disk(sys, carved, n)[-1]]
        for disk in cases:
            for name, want in oracles.curve_mesh_oracle(disk).items():
                assert np.array_equal(getattr(disk, name)(), want), name


def _point_calls(sys, points):
    """A copy of sys whose forward, inverse and tangent append to points
    every input that is a single (d,) point."""
    def wrap(fn):
        def recorded(c):
            if np.ndim(c) == 1:
                points.append(np.array(c))
            return fn(c)
        return recorded

    return dataclasses.replace(sys, forward=wrap(sys.forward),
                               inverse=wrap(sys.inverse),
                               tangent=wrap(sys.tangent))


class TestRowCalls:
    """srblab calls a map on (N, d) rows only, the center of a disk as a
    one-row batch: a (d,) point rounds differently on dfa."""

    @pytest.mark.parametrize("model", MODELS)
    def test_carve_and_its_checks_map_rows_only(self, request, model):
        sys = request.getfixturevalue(model)
        x = region_sample(sys, 1, seed=5)[0]
        lf = cocycle_logs(sys, x, 30).f_inv_from_one()
        n = int(next(t for t in hyperbolic_times(lf, 0.5).times if t >= 10))
        d = model_disk(sys, x, resolution=101)
        points = []
        rec = _point_calls(sys, points)
        carved = disks.hyperbolic_component(rec, d, n, R, sigma=0.5)
        disks.backward_contraction_check(rec, carved, n, 0.5)
        disks.distortion_profile(rec, carved, n)
        cc = disks.CurvatureConstants(l1=1.0, b=1.0, xi=0.5, alpha=1e-6,
                                      lambda4=0.999)
        disks.curvature_recursion(rec, carved, n, cc, check=False)
        cones.verify_cone_contraction(rec, x, 0.5, 0.5, n)
        assert points == []

    def test_2d_carve_maps_rows_only(self, cat4):
        points = []
        rec = _point_calls(cat4, points)
        d = TestTwoDimensional().make(cat4, resolution=41)
        carved = disks.hyperbolic_component(rec, d, 2, R, sigma=0.5)
        disks.backward_contraction_check(rec, carved, 2, 0.5)
        assert points == []
