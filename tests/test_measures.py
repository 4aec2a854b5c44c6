"""Empirical measures, pushforwards, weak-star bookkeeping, packings,
and mass capture at hyperbolic times."""

import dataclasses
import math
import types

import numpy as np
import pytest

from srblab import disks, measures
from srblab.models import quasi_uniform, region_sample
from srblab.systems import orbit_coords

from .conftest import V_U
from .oracles import (EmpiricalMeasure, birkhoff_average_loop, disk_measure,
                      greedy_packing_oracle, invariance_defect_oracle,
                      packing_check, pushforward_average, pushforward_measure)

X = np.array([0.2, 0.7])


def unstable_disk(sys, resolution=101):
    return disks.make_disk(sys, X, V_U, 0.02, resolution=resolution)


def model_disk(sys, resolution=101):
    """unstable_disk on the 2-D models, an F-disk through (0.3, 0, 0) on the
    solenoid."""
    if sys.dim == 2:
        return unstable_disk(sys, resolution)
    p = sys.chart.wrap([0.3, 0.0, 0.0])
    _, f = sys.splitting.at(p)
    return disks.make_disk(sys, p, f, 0.02, resolution=resolution)


def is_k2(t):
    return t._harmonic is not None and t._harmonic[1] == 2


class TestObservables:
    def test_torus_set(self, cat):
        obs = measures.default_observables(cat.chart)
        assert len(obs) == 8
        names = {o.name for o in obs}
        assert names == {"cos1_x0", "sin1_x0", "cos2_x0", "sin2_x0",
                         "cos1_x1", "sin1_x1", "cos2_x1", "sin2_x1"}
        assert all(o.bound == 1.0 for o in obs)
        assert all(o.reference_integral == 0.0 for o in obs)

    def test_solenoid_set(self, sol):
        obs = measures.default_observables(sol.chart)
        assert len(obs) == 10
        names = [o.name for o in obs]
        assert "lin_x1" in names and "quad_x2" in names

    def test_characters_annihilate_lebesgue(self, cat):
        # Riemann sum of each character over the full torus is ~0
        g = np.linspace(0.0, 1.0, 400, endpoint=False)
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
        for o in measures.default_observables(cat.chart):
            assert abs(np.mean(o(pts))) < 1e-12


class TestEmpiricalMeasure:
    def test_disk_measure_normalized(self, cat):
        mu = disk_measure(unstable_disk(cat))
        assert mu.coords.shape == (101, 2)
        assert math.isclose(math.fsum(mu.weights.tolist()), 1.0, rel_tol=1e-12)
        assert mu.total == 1.0
        # trapezoid endpoints carry half a cell
        assert np.isclose(mu.weights[0], mu.weights[1] / 2.0, rtol=1e-12)

    def test_negative_weights_rejected(self, cat):
        with pytest.raises(ValueError, match="nonnegative"):
            EmpiricalMeasure(np.zeros((2, 2)), np.array([-0.5, 1.5]),
                             cat.chart, 1.0)

    def test_total_must_match_weights(self, cat):
        with pytest.raises(ValueError, match="declared total"):
            EmpiricalMeasure(np.zeros((2, 2)), np.array([0.5, 0.3]),
                             cat.chart, 1.0)

    def test_zero_total_rejected(self, cat):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((2, 2)), np.zeros(2),
                             cat.chart, 0.0)


class TestPushforward:
    def test_measure_moves_atoms(self, cat):
        mu = disk_measure(unstable_disk(cat))
        nu = pushforward_measure(cat, mu)
        assert np.allclose(nu.coords, cat.forward(mu.coords))
        assert np.array_equal(nu.weights, mu.weights)

    def test_average_stages(self, cat):
        d = unstable_disk(cat)
        pa = pushforward_average(cat, d, 5)
        assert pa.coords.shape == (5 * 101, 2)
        # each of the 5 stages carries 1/5 of the mass
        assert np.isclose(math.fsum(pa.weights[:101].tolist()), 0.2,
                          rtol=1e-12)

    def test_integrals_agree_with_average(self, cat):
        d = unstable_disk(cat)
        obs = measures.default_observables(cat.chart)
        pa = pushforward_average(cat, d, 5)
        pi = measures.pushforward_integrals(cat, d, 5, obs)
        assert set(pi) == {o.name for o in obs}
        for o in obs:
            assert np.isclose(pa.integrate(o), pi[o.name], atol=1e-14)

    def test_horizon_validated(self, cat):
        with pytest.raises(ValueError):
            measures.pushforward_integrals(
                cat, unstable_disk(cat), 0,
                measures.default_observables(cat.chart))

    @pytest.mark.parametrize("n", sorted({
        1, measures._BLOCK - 1, measures._BLOCK, measures._BLOCK + 1,
        255, 256, 257, 515}))
    def test_step_integrals_across_block_edges(self, cat, pcat, sol, dfa, n):
        for sys in (cat, pcat, sol, dfa):
            d = model_disk(sys, resolution=21)
            obs = measures.default_observables(sys.chart)
            steps = measures.pushforward_step_integrals(sys, d, n, obs)
            assert steps.shape == (len(obs), n)
            rows = orbit_coords(sys, d.points(), n - 1)
            w = d.cell_weights()
            for i in sorted({0, n // 2, n - 1}):
                mu_i = EmpiricalMeasure(rows[i], w, sys.chart,
                                        total=math.fsum(w.tolist()))
                for k, o in enumerate(obs):
                    assert abs(steps[k, i] - mu_i.integrate(o)) <= 1e-15
            # tests that are called match a per-step loop bit for bit; the
            # k = 2 characters built from k = 1 values match it within 1e-15
            for k, o in enumerate(obs):
                want = np.array([np.sum(o(rows[i]) * w, axis=-1)
                                 for i in range(n)])
                if is_k2(o):
                    assert np.max(np.abs(steps[k] - want)) <= 1e-15
                else:
                    assert np.array_equal(steps[k], want), (sys.name, o.name)

    def test_harmonic_without_its_partners_is_called(self, pcat):
        d = unstable_disk(pcat, resolution=21)
        obs = {o.name: o for o in measures.default_observables(pcat.chart)}
        rows = orbit_coords(pcat, d.points(), 39)
        w = d.cell_weights()
        for names in (["cos2_x0", "sin2_x1"],
                      ["cos1_x0", "cos2_x0", "sin2_x0"],
                      ["cos2_x0", "cos1_x0", "sin1_x0"],
                      ["cos1_x1", "sin1_x1", "cos2_x0"]):
            tests = [obs[k] for k in names]
            steps = measures.pushforward_step_integrals(pcat, d, 40, tests)
            want = [[np.sum(t.fn(r) * w, axis=-1) for r in rows]
                    for t in tests]
            assert np.array_equal(steps, np.array(want)), names

    def test_default_harmonics_are_built_not_called(self, pcat):
        called = set()

        def counted(o):
            return dataclasses.replace(
                o, fn=lambda c: called.add(o.name) or o.fn(c))

        obs = [counted(o) for o in measures.default_observables(pcat.chart)]
        measures.pushforward_step_integrals(
            pcat, unstable_disk(pcat, resolution=21), 3, obs)
        assert called == {o.name for o in obs if not is_k2(o)}


class TestWeakStar:
    def test_hand_computed_distance(self, cat):
        obs = measures.default_observables(cat.chart)
        a = EmpiricalMeasure(np.array([[0.0, 0.0]]), np.array([1.0]),
                             cat.chart, 1.0).integrals(obs)
        b = EmpiricalMeasure(np.array([[0.25, 0.0]]), np.array([1.0]),
                             cat.chart, 1.0).integrals(obs)
        # cos(2 pi x0): 1 at 0 vs 0 at 1/4 -> distance 1;
        # cos(4 pi x0): 1 vs -1 -> distance 2 is the max
        assert np.isclose(measures.weak_star_distance(a, b, obs), 2.0,
                          atol=1e-12)

    def test_symmetry_and_identity(self, cat):
        obs = measures.default_observables(cat.chart)
        mu = disk_measure(unstable_disk(cat))
        nu = pushforward_measure(cat, mu).integrals(obs)
        mu = mu.integrals(obs)
        assert measures.weak_star_distance(mu, mu, obs) == 0.0
        assert np.isclose(measures.weak_star_distance(mu, nu, obs),
                          measures.weak_star_distance(nu, mu, obs))

    def test_empty_tests_rejected(self, cat):
        mu = disk_measure(unstable_disk(cat)).integrals([])
        with pytest.raises(ValueError):
            measures.weak_star_distance(mu, mu, [])


class TestInvarianceDefect:
    @pytest.mark.parametrize("model", ["cat", "pcat", "sol", "dfa"])
    def test_bound_holds_everywhere(self, model, request):
        sys = request.getfixturevalue(model)
        obs = measures.default_observables(sys.chart)
        d = model_disk(sys)
        rep = measures.invariance_defect(sys, d, 100, obs)
        assert set(rep.per_test) == {o.name for o in obs}
        assert all(b == 2.0 / 100 for b in rep.bound.values())
        assert rep.max_excess < 0.0

    @pytest.mark.parametrize("model", ["cat", "pcat", "sol", "dfa"])
    def test_streamed_matches_materialised_oracle(self, model, request):
        sys = request.getfixturevalue(model)
        obs = measures.default_observables(sys.chart)
        d = model_disk(sys)
        rep = measures.invariance_defect(sys, d, 100, obs)
        want = invariance_defect_oracle(sys, d, 100, obs)
        for o in obs:
            assert abs(rep.per_test[o.name] - want[o.name]) <= 1e-15

    def test_bound_shrinks_with_horizon(self, cat):
        obs = measures.default_observables(cat.chart)
        d = unstable_disk(cat)
        r1 = measures.invariance_defect(cat, d, 100, obs)
        r2 = measures.invariance_defect(cat, d, 1000, obs)
        assert max(r2.per_test.values()) < max(r1.per_test.values())


class TestPacking:
    def test_hand_case(self):
        dist = np.array([[0.0, 1.0, 3.0],
                         [1.0, 0.0, 1.0],
                         [3.0, 1.0, 0.0]])
        sel = measures.select_disjoint_balls(dist, 0.6)
        assert list(sel) == [0, 2]
        ok, msg = packing_check(dist, 0.6, sel)
        assert ok and msg == ""

    def test_check_flags_overlap(self):
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        ok, msg = packing_check(dist, 0.6, [0, 1])
        assert not ok and msg != ""

    def test_matches_oracle_on_random_clouds(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            pts = rng.uniform(size=(rng.integers(2, 25), 2))
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.linalg.norm(diff, axis=2)
            radius = float(rng.uniform(0.02, 0.3))
            sel = measures.select_disjoint_balls(dist, radius)
            assert list(sel) == greedy_packing_oracle(dist, radius)
            assert packing_check(dist, radius, sel)[0]


    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "nan"])
    def test_matches_loop_on_raw_matrices(self, kind):
        rng = np.random.default_rng(12)
        for _ in range(100):
            m = int(rng.integers(1, 40))
            dist = rng.uniform(0.0, 1.0, (m, m))
            if kind == "symmetric":
                dist = np.minimum(dist, dist.T)
            if kind == "nan":
                dist[rng.uniform(size=(m, m)) < 0.2] = np.nan
            radius = float(rng.uniform(0.02, 0.3))
            sel = measures.select_disjoint_balls(dist, radius)
            assert sel.dtype == int
            assert list(sel) == greedy_packing_oracle(dist, radius)


class TestBirkhoff:
    def test_matches_manual_average(self, cat):
        # the orbit-stream kernel on a one-atom measure is the Birkhoff
        # average of that point
        obs = measures.default_observables(cat.chart)[0]
        pts = [X]
        for _ in range(49):
            pts.append(cat.forward(pts[-1]))
        manual = np.mean([obs(p) for p in pts])
        atom = types.SimpleNamespace(points=lambda: X[None],
                                     cell_weights=lambda: np.ones(1))
        got = measures.pushforward_integrals(cat, atom, 50, [obs])
        assert np.isclose(got[obs.name], manual, atol=1e-12)


class TestPhysicalFraction:
    def test_reference_dict_accepted(self, cat):
        obs = measures.default_observables(cat.chart)
        ref = {o.name: 0.0 for o in obs}
        frac = measures.physical_fraction(cat, ref, obs, 2000, 0.05, 100,
                                          seed=1)
        assert frac == 1.0

    def test_measure_reference_gives_interior_fraction(self, cat, pcat, sol):
        # a 50-step disk average as reference puts every fraction strictly
        # between 0 and 1
        for sys in (cat, pcat, sol):
            obs = measures.default_observables(sys.chart)
            pa = pushforward_average(sys, model_disk(sys), 50)
            ref = {o.name: pa.integrate(o) / pa.total for o in obs}
            f = measures.physical_fraction(sys, ref, obs, 200, 0.1, 100,
                                           seed=1)
            assert 0.0 < f < 1.0, (sys.name, f)

    def test_escape_counts_rows_zero_to_n(self, cat):
        # a start counts iff orbit rows 0..n all stay in the region, row n
        # included although the averages stop at row n - 1
        strip = dataclasses.replace(
            cat, region_contains=lambda c: np.asarray(c)[..., 0] < 0.8)
        obs = measures.default_observables(cat.chart)
        ref = {o.name: 0.0 for o in obs}
        n, samples = 3, 150
        pts = quasi_uniform(np.zeros(2), np.ones(2), samples, seed=2,
                            accept=strip.in_region)
        inside = strip.in_region(orbit_coords(strip, pts, n,
                                              check_region=False))
        want = np.mean(np.all(inside, axis=0))
        assert want != np.mean(np.all(inside[:n], axis=0))
        frac = measures.physical_fraction(strip, ref, obs, n, 10.0, samples,
                                          seed=2)
        assert frac == want

    def test_each_start_sums_its_rows_in_step_order(self, cat):
        # tol set exactly at a start's |average - reference| from a per-row
        # loop counts that start, and the float below it does not, so one
        # ulp of drift in a sum flips the fraction; n spans three orbit
        # blocks
        obs = [measures.Observable("xy", lambda c: c[..., 0] * c[..., 1],
                                   bound=1.0)]
        n, samples = 300, 100
        pts = region_sample(cat, samples, seed=4)
        dev = np.abs(birkhoff_average_loop(cat, pts, n, obs[0]) - 0.25)
        for j in np.argsort(dev)[::11]:
            for tol in (dev[j], np.nextafter(dev[j], -np.inf)):
                frac = measures.physical_fraction(cat, {"xy": 0.25}, obs, n,
                                                  tol, samples, seed=4)
                assert frac == np.count_nonzero(dev <= tol) / samples, tol

    def test_sample_floor(self, cat):
        obs = measures.default_observables(cat.chart)
        with pytest.raises(ValueError, match=">= 100"):
            measures.physical_fraction(cat, {o.name: 0.0 for o in obs}, obs,
                                       10, 0.05, 50)


class TestHyperbolicMass:
    def test_cat_capture(self, cat):
        # every cat orbit passes the long-run test at lam = 0.5 > 1/lambda_u
        rep = measures.hyperbolic_mass(cat, unstable_disk(cat), 30, 0.5, 0.05,
                                       lam=0.5, theta=0.5)
        assert 0.0 < rep.eta <= 1.0
        assert np.isclose(rep.lambda_mass, 1.0, rtol=1e-12)
        assert rep.floor == rep.tau * 0.5 * rep.lambda_mass
        assert rep.per_i.shape == (30,)

    def test_validation(self, cat):
        d = unstable_disk(cat)
        with pytest.raises(ValueError):
            measures.hyperbolic_mass(cat, d, 10, 1.5, 0.05, 0.5, 0.5)
        with pytest.raises(ValueError):
            measures.hyperbolic_mass(cat, d, 10, 0.5, -1.0, 0.5, 0.5)

