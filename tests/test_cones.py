"""Cone membership, average-domination certificates, and robustness radii."""

import dataclasses

import numpy as np
import pytest

from srblab import cones
from srblab.errors import EmptyRadius, HypothesisViolated
from srblab.models import region_sample
from srblab.systems import DEPTH, POINTS, cocycle_logs

from . import oracles
from .conftest import LAM_U, V_S, V_U

X = np.array([0.2, 0.7])


class TestInCone:
    """Cone membership at X: width ||v_E||/||v_F|| at most the cone's."""

    def width(self, sys, v):
        e, f = sys.splitting.at(X)
        return cones.cone_width_of(v, e, f)

    def test_f_direction_inside(self, cat):
        assert self.width(cat, V_U) <= 0.3

    def test_e_direction_outside(self, cat):
        assert not self.width(cat, V_S) <= 0.3

    def test_near_boundary_both_sides(self, cat):
        # exact equality is one rounding error away from either verdict, so
        # probe strictly inside and strictly outside instead
        assert self.width(cat, 0.299 * V_S + V_U) <= 0.3
        assert not self.width(cat, 0.301 * V_S + V_U) <= 0.3

    def test_width_scales_admission(self, cat):
        v = 0.5 * V_S + V_U
        assert not self.width(cat, v) <= 0.4
        assert self.width(cat, v) <= 0.6


class TestConeWidthOf:
    def test_pure_f_zero(self, cat):
        e, f = cat.splitting.at(X)
        assert cones.cone_width_of(V_U, e, f) < 1e-12

    def test_pure_e_huge(self, cat):
        # the oblique decomposition leaves a ~1 ulp F-component, so the
        # result is finite but astronomically large rather than exactly inf
        e, f = cat.splitting.at(X)
        assert cones.cone_width_of(V_S, e, f) > 1e12

    def test_equal_mix_is_one(self, cat):
        e, f = cat.splitting.at(X)
        assert np.isclose(cones.cone_width_of(V_S + V_U, e, f), 1.0, rtol=1e-12)

    def test_scaling_invariance(self, cat):
        e, f = cat.splitting.at(X)
        w1 = cones.cone_width_of(0.37 * V_S + V_U, e, f)
        w2 = cones.cone_width_of(7.0 * (0.37 * V_S + V_U), e, f)
        assert np.isclose(w1, w2, rtol=1e-12)
        assert np.isclose(w1, 0.37, rtol=1e-12)

    def test_batch_matches_per_vector(self, cat):
        e, f = cat.splitting.at(X)
        vs = np.stack([V_U, V_S, V_S + V_U, 0.37 * V_S + V_U, -2.0 * V_U])
        got = cones.cone_width_of(vs, e, f)
        assert got.shape == (5,)
        assert np.array_equal(got, [cones.cone_width_of(v, e, f) for v in vs])


class TestConeWidthBound:
    def test_formula(self):
        assert cones.cone_width_bound(0.5, 0.2, 0) == 0.5
        assert np.isclose(cones.cone_width_bound(0.5, 0.2, 3), 0.5 * 0.2**3)

    def test_validation(self):
        with pytest.raises(ValueError):
            cones.cone_width_bound(0.0, 0.2, 1)
        with pytest.raises(ValueError):
            cones.cone_width_bound(0.5, 0.0, 1)
        with pytest.raises(ValueError):
            cones.cone_width_bound(0.5, 0.2, -1)


class TestAvgDomination:
    def test_cat_certificate_ratios(self, cat):
        logs = cocycle_logs(cat, X, 12)
        ratios = cones.check_avg_domination(logs, 0.15)
        n = len(ratios)
        expected = LAM_U ** (-2.0 * np.arange(1, n + 1))
        assert np.allclose(ratios, expected, rtol=1e-12)

    def test_gamma_below_rate_fails(self, cat):
        logs = cocycle_logs(cat, X, 12)
        with pytest.raises(HypothesisViolated, match="i = 1"):
            cones.check_avg_domination(logs, 0.14)

    def test_gamma_range_validated(self, cat):
        logs = cocycle_logs(cat, X, 5)
        for g in (0.0, 1.0, 1.2, -0.3):
            with pytest.raises(ValueError):
                cones.check_avg_domination(logs, g)

    def test_rejects_raw_arrays(self):
        with pytest.raises(TypeError):
            cones.check_avg_domination(np.zeros(5), 0.15)

    def test_perturbed_cat_still_dominated(self, pcat):
        logs = cocycle_logs(pcat, X, 60)
        ratios = cones.check_avg_domination(logs, 0.2)
        assert np.all(ratios <= 0.2 ** np.arange(1, len(ratios) + 1) * (1 + 1e-9))


class TestVerifyConeContraction:
    def test_cat_ratios_track_rate(self, cat):
        worst = cones.verify_cone_contraction(cat, X, 0.5, 0.15, 8)
        assert worst.shape == (8,)
        step = LAM_U**-2 / 0.15
        assert np.allclose(worst, step ** np.arange(1, 9), rtol=1e-8)
        assert np.all(worst <= 1.0)
        assert np.all(np.diff(worst) < 0)

    def test_perturbed_cat_within_budget(self, pcat):
        worst = cones.verify_cone_contraction(pcat, X, 0.5, 0.2, 10)
        assert np.all(worst <= 1.0 + 1e-9)

    @pytest.mark.parametrize("model", ["cat", "pcat", "sol", "dfa"])
    def test_matches_per_vector_loop(self, request, model):
        sys = request.getfixturevalue(model)
        x = region_sample(sys, 1, seed=8, burn_in=3)[0]
        worst = cones.verify_cone_contraction(sys, x, 0.5, 0.4, 20, seed=2)
        want = oracles.cone_contraction_oracle(sys, x, 0.5, 0.4, 20, seed=2)
        np.testing.assert_allclose(worst, want, rtol=1e-12, atol=1e-12)


def _tangent_sizes(sys):
    """A copy of sys whose tangent appends each call's point count to the
    list returned with it."""
    sizes = []

    def tangent(c):
        sizes.append(int(np.prod(np.shape(c)[:-1])))
        return sys.tangent(c)

    return dataclasses.replace(sys, tangent=tangent), sizes


class TestRobustnessRadius:
    def test_cat_is_flat_so_radius_is_diameter(self, cat):
        r = cones.domination_robustness_radius(cat, 0.14, 0.16)
        assert r == cat.chart.diameter
        assert np.isclose(r, np.sqrt(2) / 2, rtol=1e-12)

    def test_perturbed_cat_positive_and_smaller(self, pcat):
        r = cones.domination_robustness_radius(pcat, 0.14, 0.16)
        assert 0.0 < r < pcat.chart.diameter
        assert np.isclose(r, 0.11635328138275451, rtol=1e-9)

    def test_wider_slack_never_shrinks_radius(self, pcat):
        narrow = cones.domination_robustness_radius(pcat, 0.145, 0.155)
        wide = cones.domination_robustness_radius(pcat, 0.10, 0.22)
        assert wide >= narrow

    def test_degenerate_slack_rejected(self, pcat):
        with pytest.raises(ValueError):
            cones.domination_robustness_radius(pcat, 0.16, 0.14)
        with pytest.raises(ValueError):
            cones.domination_robustness_radius(pcat, 0.15, 0.15)

    def test_vanishing_slack_raises_empty(self, pcat):
        with pytest.raises(EmptyRadius):
            cones.domination_robustness_radius(pcat, 0.15, 0.15 * (1 + 1e-12))

    @pytest.mark.parametrize("gammas", [(0.14, 0.16), (0.1, 0.5),
                                        (0.01, 0.99)])
    def test_region_grid_matches_full_grid(self, sol, gammas):
        want = oracles.robustness_radius_full_grid_oracle(sol, *gammas)
        assert cones.domination_robustness_radius(sol, *gammas) == want

    def test_evaluates_only_inside_the_region(self, sol):
        ch = sol.chart
        axes = [np.linspace(lo, hi, 24, endpoint=not periodic)
                for lo, hi, periodic in zip(ch.lower, ch.upper, ch.periodic)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        inside = int(np.count_nonzero(sol.in_region(grid.reshape(-1, 3))))
        counted, sizes = _tangent_sizes(sol)
        assert cones.domination_robustness_radius(counted, 0.14, 0.16) == \
            cones.domination_robustness_radius(sol, 0.14, 0.16)
        # Df at the inside points, then the DEPTH steps of the push to F;
        # the solenoid declares E, so nothing is pulled
        assert 0 < inside < 24 ** 3 and sizes == [inside] * (1 + DEPTH)
        # no grid point in the region: nothing to evaluate, nothing to bound
        empty = dataclasses.replace(
            counted, region_contains=lambda c: np.zeros(np.shape(c)[:-1], bool))
        sizes.clear()
        assert cones.domination_robustness_radius(empty, 0.14, 0.16) == \
            ch.diameter
        assert sizes == []

    def test_evaluates_df_once_per_grid_point(self, pcat):
        counted, sizes = _tangent_sizes(pcat)
        assert cones.domination_robustness_radius(counted, 0.14, 0.16) == \
            cones.domination_robustness_radius(pcat, 0.14, 0.16)
        # the torus keeps all 576 grid points.  Df there runs once: it feeds
        # the stretches and the pull's last step.  The pull's DEPTH - 1 and
        # the push's DEPTH seed rows go POINTS // 576 = 7 to a call
        assert POINTS // 576 == 7
        assert sizes == ([576] + [576 * 7] * 5 + [576 * 4]
                         + [576 * 7] * 5 + [576 * 5])
        assert sum(sizes) == 576 * (1 + DEPTH - 1 + DEPTH)
