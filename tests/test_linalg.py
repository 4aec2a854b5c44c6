import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srblab import (DegenerateSplitting, DimensionMismatch, Subspace,
                    oblique_components, subspace_distance, torus_chart)

from srblab.charts import Chart
from srblab.linalg import restricted_log_volume, restricted_stretch

from .conftest import LAM_S, LAM_U, V_S, V_U
from .oracles import displacement_oracle, span, wrap_oracle

CAT = np.array([[2.0, 1.0], [1.0, 1.0]])

# charts whose every axis has period 1
UNIT_TORI = [torus_chart(2), torus_chart(4)]
# integers, half-integers and their float neighbours, signed zeros, a
# negative value that rounds up to the period, and large magnitudes
_HALVES = np.arange(-6, 7) / 2.0
FOLD_CASES = np.concatenate([
    _HALVES, np.nextafter(_HALVES, np.inf), np.nextafter(_HALVES, -np.inf),
    [0.0, -0.0, -1e-300, 1e-300, 1e15, -1e15, 1e15 + 0.5, -1e15 - 0.5]])
# the solenoid's chart: a periodic axis and two box axes
SOLENOID_CHART = Chart("solenoid", (0.0, -1.6, -1.6), (2 * np.pi, 1.6, 1.6),
                       (True, False, False))
COORD = st.floats(-1e15, 1e15, allow_nan=False, allow_infinity=False)


def bits(a):
    """int64 view of a float array: unlike ==, it tells -0.0 from +0.0."""
    return np.ascontiguousarray(a, float).view(np.int64)


def _below_period_boundaries(ch):
    """One ulp below each period boundary lower + k w, k = -3..3, and tiny
    negatives below lower, on the periodic axes (box axes at lower): np.mod's
    fold rounds some of them up to upper."""
    lo, hi = np.array(ch.lower), np.array(ch.upper)
    edges = lo + np.arange(-3, 4)[:, None] * (hi - lo)
    pts = np.concatenate([np.nextafter(edges, -np.inf),
                          lo - np.array([1e-20, 1e-300, 5e-324])[:, None]])
    return np.where(ch.periodic, pts, lo)


class TestSubspace:
    def test_accepts_orthonormal_frame(self):
        s = Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        assert s.frame.shape == (3, 2) and s.dim == 2

    def test_rejects_scaled_frame(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]]))

    def test_span_normalizes_scaled_columns(self):
        s = span(np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]]))
        assert np.allclose(s.frame.T @ s.frame, np.eye(2), atol=1e-14)

    def test_span_orthonormalizes(self):
        s = span(np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]))
        assert s.dim == 2
        assert np.allclose(s.frame.T @ s.frame, np.eye(2), atol=1e-14)

    def test_subspace_rejects_skew_frame(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_mininorm_is_smallest_singular_value(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.normal(size=(4, 4))
            assert restricted_stretch(a @ np.eye(4), "min") == pytest.approx(
                np.linalg.svd(a, compute_uv=False)[-1], rel=1e-12)


class TestRestrictedQuantities:
    def test_cat_eigendirections(self):
        assert restricted_stretch(CAT @ V_U[:, None], "max") == \
            pytest.approx(LAM_U, rel=1e-14)
        assert restricted_stretch(CAT @ V_U[:, None], "min") == \
            pytest.approx(LAM_U, rel=1e-14)
        assert restricted_stretch(CAT @ V_S[:, None], "max") == \
            pytest.approx(LAM_S, rel=1e-13)

    def test_restricted_norms_vs_direct_svd(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=(5, 5))
            q = span(rng.normal(size=(5, 2)))
            sv = np.linalg.svd(a @ q.frame, compute_uv=False)
            assert restricted_stretch(a @ q.frame, "max") == \
                pytest.approx(sv[0], rel=1e-12)
            assert restricted_stretch(a @ q.frame, "min") == \
                pytest.approx(sv[-1], rel=1e-12)
            assert np.exp(restricted_log_volume(a, q.frame)) == \
                pytest.approx(np.prod(sv), rel=1e-10)

    def test_restricted_det_is_volume_ratio(self):
        # unit square spanned by the frame maps to a parallelogram whose
        # area is the restricted volume expansion
        a = np.diag([3.0, 0.5])
        assert np.exp(restricted_log_volume(a, np.eye(2))) == \
            pytest.approx(1.5, rel=1e-14)


class TestSubspaceDistance:
    def test_zero_on_itself(self):
        s = span(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert subspace_distance(s, s) == pytest.approx(0.0, abs=1e-14)

    def test_known_rotation(self):
        th = 0.3
        a = Subspace(np.array([[1.0], [0.0]]))
        b = Subspace(np.array([[np.cos(th)], [np.sin(th)]]))
        assert subspace_distance(a, b) == pytest.approx(np.sin(th), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = span(rng.normal(size=(4, 2)))
            b = span(rng.normal(size=(4, 2)))
            assert subspace_distance(a, b) == pytest.approx(
                subspace_distance(b, a), rel=1e-12)

    def test_orthogonal_complements_are_distance_one(self):
        a = Subspace(np.array([[1.0], [0.0]]))
        b = Subspace(np.array([[0.0], [1.0]]))
        assert subspace_distance(a, b) == pytest.approx(1.0)


class TestObliqueAndGraph:
    def test_components_reconstruct(self):
        rng = np.random.default_rng(13)
        e = Subspace(V_S[:, None])
        f = Subspace(V_U[:, None])
        for _ in range(20):
            v = rng.normal(size=2)
            ve, vf = oblique_components(v, e, f)
            assert np.allclose(ve + vf, v, atol=1e-12)
            assert abs(V_U @ ve) <= 1e-12 * np.linalg.norm(ve) + 1e-12 or \
                np.allclose(np.cross(ve, V_S), 0.0, atol=1e-12)

    def test_stacks_match_frame_by_frame(self):
        rng = np.random.default_rng(21)
        a = np.linalg.qr(rng.normal(size=(6, 3, 2)))[0]
        b = np.linalg.qr(rng.normal(size=(6, 3, 1)))[0]
        dist = subspace_distance(a, b)
        assert dist.shape == (6,)
        assert np.array_equal(dist, [subspace_distance(p, q)
                                     for p, q in zip(a, b)])
        v = rng.normal(size=(6, 3))
        ve, vf = oblique_components(v, a, b)
        for i in range(6):
            we, wf = oblique_components(v[i], Subspace(a[i]), Subspace(b[i]))
            np.testing.assert_allclose(ve[i], we, rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(vf[i], wf, rtol=1e-14, atol=1e-15)

    def test_stack_checks_every_frame(self):
        rng = np.random.default_rng(22)
        a = np.linalg.qr(rng.normal(size=(4, 3, 2)))[0]
        b = np.linalg.qr(rng.normal(size=(4, 3, 1)))[0]
        bad = a.copy()
        bad[2] *= 1.5
        with pytest.raises(ValueError, match="orthonormal"):
            subspace_distance(bad, b)
        with pytest.raises(ValueError, match="orthonormal"):
            oblique_components(np.ones(3), bad, b)
        with pytest.raises(DimensionMismatch):
            subspace_distance(a, np.eye(2))
        with pytest.raises(DimensionMismatch):
            oblique_components(np.ones(3), a[:, :, :1], b)
        flat = b.copy()
        flat[3] = a[3, :, :1]   # F inside E at one sample only
        with pytest.raises(DegenerateSplitting):
            oblique_components(np.ones(3), a, flat)


class TestChart:
    def test_wrap_periodic(self):
        ch = torus_chart(2)
        assert np.allclose(ch.wrap(np.array([1.25, -0.25])), [0.25, 0.75])

    def test_displacement_shortest_way_around(self):
        ch = torus_chart(2)
        d = ch.displacement(np.array([0.9, 0.5]), np.array([0.1, 0.5]))
        assert np.allclose(d, [0.2, 0.0], atol=1e-14)

    def test_distance_symmetric(self):
        ch = torus_chart(2)
        a = np.array([0.95, 0.1])
        b = np.array([0.05, 0.9])
        assert ch.distance(a, b) == pytest.approx(ch.distance(b, a))
        assert ch.distance(a, b) == pytest.approx(np.hypot(0.1, 0.2))

    def test_contains_box_axis(self, sol):
        ch = sol.chart
        inside = np.array([1.0, 0.5, -0.5])
        outside = np.array([1.0, 2.5, 0.0])
        assert ch.contains(inside)
        assert not ch.contains(outside)

    def test_wrap_leaves_box_axes_alone(self, sol):
        ch = sol.chart
        p = np.array([7.0, 1.2, -0.7])
        w = ch.wrap(p)
        assert w[0] == pytest.approx(7.0 % (2 * np.pi))
        assert np.allclose(w[1:], p[1:])

    def test_wrap_and_displacement_equal_per_axis_definition(self, sol):
        # the solenoid chart mixes a periodic axis with two box axes
        ch = sol.chart
        lo, hi = np.array(ch.lower), np.array(ch.upper)
        w = hi - lo
        rng = np.random.default_rng(9)
        pts = np.concatenate([lo + rng.uniform(-2.0, 3.0, (200, 3)) * w,
                              [lo, hi, [lo[0], hi[1], lo[2]],
                               [hi[0], lo[1], hi[2]]]])
        for p in (pts, pts[0], pts.reshape(17, 12, 3)[:, :2]):
            assert np.array_equal(ch.wrap(p), wrap_oracle(ch, p))
        half = np.array([w[0] / 2.0, 0.0, 0.0])
        a = np.concatenate([pts, pts, pts])
        b = np.concatenate([pts[::-1], pts + half, pts - half])
        for x, y in ((a, b), (a[0], b), (a, b[7]), (a[3], b[3])):
            assert np.array_equal(ch.displacement(x, y),
                                  displacement_oracle(ch, x, y))

    @pytest.mark.parametrize("ch", UNIT_TORI, ids=lambda c: c.chart_id)
    def test_unit_torus_fold_is_bit_identical_on_fixed_cases(self, ch):
        assert ch._unit                     # the whole-array path is taken
        pts = np.repeat(FOLD_CASES[:, None], ch.dim, axis=1)
        mixed = np.resize(FOLD_CASES, (len(FOLD_CASES), ch.dim))
        for p in (pts, mixed, pts[3], mixed[1:].reshape(-1, 2, ch.dim)):
            assert np.array_equal(bits(ch.wrap(p)), bits(wrap_oracle(ch, p)))
        a, b = pts[:, None, :], pts[None, :, :]
        assert np.array_equal(bits(ch.displacement(a, b)),
                              bits(displacement_oracle(ch, a, b)))

    @pytest.mark.parametrize("ch", UNIT_TORI, ids=lambda c: c.chart_id)
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(rows=st.lists(st.tuples(*[COORD] * 8), min_size=1, max_size=20))
    def test_unit_torus_fold_is_bit_identical_on_random_floats(self, ch,
                                                               rows):
        xy = np.array(rows)
        x, y = xy[:, :ch.dim], xy[:, 4:4 + ch.dim]
        assert np.array_equal(bits(ch.wrap(x)), bits(wrap_oracle(ch, x)))
        assert np.array_equal(bits(ch.displacement(x, y)),
                              bits(displacement_oracle(ch, x, y)))

    @pytest.mark.parametrize("ch", UNIT_TORI + [SOLENOID_CHART],
                             ids=lambda c: c.chart_id)
    def test_wrap_stays_below_upper_bound(self, ch):
        pts = _below_period_boundaries(ch)
        per = np.array(ch.periodic)
        w = ch.wrap(pts)
        assert np.all((w[:, per] >= np.array(ch.lower)[per])
                      & (w[:, per] < np.array(ch.upper)[per]))
        assert np.array_equal(bits(w), bits(wrap_oracle(ch, pts)))

    @pytest.mark.parametrize("ch", [torus_chart(2), torus_chart(4),
                                    SOLENOID_CHART], ids=lambda c: c.chart_id)
    def test_wrap_is_idempotent_from_lower_zero(self, ch):
        # x - 0 is exact, so a point of the chart folds to itself
        w = ch.wrap(_below_period_boundaries(ch))
        assert np.array_equal(bits(ch.wrap(w)), bits(w))

    @pytest.mark.parametrize("lower, upper, periodic", [
        ((-1.0, 0.0), (2.0, 1.0), (True, True)),     # a period from -1
        ((0.5, 0.0), (1.5, 1.0), (True, False)),     # a period from 0.5
        ((0.0, 0.0), (0.0, 1.0), (True, True)),      # a zero period
        ((0.0, 0.0), (-1.0, 1.0), (True, False)),    # a negative period
        ((0.0, 0.5), (1.0, 0.5), (True, False)),     # an empty box axis
        ((0.0, 0.5), (1.0, -0.5), (True, False)),    # upper below lower
    ])
    def test_chart_refuses_a_period_off_0_and_an_axis_without_width(
            self, lower, upper, periodic):
        with pytest.raises(ValueError):
            Chart("bad", lower, upper, periodic)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(log_period=st.floats(-5.0, 5.0),
           xs=st.lists(COORD, min_size=1, max_size=50))
    def test_wrap_folds_into_the_period_and_is_idempotent(self, log_period,
                                                          xs):
        ch = Chart("circle", (0.0, -1.0), (float(np.exp(log_period)), 1.0),
                   (True, False))
        pts = np.concatenate([np.column_stack([xs, np.zeros(len(xs))]),
                              _below_period_boundaries(ch)])
        w = ch.wrap(pts)
        assert np.all((w[:, 0] >= 0.0) & (w[:, 0] < ch.upper[0]))
        assert np.array_equal(bits(ch.wrap(w)), bits(w))

    def test_wrap_of_a_tiny_negative_angle_is_below_the_period(self, sol):
        assert torus_chart(2).wrap([-1e-20, 0.3])[0] == np.nextafter(1.0, 0.0)
        assert sol.chart == SOLENOID_CHART
        top = sol.chart.wrap([-1e-20, 0.0, 0.0])[0]
        assert top == np.nextafter(2 * np.pi, 0.0)
        assert np.mod(-1e-20, 2 * np.pi) == 2 * np.pi   # what it was clamped from

    def test_equal_charts_compare_and_hash_equal(self, sol):
        ch = sol.chart
        twin = Chart(ch.chart_id, tuple(ch.lower), tuple(ch.upper),
                     tuple(ch.periodic))
        assert twin == ch and hash(twin) == hash(ch)
        assert [f.name for f in dataclasses.fields(Chart)] == [
            "chart_id", "lower", "upper", "periodic"]
