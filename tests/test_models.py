import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from srblab import (ChainInfeasible, ConstructionFailed, build, cocycle_logs,
                    lambda_fraction, linear_torus_system, list_models,
                    measure_constants_h, orbit_coords, quasi_uniform,
                    region_sample, subspace_distance)
from srblab import models
from srblab.models import MODEL_INFO, _halton

from .conftest import LAM_U, LOG_LAM_U, V_S, V_U
from . import oracles
from .oracles import span


def _finite_difference_jacobian(sys, x, h=1e-6):
    d = len(x)
    out = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        out[:, j] = (sys.forward(x + e) - sys.forward(x - e)) / (2 * h)
    return out


class TestRegistry:
    def test_four_models_listed(self):
        text = list_models()
        for name in ("cat", "perturbed_cat", "solenoid", "dfa"):
            assert name + ":" in text

    def test_unknown_model_rejected(self):
        with pytest.raises(ConstructionFailed):
            build("henon")

    def test_bad_parameter_rejected(self):
        with pytest.raises(ConstructionFailed):
            build("perturbed_cat", eps=0.2)
        with pytest.raises(ConstructionFailed):
            build("solenoid", c=0.6, d=0.3)

    def test_unknown_parameter_rejected(self):
        # the misspelt key reaches the builder alongside the default eps
        with pytest.raises(ConstructionFailed, match="epsilon"):
            build("perturbed_cat", epsilon=0.01)


class TestPerturbedCat:
    def test_shear_is_the_sine_of_x0_in_the_first_coordinate(self, cat):
        eps = 0.03
        pcat = build("perturbed_cat", eps=eps)
        pts = region_sample(pcat, 200, seed=4)
        got = pcat.chart.displacement(cat.forward(pts), pcat.forward(pts))
        want = np.stack([eps * np.sin(2.0 * np.pi * pts[:, 0]),
                         np.zeros(len(pts))], axis=1)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        assert np.max(np.abs(got[:, 0])) > 0.9 * eps


class TestMapConsistency:
    @pytest.mark.parametrize("name,params", [
        ("cat", {}), ("perturbed_cat", {"eps": 0.01}),
        ("solenoid", {"c": 0.25, "d": 0.5}), ("dfa", {})])
    def test_inverse_roundtrip(self, name, params):
        sys = build(name, **params)
        pts = region_sample(sys, 200, seed=2)
        back = sys.inverse(sys.forward(pts))
        err = sys.chart.distance(sys.chart.wrap(back), sys.chart.wrap(pts))
        assert np.max(err) < 1e-9

    @pytest.mark.parametrize("eps", [0.0, 0.01, 0.05])
    def test_perturbed_cat_inverse_matches_fixed_point(self, eps):
        # four Newton steps land within rounding of the fixed-point loop
        sys = build("perturbed_cat", eps=eps)
        y = region_sample(sys, 20000, seed=3)
        got = sys.inverse(y)
        want = oracles.perturbed_cat_inverse_oracle(eps, y)
        assert np.max(sys.chart.distance(got, want)) <= 4e-16
        if eps == 0.0:
            assert np.array_equal(got, want)
        assert np.max(sys.chart.distance(sys.forward(got), y)) <= 1e-15

    @pytest.mark.parametrize("name,params", [
        ("cat", {}), ("perturbed_cat", {"eps": 0.01}),
        ("solenoid", {"c": 0.25, "d": 0.5}), ("dfa", {})])
    def test_tangent_matches_finite_differences(self, name, params):
        sys = build(name, **params)
        for x in region_sample(sys, 5, seed=4):
            fd = _finite_difference_jacobian(sys, x)
            assert np.max(np.abs(sys.tangent(x) - fd)) < 1e-5

    @pytest.mark.parametrize("name,params", [
        ("cat", {}), ("perturbed_cat", {"eps": 0.01}),
        ("solenoid", {"c": 0.25, "d": 0.5}), ("dfa", {})])
    def test_splitting_invariance(self, name, params):
        sys = build(name, **params)
        for x in region_sample(sys, 8, seed=6):
            fx = sys.chart.wrap(sys.forward(x))
            df = sys.tangent(x)
            e0, f0 = sys.splitting.at(x)
            e1, f1 = sys.splitting.at(fx)
            # at the model's cone depth the worst residual is at the float floor
            assert max(subspace_distance(span(df @ f0.frame), f1),
                       subspace_distance(span(df @ e0.frame), e1)) < 1e-14


# map steps and splitting frames whose rows change when mapped alone.  At
# region_sample(model, 200, seed=5, burn_in=10): dfa's inverse (3 rows) stops
# on a batch-wide np.max of the step, and dfa's tangent (4) goes through the
# _eig_coords products z @ vs and z @ vu, whose one-row rounding differs from
# a batch's; its E (6 rows) and F (5) sweep through both.  dfa's forward holds
# there, but the same product moves a row of a two-point batch below.
# Between two batches of two or more rows, dfa's forward and tangent agree
# (test_dfa_rows_agree_across_multi_row_batches).  perturbed_cat's inverse,
# a fixed count of elementwise Newton steps, is independent by construction.
BATCH_DEPENDENT = {("dfa", "forward"), ("dfa", "inverse"), ("dfa", "tangent"),
                   ("dfa", "e_frames"), ("dfa", "f_frames")}
MAP_STEPS = [pytest.param(
    name, step, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 12b; CHANGES.md FOUND line 9")
    if (name, step) in BATCH_DEPENDENT else ())
    for name in ("cat", "perturbed_cat", "solenoid", "dfa")
    for step in ("forward", "inverse", "tangent", "e_frames", "f_frames")]

# batches of 2 to 24 points as unit-cube coordinates, scaled to the chart
UNIT_BATCHES = st.lists(st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 3),
                        min_size=2, max_size=24)


class TestBatchInvariance:
    @pytest.mark.parametrize("name, step", MAP_STEPS)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(unit=UNIT_BATCHES, perm_seed=st.integers(0, 2 ** 32 - 1))
    @example(unit=None, perm_seed=0)
    @example(unit=[(0.0, 0.0, 0.0), (0.9618565057079661, 0.0, 0.0)],
             perm_seed=0)
    def test_rows_do_not_depend_on_the_batch(self, name, step, unit,
                                             perm_seed):
        # unit=None is the fixed region_sample batch; the two-point batch
        # is the one on which dfa's forward was seen to move
        sys = build(name)
        if unit is None:
            x = region_sample(sys, 200, seed=5, burn_in=10)
        else:
            chart = sys.chart
            x = (np.asarray(chart.lower, float)
                 + np.asarray(unit)[:, :chart.dim] * chart.widths)
            x = x[sys.in_region(x)]
            assume(len(x) > 0)
        fn = getattr(sys.splitting if step.endswith("_frames") else sys, step)
        got = fn(x)
        alone = np.stack([fn(x[i:i + 1])[0] for i in range(len(x))])
        assert np.array_equal(got, alone)
        perm = np.random.default_rng(perm_seed).permutation(len(x))
        assert np.array_equal(fn(x[perm]), got[perm])

    @pytest.mark.parametrize("step", ["forward", "tangent"])
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(unit=UNIT_BATCHES, near=st.booleans(), cut=st.integers(0, 200),
           perm_seed=st.integers(0, 2 ** 32 - 1))
    @example(unit=None, near=False, cut=100, perm_seed=0)
    @example(unit=[(0.0, 0.0, 0.0), (0.9618565057079661, 0.0, 0.0)],
             near=False, cut=0, perm_seed=0)
    def test_dfa_rows_agree_across_multi_row_batches(self, step, unit, near,
                                                    cut, perm_seed):
        # dfa's forward and tangent cases above split only between one-row
        # and multi-row calls: any two batches of two or more rows agree on
        # every row.  near: each point's cat image lies within 0.25 of the
        # fixed point
        sys = build("dfa")
        pad = region_sample(sys, 200, seed=5, burn_in=10)
        if unit is None:
            x = pad
        else:
            x = np.asarray(unit)[:, :2]
            if near:
                x = sys.chart.wrap(models._matvec(models.CAT_INVERSE,
                                                  (x - 0.5) * 0.5))
        fn = getattr(sys, step)
        got = fn(x)
        padded = fn(np.concatenate([pad[:cut], x, pad[cut:]]))
        pairs = np.stack([fn(x[[i, (i + 1) % len(x)]])[0]
                          for i in range(len(x))])
        perm = np.random.default_rng(perm_seed).permutation(len(x))
        for other in (padded[cut:cut + len(x)], pairs, fn(x[perm])[
                np.argsort(perm)]):
            assert np.array_equal(got.view(np.int64), other.view(np.int64))


class TestPointAsRow:
    """Every zoo map gives a (d,) point the bits of its (1, d) row."""

    @pytest.mark.parametrize("step", ["forward", "inverse", "tangent"])
    @pytest.mark.parametrize("name", sorted(MODEL_INFO))
    def test_point_maps_as_its_one_row_batch(self, name, step):
        sys = build(name)
        x = region_sample(sys, 400, seed=13)
        if name == "dfa":
            # points whose cat image, and points themselves, lie near the
            # fixed point, where the squeeze runs
            near = np.mod(np.random.default_rng(17).normal(0.0, 0.1, (800, 2)),
                          1.0)
            x = np.concatenate([x, near])
        fn = getattr(sys, step)
        for point in x:
            got, want = fn(point), fn(point[None])[0]
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _stacking_system(name):
    """A zoo model, or cat4: two cat blocks, whose F is 2-D."""
    if name != "cat4":
        return build(name)
    blocks = np.kron(np.eye(2), models.CAT_MATRIX)
    return linear_torus_system(blocks, np.kron(np.eye(2), V_S[:, None]),
                               np.kron(np.eye(2), V_U[:, None]), name="cat4")


class TestRowStacks:
    """Df at a (k, N, d) stack of orbit rows equals Df at each (N, d) row
    alone, bit for bit, dfa included: its products run once per stacked
    row.  The splitting relies on this when it stacks rows into one call;
    which points share a row is TestBatchInvariance's question."""

    @pytest.mark.parametrize("name", ["cat", "perturbed_cat", "solenoid",
                                      "dfa", "cat4"])
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(k=st.integers(1, 24), n=st.sampled_from([1, 7, 200, 400]),
           seed=st.integers(0, 2 ** 16))
    @example(k=21, n=200, seed=5)
    def test_stacked_rows_match_row_calls(self, name, k, n, seed):
        sys = _stacking_system(name)
        rows = orbit_coords(sys, region_sample(sys, n, seed=seed), k - 1)
        got = sys.tangent(rows)
        alone = np.stack([sys.tangent(row) for row in rows])
        assert got.shape == (k, n, sys.dim, sys.dim)
        assert np.array_equal(got.view(np.int64), alone.view(np.int64))


class TestLinearSteps:
    """The cat family's integer-matrix steps are one product x @ a.T, and
    equal np.einsum("ij,...j->...i", a, x) bit for bit."""

    @staticmethod
    def _einsum(a, x):
        return np.einsum("ij,...j->...i", a, x)

    @pytest.mark.parametrize("n", [None, 1, 401, 4096])
    def test_matrices_bit_identical_to_einsum(self, cat4, n):
        rng = np.random.default_rng(7 if n is None else n)
        for a in (models.CAT_MATRIX, models.CAT_INVERSE,
                  cat4.tangent(np.zeros(4)), np.linalg.inv(cat4.tangent(
                      np.zeros(4)))):
            shape = a.shape[:1] if n is None else (n,) + a.shape[:1]
            x = rng.uniform(-1.0, 2.0, shape)
            got, want = models._matvec(a, x), self._einsum(a, x)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", [None, 1, 401, 4096])
    @pytest.mark.parametrize("name", ["cat", "cat4", "perturbed_cat", "dfa"])
    def test_maps_bit_identical_to_einsum(self, request, monkeypatch, name,
                                          n):
        sys = request.getfixturevalue(name) if name == "cat4" else build(name)
        rng = np.random.default_rng(3 if n is None else n)
        x = rng.uniform(0.0, 1.0, (1 if n is None else n, sys.dim))
        # dfa: half of the points inside the deformation disk
        x[::2] = np.mod(rng.uniform(-0.25, 0.25, x[::2].shape), 1.0)
        x = x[0] if n is None else x
        steps = ("forward", "inverse", "tangent")
        got = [getattr(sys, step)(x) for step in steps]
        monkeypatch.setattr(models, "_matvec", self._einsum)
        for step, g in zip(steps, got):
            want = getattr(sys, step)(x)
            assert np.array_equal(g.view(np.int64), want.view(np.int64)), step


class TestCatExactness:
    def test_eigen_splitting(self, cat):
        e, f = cat.splitting.at(np.array([0.4, 0.7]))
        assert min(np.linalg.norm(f.frame[:, 0] - V_U),
                   np.linalg.norm(f.frame[:, 0] + V_U)) < 1e-14
        assert min(np.linalg.norm(e.frame[:, 0] - V_S),
                   np.linalg.norm(e.frame[:, 0] + V_S)) < 1e-14

    def test_region_is_whole_torus(self, cat):
        pts = np.random.default_rng(1).uniform(0, 1, (50, 2))
        assert np.all(cat.in_region(pts))

    def test_float_orbit_is_lattice_arithmetic(self, cat):
        # after a transient the orbit lies on 2^-51 Z^2, where the products
        # and the fold round nowhere: the float map is then A = [[2, 1],
        # [1, 1]] on integers mod 2^51 (ROADMAP item 21)
        scale = 2.0 ** 51
        x = region_sample(cat, 50, seed=3)
        for _ in range(103):
            x = cat.forward(x)
        k = x * scale
        assert np.array_equal(k, np.floor(k))
        k = k.astype(np.int64)
        a = np.array([[2, 1], [1, 1]], np.int64)
        for _ in range(2000):
            x, k = cat.forward(x), (k @ a.T) % 2 ** 51
            assert np.array_equal(x.view(np.int64),
                                  (k / scale).view(np.int64))


class TestDfa:
    def test_fixed_point_multiplier(self, dfa):
        mult = 1.0 + MODEL_INFO["dfa"]["params"]["delta"]
        logs = cocycle_logs(dfa, np.zeros(2), 5)
        rates = np.exp(-logs.log_f_inv)
        assert np.allclose(rates, mult, atol=1e-10)

    def test_linear_far_from_fixed_point(self, dfa):
        # outside the deformation bump the map is the cat automorphism
        x = np.array([0.5, 0.5])
        assert np.allclose(dfa.tangent(x), [[2.0, 1.0], [1.0, 1.0]],
                           atol=1e-12)


    @pytest.mark.parametrize("n", [1, 2, 7, 64, 200, 400, 999, 4096])
    def test_tangent_bit_identical_to_einsum(self, dfa, n):
        rng = np.random.default_rng(n)
        # half of the points inside the deformation disk around the origin
        x = rng.uniform(0.0, 1.0, (n, 2))
        x[::2] = np.mod(rng.uniform(-0.25, 0.25, (len(x[::2]), 2)), 1.0)
        got = dfa.tangent(x)
        want = oracles.dfa_tangent_oracle(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(dfa.tangent(x[0]),
                              oracles.dfa_tangent_oracle(x[0]))


def _squeeze_r2(y):
    """dfa's r2 = |y - 0|^2 / rho^2 in eigen-coordinates, as the map takes it."""
    z = build("dfa").chart.displacement(0.0, y)
    s, u = z @ models.CAT_STABLE, z @ models.CAT_UNSTABLE
    return (s * s + u * u) / MODEL_INFO["dfa"]["params"]["rho"] ** 2


def _rim_points(step, n=4000, seed=1):
    """Points at which `step` squeezes an r2 within 4 ulps of 1, on both
    sides: the inverse squeezes at the point itself, forward and tangent at
    its cat image."""
    chart = build("dfa").chart
    rho = MODEL_INFO["dfa"]["params"]["rho"]
    theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, n)
    y = chart.wrap(rho * (np.cos(theta)[:, None] * models.CAT_STABLE
                          + np.sin(theta)[:, None] * models.CAT_UNSTABLE))
    if step == "inverse":
        x, at = y, y
    else:
        x = chart.wrap(models._matvec(models.CAT_INVERSE, y))
        at = chart.wrap(models._matvec(models.CAT_MATRIX, x))
    r2 = _squeeze_r2(at)
    keep = np.abs(r2 - 1.0) <= 4 * np.spacing(1.0)
    assert np.any(keep & (r2 < 1.0)) and np.any(keep & (r2 >= 1.0))
    return x[keep]


def _dfa_points(kind, step):
    rng = np.random.default_rng(17)
    if kind == "uniform":
        return rng.uniform(0.0, 1.0, (4000, 2))
    if kind == "near_fixed_point":
        return np.mod(rng.normal(0.0, 0.1, (4000, 2)), 1.0)
    if kind == "region":
        return region_sample(build("dfa"), 4000, seed=13)
    return _rim_points(step)


class TestDfaSqueeze:
    """dfa's squeeze, with no power of a negative base and Newton steps only
    on the rows inside the ball, gives every row the bits of the whole-batch
    form in oracles.dfa_squeeze_oracle, at (1, d), (200, d) and
    (20, 200, d) calls; a (d,) call gets the bits of its (1, d) row."""

    @pytest.mark.parametrize("step", ["forward", "inverse", "tangent"])
    @pytest.mark.parametrize("kind", ["uniform", "near_fixed_point",
                                      "region", "rim"])
    def test_bit_identical_to_whole_batch_squeeze(self, dfa, kind, step):
        x = _dfa_points(kind, step)
        want_fn = dict(zip(("forward", "inverse", "tangent"),
                           oracles.dfa_squeeze_oracle()))[step]
        got_fn = getattr(dfa, step)
        calls = ([x[i] for i in range(300)] + [x[i:i + 1] for i in range(300)]
                 + [x[i:i + 200] for i in range(0, len(x), 200)])
        if len(x) >= 4000:
            calls.append(x[:4000].reshape(20, 200, 2))
        for pts in calls:
            got = got_fn(pts)
            # a (d,) point maps as its one-row batch
            want = want_fn(pts[None])[0] if pts.ndim == 1 else want_fn(pts)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestSolenoid:
    def test_region_membership(self, sol):
        assert sol.in_region(np.array([1.0, 0.3, -0.2]))
        assert not sol.in_region(np.array([1.0, 1.5, 1.5]))

    def test_inverse_of_a_nan_row_is_nan(self, sol):
        y = sol.forward(region_sample(sol, 6, seed=4))
        bad = y.copy()
        bad[1, 0] = np.nan
        bad[3, 2] = np.nan
        bad[4] = np.nan
        got = sol.inverse(bad)
        nan_rows = np.zeros(6, bool)
        nan_rows[[1, 3, 4]] = True
        assert np.all(np.isnan(got[nan_rows]))
        assert np.array_equal(got[~nan_rows].view(np.int64),
                              sol.inverse(y[~nan_rows]).view(np.int64))

    def test_attractor_absorbs(self, sol):
        # forward images of region points stay in the region
        pts = region_sample(sol, 100, seed=8)
        cur = pts
        for _ in range(5):
            cur = sol.chart.wrap(sol.forward(cur))
        assert np.all(sol.in_region(cur))


class TestSampling:
    def test_quasi_uniform_bounds_and_determinism(self):
        lo = np.array([0.0, -1.0])
        hi = np.array([1.0, 2.0])
        a = quasi_uniform(lo, hi, 64, seed=3)
        b = quasi_uniform(lo, hi, 64, seed=3)
        assert np.array_equal(a, b)
        assert np.all(a >= lo) and np.all(a <= hi)

    def test_quasi_uniform_accept_filter(self):
        pts = quasi_uniform(np.zeros(2), np.ones(2), 50, seed=5,
                            accept=lambda c: c[..., 0] < 0.5)
        assert len(pts) == 50
        assert np.all(pts[:, 0] < 0.5)

    def test_quasi_uniform_refills_continue_the_sequence(self):
        # the filter keeps about a tenth of each 64-point draw, so the 50
        # points span several refills; a restarted index would repeat points
        pts = quasi_uniform(np.zeros(2), np.ones(2), 50, seed=5,
                            accept=lambda c: c[..., 0] < 0.1)
        assert len(np.unique(pts, axis=0)) == 50

    def test_halton_matches_scipy_in_two_draws(self):
        from scipy.stats import qmc
        for dim in (2, 3):
            ref = qmc.Halton(d=dim, scramble=False)
            want = np.vstack([ref.random(700), ref.random(1300)])
            got = np.vstack([_halton(0, 700, dim), _halton(700, 1300, dim)])
            assert np.array_equal(got, want)

    def test_region_sample_respects_region(self, sol):
        pts = region_sample(sol, 100, seed=11)
        assert np.all(sol.in_region(pts))

    @pytest.mark.parametrize("name", sorted(MODEL_INFO))
    @pytest.mark.parametrize("burn_in", [0, 10])
    def test_region_sample_of_no_points(self, name, burn_in):
        sys = build(name)
        assert quasi_uniform(sys.chart.lower, sys.chart.upper, 0).shape == (
            0, sys.dim)
        pts = region_sample(sys, 0, seed=3, burn_in=burn_in)
        assert pts.shape == (0, sys.dim)

    def test_region_sample_deterministic(self, dfa):
        assert np.array_equal(region_sample(dfa, 40, seed=13),
                              region_sample(dfa, 40, seed=13))

    # every multi-point call shape of region_sample in src/: measure_constants_h
    # (400, 7, 30), measure_l1 (200, 3, 10), measure_distortion_constants at
    # its default seed (150, 3, 10).  Doubling the solenoid's angle burn_in
    # times shifts out the Halton digits that tell the points apart.
    @pytest.mark.parametrize("name", ["cat", "perturbed_cat", "solenoid", "dfa"])
    @pytest.mark.parametrize("count,seed,burn_in", [(400, 7, 30), (200, 3, 10),
                                                    (150, 3, 10)])
    def test_region_sample_stays_spread(self, request, name, count, seed,
                                        burn_in):
        if name == "solenoid":
            request.applymarker(pytest.mark.xfail(strict=True,
                                                  reason="ROADMAP item 1"))
        sys = build(name)
        pts = region_sample(sys, count, seed=seed, burn_in=burn_in)
        dist = sys.chart.distance(pts[:, None, :], pts[None, :, :])
        assert np.min(dist[np.triu_indices(count, 1)]) > 1e-5


class TestConstantsH:
    @pytest.mark.parametrize("name,params,xi", [
        ("perturbed_cat", {"eps": 0.01}, None),
        ("solenoid", {"c": 0.25, "d": 0.5}, None),
        ("dfa", {}, None)])
    def test_chain_inequalities(self, name, params, xi):
        sys = build(name, **params)
        c = measure_constants_h(sys, xi=xi)
        assert 0.0 < c.lambda1 < c.lambda1 * np.exp(c.eps0) < c.lambda2
        assert c.lambda2 < c.lambda3 < 1.0
        assert c.lambda3 == pytest.approx(
            c.lambda2 * np.exp(c.eps0) / c.b ** c.xi)
        assert c.eps0 > 0.0

    def test_cat_xi_one_is_infeasible(self, cat):
        with pytest.raises(ChainInfeasible):
            measure_constants_h(cat, xi=1.0)

    def test_cat_default_xi_works(self, cat):
        c = measure_constants_h(cat)
        assert c.xi == 0.5
        assert c.lambda1 >= 1.0 / LAM_U - 1e-9


class TestLambdaFraction:
    def test_cat_everything_qualifies(self, cat):
        frac, pts = lambda_fraction(cat, 0.5, 100, seed=3)
        assert frac == 1.0
        assert len(pts) == 400

    def test_dfa_positive_and_deterministic(self, dfa):
        f1, p1 = lambda_fraction(dfa, 0.45, 300, seed=5)
        f2, p2 = lambda_fraction(dfa, 0.45, 300, seed=5)
        assert f1 == f2
        assert np.array_equal(p1, p2)
        assert 0.0 < f1 <= 1.0


class TestLinearTorusSystem:
    def test_determinant_guard(self):
        with pytest.raises(ConstructionFailed):
            linear_torus_system(np.diag([2.0, 1.0]), [[1], [0]], [[0], [1]])

    def test_integer_entries_guard(self):
        # |det| = 1, yet (0.2, 0.3) and (1.2, 0.3), one torus point, map to
        # (0.45, 0.35) and (0.95, 0.85), two torus points
        with pytest.raises(ConstructionFailed, match="integer"):
            linear_torus_system([[1.5, 0.5], [0.5, 5 / 6]], [1, 0], [0, 1])

    def test_bundle_dimensions_guard(self):
        # two E columns and one F column on T^2, one and one on T^3, and an
        # E of three rows on T^2
        for a, e, f in ((models.CAT_MATRIX, np.eye(2), V_U),
                        (np.eye(3), [1, 0, 0], [0, 1, 0]),
                        (models.CAT_MATRIX, [1, 0, 0], [0, 1])):
            with pytest.raises(ConstructionFailed, match="together"):
                linear_torus_system(a, e, f)

    def test_invariant_bundles_guard(self):
        with pytest.raises(ConstructionFailed, match="E into itself"):
            linear_torus_system(models.CAT_MATRIX, [1, 0], V_U)
        with pytest.raises(ConstructionFailed, match="F into itself"):
            linear_torus_system(models.CAT_MATRIX, V_S, [0, 1])

    def test_product_of_cats_cocycle(self, cat4):
        logs = cocycle_logs(cat4, np.array([0.1, 0.2, 0.3, 0.4]), 30)
        assert np.max(np.abs(logs.log_f_inv + LOG_LAM_U)) < 1e-12
        assert logs.log_e.shape == (31,)
