import copy
import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srblab import (OrbitEscaped, cocycle_logs, cocycle_logs_batch,
                    orbit_coords, splitting_frames_along_orbit,
                    subspace_distance)

from srblab import measures, models, systems
from srblab.cones import domination_robustness_radius, verify_cone_contraction
from srblab.disks import hyperbolic_component, make_disk
from srblab.errors import ChainInfeasible
from srblab.models import (build, lambda_fraction, measure_constants_h,
                           region_sample)
from srblab.pliss import lambda_membership_batch
from srblab.systems import (DEPTH, POINTS, _batch_qr, _log_f_inv, _orbit,
                            time_logs)

from . import oracles
from .conftest import LAM_S, LAM_U, LOG_LAM_U
from .oracles import span

X0 = np.array([0.2, 0.3])
MODELS = ["cat", "pcat", "sol", "dfa"]


class TestCocycleLogs:
    def test_cat_entries_are_constant(self, cat):
        logs = cocycle_logs(cat, X0, 200)
        assert np.max(np.abs(logs.log_f_inv + LOG_LAM_U)) < 1e-13
        assert np.max(np.abs(logs.log_e - np.log(LAM_S))) < 1e-13
        assert np.ptp(logs.log_f_inv) == 0.0

    def test_window_is_zero_to_n(self, cat):
        logs = cocycle_logs(cat, X0, 7)
        assert len(logs.log_e) == 8
        assert len(logs.log_f_inv) == 8

    @pytest.mark.parametrize("model", MODELS)
    def test_entries_one_to_n_are_the_batch_default(self, request, model):
        # the 1..n entries come from the same streams as the batch's 1..n
        # form; the base entry only runs the pull one row further
        sys = request.getfixturevalue(model)
        x = region_sample(sys, 1, seed=8, burn_in=2)[0]
        logs = cocycle_logs(sys, x, 7)
        le, lf = cocycle_logs_batch(sys, x[None], 7)
        assert np.array_equal(logs.log_e[1:], le[0])
        assert np.array_equal(logs.log_f_inv[1:], lf[0])

    def test_f_inv_from_one_strips_base_entry(self, cat):
        logs = cocycle_logs(cat, X0, 5)
        assert np.array_equal(logs.f_inv_from_one(), logs.log_f_inv[1:])
        assert len(logs.f_inv_from_one()) == 5

    def test_batch_matches_singles(self, pcat):
        pts = np.array([[0.1, 0.8], [0.45, 0.33], [0.72, 0.06]])
        le, lf = cocycle_logs_batch(pcat, pts, 12)
        for i, p in enumerate(pts):
            single = cocycle_logs(pcat, p, 12)
            assert np.allclose(le[i], single.log_e[1:], atol=1e-12)
            assert np.allclose(lf[i], single.f_inv_from_one(), atol=1e-12)

    def test_perturbed_entries_vary_but_stay_close(self, pcat):
        logs = cocycle_logs(pcat, X0, 100)
        assert np.ptp(logs.log_f_inv) > 0.0
        assert np.max(np.abs(logs.log_f_inv + LOG_LAM_U)) < 0.1


class TestOrbitCoords:
    def test_rows_follow_forward_map(self, cat):
        rows = orbit_coords(cat, X0, 4)
        assert rows.shape == (5, 2)
        assert np.allclose(rows[1], cat.chart.wrap(cat.forward(X0)))

    def test_batch_of_starts(self, cat):
        pts = np.array([[0.1, 0.2], [0.6, 0.9]])
        rows = orbit_coords(cat, pts, 3)
        assert rows.shape == (4, 2, 2)
        for i in range(2):
            assert np.allclose(rows[:, i], orbit_coords(cat, pts[i], 3))

    def test_region_escape_raises(self, sol):
        far = np.array([0.0, 1.55, 1.55])
        with pytest.raises(OrbitEscaped):
            orbit_coords(sol, far, 3)

    def test_region_check_can_be_disabled(self, sol):
        far = np.array([0.0, 1.55, 1.55])
        rows = orbit_coords(sol, far, 3, check_region=False)
        assert rows.shape == (4, 3)

    def test_escape_step_on_the_solenoid(self, sol):
        # the solenoid traps its region, so only a start outside it escapes;
        # an angle bound in region_contains lets the doubling angle leave
        pts = np.array([[0.3, 0.1, 0.2], [0.2, 0.9, 0.9], [0.4, 0.0, 0.1]])
        with pytest.raises(OrbitEscaped) as err:
            orbit_coords(sol, pts, 3)
        assert err.value.step == 0
        # a start outside is named alone, as an escape at a later step is
        assert np.array_equal(err.value.coords, pts[1])
        arc = dataclasses.replace(
            sol, region_contains=lambda c: np.asarray(c)[..., 0] < 4.0)
        inside = pts[[0, 2]]
        rows = orbit_coords(sol, inside, 5)
        step = int(np.argmax(np.any(rows[..., 0] >= 4.0, axis=1)))
        assert step > 0
        with pytest.raises(OrbitEscaped) as err:
            orbit_coords(arc, inside, 5)
        assert err.value.step == step
        # with no region_contains, the chart's box axes are still checked
        boxed = dataclasses.replace(sol, region_contains=None)
        assert orbit_coords(boxed, pts, 3).shape == (4, 3, 3)
        with pytest.raises(OrbitEscaped) as err:
            orbit_coords(boxed, np.array([[0.3, 1.7, 0.0]]), 3)
        assert err.value.step == 0
        assert np.array_equal(err.value.coords, [0.3, 1.7, 0.0])

    def test_escape_step_on_a_torus_given_a_region(self, cat):
        strip = dataclasses.replace(
            cat, region_contains=lambda c: np.asarray(c)[..., 0] < 0.9)
        pts = np.array([[0.11, 0.23], [0.31, 0.17]])
        rows = orbit_coords(cat, pts, 8)
        step = int(np.argmax(np.any(rows[..., 0] >= 0.9, axis=1)))
        assert 0 < step < 8
        with pytest.raises(OrbitEscaped) as err:
            orbit_coords(strip, pts, 8)
        assert err.value.step == step
        bad = np.flatnonzero(rows[step, :, 0] >= 0.9)[0]
        assert np.array_equal(err.value.coords, rows[step, bad])
        assert np.array_equal(orbit_coords(strip, pts, step - 1),
                              rows[:step])


def _frames(sys, coords, n):
    """The n-step orbit rows of coords, and the E- and F-frames along them
    on Df at the rows."""
    rows, tans = _orbit(sys, coords, n)
    return (rows, *splitting_frames_along_orbit(sys, rows, tans))


class TestSplittingFrames:
    def test_exact_splitting_is_invariant(self, cat):
        rows, e, f = _frames(cat, X0, 6)
        for j in range(6):
            df = cat.tangent(rows[j])
            assert subspace_distance(span(df @ f[j]), span(f[j + 1])) < 1e-12
            assert subspace_distance(span(df @ e[j]), span(e[j + 1])) < 1e-12

    def test_converged_splitting_is_invariant(self, pcat):
        rows, e, f = _frames(pcat, X0, 10)
        for j in range(10):
            df = pcat.tangent(rows[j])
            assert subspace_distance(span(df @ f[j]), span(f[j + 1])) < 1e-9
            assert subspace_distance(span(df @ e[j]), span(e[j + 1])) < 1e-9

    def test_frames_match_pointwise_field(self, pcat):
        rows, e, f = _frames(pcat, X0, 8)
        for j in (0, 4, 8):
            ej, fj = pcat.splitting.at(rows[j])
            assert subspace_distance(span(e[j]), ej) < 1e-8
            assert subspace_distance(span(f[j]), fj) < 1e-8

    @pytest.mark.parametrize("model", MODELS)
    def test_frames_bit_identical_to_row_loops(self, request, model):
        sys = request.getfixturevalue(model)
        rows, *got = _frames(sys, region_sample(sys, 6, seed=3, burn_in=2),
                             12)
        want = oracles.splitting_frames_oracle(sys, rows)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("model", MODELS)
    def test_pointwise_queries_bit_identical_to_one_row_orbit(self, request,
                                                              model):
        sys = request.getfixturevalue(model)
        pts = region_sample(sys, 9, seed=4)
        e, f = oracles.splitting_frames_oracle(sys, pts[None, ...])
        assert np.array_equal(sys.splitting.e_frames(pts), e[0])
        assert np.array_equal(sys.splitting.f_frames(pts), f[0])

    @pytest.mark.parametrize("model", ["pcat", "sol", "dfa"])
    def test_frames_do_not_depend_on_the_leading_shape(self, request, model):
        sys = request.getfixturevalue(model)
        rows, tans = _orbit(sys, region_sample(sys, 6, seed=5, burn_in=2), 7)
        flat = splitting_frames_along_orbit(sys, rows, tans)
        nested = splitting_frames_along_orbit(
            sys, rows.reshape(8, 2, 3, -1),
            tans.reshape((8, 2, 3) + tans.shape[2:]))
        for g, w in zip(nested, flat):
            assert g.shape == (8, 2, 3) + w.shape[2:]
            assert np.array_equal(g.reshape(w.shape), w)

    @pytest.mark.parametrize("model", ["pcat", "sol"])
    def test_queries_leave_the_field_unchanged(self, request, model):
        sys = request.getfixturevalue(model)
        sp = sys.splitting
        before = {k: copy.copy(v) for k, v in vars(sp).items()}
        pts = region_sample(sys, 3, seed=6)
        for p in (pts[0], pts[0], pts[1]):
            sp.at(p)
        sp.e_frames(pts)
        sp.f_frames(pts)
        _frames(sys, pts, 3)
        assert vars(sp) == before

    def test_pull_kernel_maps_the_last_row_depth_minus_one_steps(self, pcat):
        # the pull uses Df at f^(depth-1)(row m) .. row m: no further image
        calls = []

        def forward(c):
            calls.append(len(c))
            return pcat.forward(c)

        sp = dataclasses.replace(pcat, forward=forward).splitting
        pts = region_sample(pcat, 5, seed=6)
        e = sp.e_frames(pts)
        assert calls == [5] * (pcat.depth - 1)
        assert np.array_equal(e, pcat.splitting.e_frames(pts))

    def test_a_declared_f_alone_leaves_e_to_the_pull(self, cat):
        # cat without its E: F stays the declared frame, E converges to it
        half = dataclasses.replace(cat, e_frame=None)
        pts = region_sample(cat, 5, seed=6)
        _, e, f = _frames(half, pts, 3)
        _, want_e, want_f = _frames(cat, pts, 3)
        assert np.array_equal(f, want_f)
        assert np.max(subspace_distance(e, want_e)) < 1e-12

    def test_converged_field_is_pure(self, pcat):
        p = np.array([0.37, 0.61])
        a1, b1 = pcat.splitting.at(p)
        a2, b2 = pcat.splitting.at(p)
        assert np.array_equal(a1.frame, a2.frame)
        assert np.array_equal(b1.frame, b2.frame)


def _held(sys):
    """The anchor points a system's lead memo holds."""
    return sum(len(v) for v in sys._leads.values())


def _kept(sys, memo):
    """Does the system's lead memo hold exactly memo's entries, unchanged?"""
    return (sys._leads.keys() == memo.keys()
            and all(sys._leads[k] is v for k, v in memo.items()))


class TestLeadMemo:
    """A system keeps each anchor's lead frames: a repeated query walks no
    lead orbit and returns the bits of a fresh sweep."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n", [1, 200])
    def test_a_repeated_query_gives_the_oracles_bits(self, request, model,
                                                     n):
        calls = {}
        sys = _counted(request.getfixturevalue(model), calls)
        pts = region_sample(sys, n, seed=11, burn_in=2)
        rows, tans = _orbit(sys, pts, 5)
        calls.clear()
        want_e, want_f = oracles.splitting_frames_oracle(sys, rows)
        want_pe, want_pf = oracles.splitting_frames_oracle(sys, pts[None])
        if sys.f_frame is None:   # cat declares its F
            assert np.array_equal(want_pf[0],
                                  oracles.f_batch_oracle(sys, pts, sys.depth))
        for query in range(2):
            calls.clear()
            e, f = splitting_frames_along_orbit(sys, rows, tans)
            assert np.array_equal(e, want_e) and np.array_equal(f, want_f)
            assert np.array_equal(sys.splitting.f_frames(pts), want_pf[0])
            assert np.array_equal(sys.splitting.e_frames(pts), want_pe[0])
            if query:   # the second round walks no lead orbit
                assert "inverse" not in calls and "forward" not in calls
        # the anchors: pts for F, the last row and pts for E
        leads = (sys.f_frame is None) + 2 * (sys.e_frame is None)
        assert len(sys._leads) == leads and _held(sys) == leads * n

    @pytest.mark.parametrize("model", MODELS)
    def test_a_replace_copy_starts_empty(self, request, model):
        sys = dataclasses.replace(request.getfixturevalue(model))
        pts = region_sample(sys, 7, seed=12, burn_in=2)
        sys.splitting.f_frames(pts)
        sys.splitting.e_frames(pts)
        held = dict(sys._leads)
        plain = dataclasses.replace(sys)
        assert plain == sys and plain._leads == {}   # equality skips memos
        calls = {}
        copy = _counted(sys, calls)
        assert copy._leads == {}
        e, f = oracles.splitting_frames_oracle(copy, pts[None])
        calls.clear()
        assert np.array_equal(copy.splitting.f_frames(pts), f[0])
        assert np.array_equal(copy.splitting.e_frames(pts), e[0])
        # the copy walks its own leads, and leaves the original's memo
        assert calls.get("inverse", []) == ([] if sys.f_frame is not None
                                            else [7] * sys.depth)
        assert calls.get("forward", []) == ([] if sys.e_frame is not None
                                            else [7] * (sys.depth - 1))
        assert _kept(sys, held)

    def test_a_reassigned_map_walks_again(self, pcat):
        # a callable set on the system itself, as a tracer sets its wrappers,
        # reads no frame swept with the old one: Df first, then the steps
        sys = dataclasses.replace(pcat)
        pts = region_sample(sys, 7, seed=15)
        calls = {}
        counted = _counted(sys, calls)
        for attrs in (["tangent"], ["forward", "inverse"]):
            sys.splitting.f_frames(pts)
            sys.splitting.e_frames(pts)
            for attr in attrs:
                setattr(sys, attr, getattr(counted, attr))
            calls.clear()
            sys.splitting.f_frames(pts)
            sys.splitting.e_frames(pts)
            assert calls["tangent"] == [7 * sys.depth, 7 * (sys.depth - 1), 7]
        assert calls["inverse"] == [7] * sys.depth
        assert calls["forward"] == [7] * (sys.depth - 1)

    def test_a_reassigned_depth_walks_again(self, pcat):
        # a depth set on the system itself reads no frame swept at the old
        # one, and the old depth's frames stay kept for the old depth
        calls = {}
        sys = _counted(pcat, calls)
        pts = region_sample(sys, 7, seed=15)
        old = sys.depth
        for depth in (old, old + 6):
            sys.depth = depth
            calls.clear()
            f, e = sys.splitting.f_frames(pts), sys.splitting.e_frames(pts)
            assert calls == {"inverse": [7] * depth,
                             "forward": [7] * (depth - 1),
                             "tangent": [7 * depth, 7 * (depth - 1), 7]}
            want_e, want_f = oracles.splitting_frames_oracle(sys, pts[None])
            assert np.array_equal(f, want_f[0])
            assert np.array_equal(e, want_e[0])
        sys.depth = old
        calls.clear()
        sys.splitting.f_frames(pts)
        sys.splitting.e_frames(pts)
        assert calls == {"tangent": [7]}   # the pull's last step alone

    @pytest.mark.parametrize("model", ["pcat", "sol", "dfa"])
    def test_writing_into_a_frame_leaves_the_next_query(self, request, model):
        sys = dataclasses.replace(request.getfixturevalue(model))
        sp = sys.splitting
        pts = region_sample(sys, 5, seed=13, burn_in=2)
        e, f = oracles.splitting_frames_oracle(sys, pts[None])
        for query, want in ((sp.f_frames, f[0]), (sp.e_frames, e[0])):
            query(pts)[...] = 0.0
            query(pts)[0] += 1.0
            assert np.array_equal(query(pts), want)

    def test_the_memo_holds_at_most_points_anchor_points(self, pcat):
        calls = {}
        sys = _counted(pcat, calls)
        sp = sys.splitting
        sets = [region_sample(sys, 1500, seed=s) for s in range(3)]
        for pts in sets:
            sp.f_frames(pts)
        # 4500 points: the oldest anchor goes, the two newest stay
        assert len(sys._leads) == 2 and _held(sys) == 3000 <= POINTS
        calls.clear()
        sp.f_frames(sets[2])
        assert "inverse" not in calls
        sp.f_frames(sets[0])
        assert calls["inverse"] == [1500] * sys.depth
        assert len(sys._leads) == 2 and _held(sys) == 3000
        # an anchor of more than POINTS points is swept but not kept
        big = region_sample(sys, POINTS + 1, seed=9)
        held = dict(sys._leads)
        f = sp.f_frames(big)
        assert _kept(sys, held)
        assert np.array_equal(f, oracles.f_batch_oracle(sys, big, sys.depth))

    def test_a_centres_queries_walk_one_lead(self, pcat):
        # F at x, the time logs of x's 10-step orbit and x's cocycle logs
        # all push from x: one lead of the system's depth, not three
        inverse = []

        def counted(c):
            inverse.append(len(c))
            return pcat.inverse(c)

        sys = dataclasses.replace(pcat, inverse=counted)
        x = region_sample(sys, 1, seed=14, burn_in=2)[0]
        sys.splitting.f_frames(x)
        time_logs(sys, orbit_coords(sys, x[None], 10))
        cocycle_logs(sys, x, 10)
        assert len(inverse) == sys.depth


# two seed frames swept along one lead orbit agree within this at the float
# floor: the rule of each model's declared depth D (models.MODEL_INFO)
RESIDUAL_FLOOR = 2e-15


def _swept(sys):
    """The bundles sys converges by cone iteration: "f", "e" or both."""
    return "".join(w for w, frame in (("f", sys.f_frame), ("e", sys.e_frame))
                   if frame is None)


def _constants_sample(sys):
    """measure_constants_h's 400 sample points."""
    return region_sample(sys, 400, seed=7, burn_in=30)


def _depth_point_sets(sys):
    """The point sets a declared depth is checked on: the constants sample,
    200 burned-in region points, and the in-region points of
    domination_robustness_radius's grid."""
    grid = oracles.robustness_mesh(sys.chart).reshape(-1, sys.dim)
    return {"constants": _constants_sample(sys),
            "region": region_sample(sys, 200, seed=5, burn_in=10),
            "grid": grid[sys.in_region(grid)]}


SWEEPING = ["perturbed_cat", "solenoid", "dfa"]


class TestDeclaredDepth:
    """Each zoo model that sweeps a bundle declares its depth D: 4 steps past
    the first multiple of 4 at which the two-seed residual of every swept
    bundle is at most RESIDUAL_FLOOR on the constants sample.  At D the
    sweeps agree, and agree with a depth-64 sweep, on every point set."""

    @pytest.mark.parametrize("name", sorted(models.MODEL_INFO))
    def test_a_model_declares_a_depth_iff_it_sweeps(self, name):
        sys = build(name)
        info = models.MODEL_INFO[name]
        assert ("depth" in info) == bool(_swept(sys))
        assert sys.depth == info.get("depth", DEPTH)
        assert sys.depth % 4 == 0
        assert (name in SWEEPING) == bool(_swept(sys))

    @pytest.mark.parametrize("name", SWEEPING)
    def test_the_depth_follows_the_rule(self, name):
        sys = build(name)
        pts = _constants_sample(sys)

        def worst(depth):
            return max(float(np.max(oracles.lead_residual_oracle(
                sys, w, pts, depth))) for w in _swept(sys))

        assert worst(sys.depth - 4) <= RESIDUAL_FLOOR < worst(sys.depth - 8)

    @pytest.mark.parametrize("name", SWEEPING)
    def test_the_declared_depth_converges(self, name):
        sys = build(name)
        deep = dataclasses.replace(sys, depth=64)
        for label, pts in _depth_point_sets(sys).items():
            for w in _swept(sys):
                residual = oracles.lead_residual_oracle(sys, w, pts, sys.depth)
                assert np.max(residual) <= RESIDUAL_FLOOR, (label, w)
                query = f"{w}_frames"
                drift = subspace_distance(getattr(sys.splitting, query)(pts),
                                          getattr(deep.splitting, query)(pts))
                assert np.max(drift) <= RESIDUAL_FLOOR, (label, w)


class TestCocycleAgainstSplitting:
    def test_cat_domination_gap(self, cat):
        logs = cocycle_logs(cat, X0, 50)
        ratio = np.exp(logs.log_e + logs.log_f_inv)
        assert np.max(np.abs(ratio - LAM_U ** -2)) < 1e-12

    def test_solenoid_expansion_rate(self, sol):
        logs = cocycle_logs(sol, np.array([1.0, 0.1, 0.2]), 60)
        rates = np.exp(-logs.log_f_inv)
        assert np.all(rates > 1.5)
        assert np.all(rates < 2.5)


def _counted(sys, calls):
    """A copy of sys whose forward, inverse and tangent append the number of
    points of each call to calls["forward"], calls["inverse"] and
    calls["tangent"].  The splitting reads the map from its system, so the
    copy's cone sweeps are counted with the rest."""
    def wrap(key, fn):
        def counted(c):
            calls.setdefault(key, []).append(int(np.prod(np.shape(c)[:-1])))
            return fn(c)
        return counted

    return dataclasses.replace(
        sys, forward=wrap("forward", sys.forward),
        inverse=wrap("inverse", sys.inverse),
        tangent=wrap("tangent", sys.tangent),
        constants=dataclasses.replace(sys.constants))


class TestFusedCocycleLogs:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("include_zero", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 37])
    def test_batch_bit_identical_to_three_pass_oracle(self, request, model,
                                                      include_zero, n):
        sys = request.getfixturevalue(model)
        pts = region_sample(sys, 7, seed=8, burn_in=2)
        got = cocycle_logs_batch(sys, pts, n, include_zero=include_zero)
        want = oracles.cocycle_logs_oracle(sys, pts, n, include_zero)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("model", MODELS)
    def test_f_only_logs_bit_identical_to_oracle(self, request, model):
        sys = request.getfixturevalue(model)
        pts = region_sample(sys, 7, seed=9, burn_in=2)
        got = _log_f_inv(sys, orbit_coords(sys, pts, 25))
        _, want = oracles.cocycle_logs_oracle(sys, pts, 25, True)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("model", MODELS)
    def test_time_logs_are_the_default_log_columns(self, request, model):
        sys = request.getfixturevalue(model)
        pts = region_sample(sys, 5, seed=3, burn_in=2)
        got = time_logs(sys, orbit_coords(sys, pts, 20))
        assert got.shape == (5, 20)
        assert np.array_equal(got, cocycle_logs_batch(sys, pts, 20)[1])

    @pytest.mark.parametrize("model", ["pcat", "dfa"])
    def test_lambda_fraction_matches_the_two_bundle_path(self, request,
                                                         model):
        sys = request.getfixturevalue(model)
        frac, qual = lambda_fraction(sys, 0.385, 30, seed=4)
        pts = region_sample(sys, 400, seed=4)
        _, lf = oracles.cocycle_logs_oracle(sys, pts, 30)
        ok = lambda_membership_batch(lf, 0.385)
        assert 0 < np.count_nonzero(ok) < len(ok)
        assert frac == float(np.mean(ok))
        assert np.array_equal(qual, pts[ok])

    @pytest.mark.parametrize("model", ["pcat", "dfa"])
    def test_hyperbolic_mass_matches_the_two_bundle_path(self, request,
                                                         model, monkeypatch):
        sys = request.getfixturevalue(model)
        x = region_sample(sys, 3, seed=2)[1]
        d = make_disk(sys, x, sys.splitting.f_frames(x)[:, 0], 0.02)
        args = (sys, d, 30, 0.6, 0.05, 0.9, 0.1)
        got = measures.hyperbolic_mass(*args)
        monkeypatch.setattr(
            measures, "time_logs", lambda s, rows: oracles.cocycle_logs_oracle(
                s, rows[0], len(rows) - 1)[1])
        want = measures.hyperbolic_mass(*args)
        assert want.lambda_mass > 0.0
        for name in ("eta", "per_i", "lambda_mass", "tau", "floor"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


class TestPushProductLogs:
    """Both logs reduce Df's images a block of rows at a time: POINTS // N
    rows per block, so 200-point rows go 20 to a block and 401-point rows
    10.  The E images are Df @ E of the pulled frames, filled from the last
    column back; the F images are the push's own products, and the last
    row's product takes no QR.  cat4's 2-D E and F take the SVD branch."""

    @pytest.mark.parametrize("model", MODELS + ["cat4"])
    @pytest.mark.parametrize("npts, n", [(200, 19), (200, 20), (200, 21),
                                         (200, 45), (401, 9), (401, 10),
                                         (401, 11), (1, 0), (1, 7)])
    def test_logs_across_block_edges_equal_the_oracle(self, request, model,
                                                      npts, n):
        sys = request.getfixturevalue(model)
        pts = region_sample(sys, npts, seed=12, burn_in=2)
        got = _log_f_inv(sys, orbit_coords(sys, pts, n))
        _, want = oracles.cocycle_logs_oracle(sys, pts, n, True)
        assert got.shape == (npts, n + 1)
        assert np.array_equal(got, want)
        for include_zero in (False, True):
            got = cocycle_logs_batch(sys, pts, n, include_zero)
            want = oracles.cocycle_logs_oracle(sys, pts, n, include_zero)
            for g, w in zip(got, want):
                assert g.shape == (npts, n + include_zero)
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("model", MODELS + ["cat4"])
    @pytest.mark.parametrize("npts, n", [(200, 20), (200, 45), (1, 0)])
    def test_each_push_step_takes_one_qr(self, request, monkeypatch, model,
                                         npts, n):
        sys = request.getfixturevalue(model)
        pts = region_sample(sys, npts, seed=12, burn_in=2)
        rows = orbit_coords(sys, pts, n)
        lead = sys.splitting.f_frames(pts)
        calls = []
        real = systems._batch_qr
        monkeypatch.setattr(systems, "_batch_qr",
                            lambda fr: calls.append(fr.shape) or real(fr))
        got = _log_f_inv(sys, rows, lead=lead)
        # n pushes carry F from row 0 to row n; a declared F takes none
        pushes = 0 if sys.f_frame is not None else n
        assert calls == [(npts, sys.dim, sys.dim_f)] * pushes
        monkeypatch.undo()
        assert np.array_equal(got, _log_f_inv(sys, rows))


class TestOrbit:
    @pytest.mark.parametrize("model", MODELS)
    def test_rows_and_df_are_the_one_row_calls_bits(self, request, model):
        # 200-point rows go 20 to a block: 45 rows end on a partial third
        sys = request.getfixturevalue(model)
        pts = region_sample(sys, 200, seed=9, burn_in=2)
        n = 44
        assert POINTS // 200 < n + 1 and (n + 1) % (POINTS // 200)
        rows, tans = _orbit(sys, pts, n)
        assert np.array_equal(rows, orbit_coords(sys, pts, n))
        assert tans.shape == (n + 1, 200, sys.dim, sys.dim)
        for row, t in zip(rows, tans):
            assert np.array_equal(t, sys.tangent(row))


class TestStreamedFLogs:
    """Without tans, the F logs read Df block by block as
    _streamed_tangents yields it, and hold one block of it at a time."""

    # 200-point rows go 20 to a block, 401-point rows 10 and 7-point rows
    # 585: each orbit ends on a partial block
    @pytest.mark.parametrize("model", MODELS + ["cat4"])
    @pytest.mark.parametrize("npts, n", [(200, 44), (401, 12), (7, 30),
                                         (1, 7)])
    def test_streamed_df_gives_the_held_arrays_bits(self, request, model,
                                                    npts, n):
        sys = request.getfixturevalue(model)
        pts = region_sample(sys, npts, seed=14, burn_in=2)
        rows, tans = _orbit(sys, pts, n)
        assert (n + 1) % max(1, POINTS // npts)
        got = time_logs(sys, rows)
        want = time_logs(sys, rows, tans=tans)
        assert got.shape == (npts, n)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("model", ["sol", "pcat", "dfa"])
    def test_the_logs_hold_less_than_their_orbit(self, request, model):
        # a replace copy walks its lead afresh, so the walk is traced too
        sys = dataclasses.replace(request.getfixturevalue(model))
        rows = orbit_coords(sys, region_sample(sys, 200, seed=5), 400)
        tracemalloc.start()
        try:
            lf = time_logs(sys, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < lf.nbytes + rows.nbytes


def _outcome(fn, *args):
    """fn(*args), or the text of the ChainInfeasible it raises."""
    try:
        return fn(*args)
    except ChainInfeasible as exc:
        return str(exc)


class TestMeasureConstantsLead:
    """measure_constants_h's cocycle orbits start from rows 0..199 of its
    400 sample points' F lead and give what a fresh 200-row lead gives."""

    @pytest.mark.parametrize("model, params", [
        ("cat", {}), ("perturbed_cat", {}), ("solenoid", {}), ("dfa", {}),
        ("dfa", {"delta": 0.02, "rho": 0.05}),
        ("dfa", {"delta": 0.1, "rho": 0.3}),
        ("dfa", {"delta": 0.3, "rho": 0.05}),   # infeasible at xi = 1
        ("dfa", {"delta": 0.5, "rho": 0.45})])
    @pytest.mark.parametrize("xi", [None, 0.5])
    def test_equals_the_own_lead_form(self, monkeypatch, model, params, xi):
        def own_lead(s, rows, lead):
            # the logs themselves, not only the chain read from them
            want = oracles.time_logs_oracle(s, rows)
            assert np.array_equal(time_logs(s, rows, lead=lead), want)
            return want

        got_sys, want_sys = build(model, **params), build(model, **params)
        got = _outcome(measure_constants_h, got_sys, xi)
        monkeypatch.setattr(models, "time_logs", own_lead)
        want = _outcome(measure_constants_h, want_sys, xi)
        assert got == want
        assert got_sys.constants == want_sys.constants

    @pytest.mark.parametrize("model", ["pcat", "sol"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_lead_prefix_is_the_prefix_lead(self, request, model, seed):
        # every walk step is row-local on these models, so rows 0..199 of a
        # 400-row lead are the 200-row lead of their anchors
        sys = request.getfixturevalue(model)
        lo, hi = np.array(sys.chart.lower), np.array(sys.chart.upper)
        cand = lo + (hi - lo) * np.random.default_rng(seed).random(
            (4000, sys.dim))
        pts = cand[sys.in_region(cand)][:400]
        assert len(pts) == 400
        long = dataclasses.replace(sys).splitting.f_frames(pts)
        short = dataclasses.replace(sys).splitting.f_frames(pts[:200])
        assert np.array_equal(long[:200], short)
        assert np.array_equal(short, oracles.f_batch_oracle(sys, pts[:200],
                                                            sys.depth))


class TestTangentCounts:
    """Each call's point count.  Df runs on blocks of POINTS // N orbit rows
    of N points, so 200-point rows go 20 to a call and 400-point rows 10;
    every total equals one call per row.  A lead's rows are counted with
    oracles.stacked_calls, as its length is the system's depth."""

    def test_dfa_logs_evaluate_each_row_tangent_once(self, dfa):
        calls = {}
        pts = region_sample(dfa, 200, seed=5)
        cocycle_logs_batch(_counted(dfa, calls), pts, 400)
        # forward: the orbit, then the pull's (depth - 1)-step tail;
        # inverse: the push's depth-step backward orbit; tangent: the 401
        # rows, then the pull's depth - 1 and the push's depth seed rows
        depth = dfa.depth
        assert calls == {"forward": [200] * (400 + depth - 1),
                         "inverse": [200] * depth,
                         "tangent": [200 * 20] * 20 + [200]
                         + oracles.stacked_calls(200, depth - 1)
                         + oracles.stacked_calls(200, depth)}
        assert sum(calls["tangent"]) == 200 * (401 + depth - 1 + depth)

    def test_lambda_fraction_runs_no_pull(self, dfa):
        calls = {}
        lambda_fraction(_counted(dfa, calls), 0.9, 30)
        # the 31 rows of 400 samples' 30-step orbits and the push alone: no
        # pull tail.  The push's seed rows come first, then the orbit's
        # rows as the F logs stream them
        depth = dfa.depth
        assert calls == {"forward": [400] * 30, "inverse": [400] * depth,
                         "tangent": oracles.stacked_calls(400, depth)
                         + [400 * 10] * 3 + [400]}
        assert sum(calls["tangent"]) == 400 * (31 + depth)

    def test_measure_constants_h_pulls_only_at_its_sample_points(self, dfa):
        calls = {}
        measure_constants_h(_counted(dfa, calls))
        # forward: the burn-in, the pull's tail from the 400 sample points,
        # then the 200 cocycle orbits, which pull none; inverse: the push
        # at the samples alone, whose F frames seed the orbits' logs;
        # tangent: Df at the samples, which also ends the pull, the pull's
        # depth - 1 seed rows, the push's depth, then the 401 orbit rows
        depth = dfa.depth
        assert calls == {
            "forward": [400] * (30 + depth - 1) + [200] * 400,
            "inverse": [400] * depth,
            "tangent": [400] + oracles.stacked_calls(400, depth - 1)
            + oracles.stacked_calls(400, depth) + [200 * 20] * 20 + [200]}
        assert sum(calls["tangent"]) == (400 * (1 + depth - 1 + depth)
                                         + 200 * 401)

    def test_hyperbolic_mass_maps_its_orbit_once(self, dfa):
        calls = {}
        x = region_sample(dfa, 3, seed=2)[1]
        d = make_disk(dfa, x, dfa.splitting.f_frames(x)[:, 0], 0.02)
        measures.hyperbolic_mass(_counted(dfa, calls), d, 30, 0.6, 0.05,
                                 0.9, 0.1)
        # the disk's 30-step orbit and its push; no pull.  Its 101 samples
        # fit 40 rows to a call: the push's seed rows, then all 31 orbit rows
        n = d.n_samples
        assert n == 101 and POINTS // n == 40
        assert calls == {"forward": [n] * 30, "inverse": [n] * dfa.depth,
                         "tangent": oracles.stacked_calls(n, dfa.depth)
                         + [n * 31]}
        assert sum(calls["tangent"]) == n * (31 + dfa.depth)

    @pytest.mark.parametrize("n", [4, 10])
    def test_carve_takes_df_at_its_center_rows_once(self, dfa, n):
        x = region_sample(dfa, 1, seed=8, burn_in=3)[0]
        d = make_disk(dfa, x, dfa.splitting.f_frames(x)[:, 0], 0.02)
        calls = {}
        hyperbolic_component(_counted(dfa, calls), d, n, 0.02, sigma=0.5)
        # Df at the center's n + 1 rows in one call, which certifies n and
        # feeds the edge search; the push's seed rows; then the trace's n
        # steps, each at the carved disk's samples
        assert calls["tangent"] == [n + 1, dfa.depth] + [d.n_samples] * n

    def test_2d_carve_takes_no_df_at_the_disks_nodes(self, cat4):
        x = np.array([0.15, 0.3, 0.55, 0.8])
        d = make_disk(cat4, x, cat4.splitting.f_frames(x), 0.02,
                      resolution=41)
        n = 2
        calls = {}
        hyperbolic_component(_counted(cat4, calls), d, n, 0.02, sigma=0.5)
        # Df at the center's n + 1 rows certifies n and feeds the pair
        # distances; the center's n steps, then n steps of every node but
        # the center, which rides Df (cat4 declares its splitting: no sweeps)
        assert calls == {"forward": [1] * n + [d.n_samples - 1] * n,
                         "tangent": [n + 1]}

    def test_point_queries_run_only_their_bundle(self, dfa):
        pts = region_sample(dfa, 5, seed=6)
        calls = {}
        _counted(dfa, calls).splitting.f_frames(pts)
        depth = dfa.depth
        assert calls == {"inverse": [5] * depth, "tangent": [5 * depth]}
        calls = {}
        _counted(dfa, calls).splitting.e_frames(pts)
        # the pull's depth - 1 seed rows in one call, then the query row
        assert calls == {"forward": [5] * (depth - 1),
                         "tangent": [5 * (depth - 1), 5]}

    @pytest.mark.parametrize("model", MODELS)
    def test_cone_contraction_takes_df_in_one_call(self, request, model):
        sys = request.getfixturevalue(model)
        x = region_sample(sys, 1, seed=8, burn_in=3)[0]
        n = 20
        frames = {}
        _frames(_counted(sys, frames), x[None], n)
        calls = {}
        verify_cone_contraction(_counted(sys, calls), x, 0.5, 0.4, n)
        # Df at the orbit's rows and the frames' seed rows only: the rows'
        # Df that feeds the frames also pushes the cone vectors
        assert calls["tangent"] == frames["tangent"]

    def test_no_call_exceeds_the_point_budget(self, dfa, sol):
        # a call takes at most POINTS points, or one row when a row has more
        calls = {}
        measure_constants_h(_counted(dfa, calls))
        assert max(calls["tangent"]) == POINTS // 400 * 400
        calls = {}
        cocycle_logs_batch(_counted(dfa, calls),
                           region_sample(dfa, 300, seed=5), 400)
        assert max(calls["tangent"]) == POINTS // 300 * 300
        calls = {}
        domination_robustness_radius(_counted(sol, calls), 0.14, 0.16)
        # Df at the grid's points in the region, more than POINTS / 2 of
        # them: the push's seed tangents come one row to a call
        inside = calls["tangent"][0]
        assert inside > POINTS // 2
        assert calls["tangent"] == [inside] * (1 + sol.depth)

    @pytest.mark.parametrize("model", ["pcat", "dfa", "sol"])
    def test_splitting_sweeps_the_systems_own_map(self, request, model):
        # a dataclasses.replace copy with other callables: the copy's
        # splitting runs its sweeps through them, and gets the same frames
        sys = request.getfixturevalue(model)
        pts = region_sample(sys, 7, seed=3, burn_in=2)
        calls = {}
        f = _counted(sys, calls).splitting.f_frames(pts)
        assert calls["inverse"] == [7] * sys.depth
        assert np.array_equal(f, sys.splitting.f_frames(pts))
        calls = {}
        e = _counted(sys, calls).splitting.e_frames(pts)
        # the solenoid declares its fibre-plane E: nothing to sweep
        pulls = [] if sys.e_frame is not None else [7] * (sys.depth - 1)
        assert calls.get("forward", []) == pulls
        assert np.array_equal(e, sys.splitting.e_frames(pts))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


_TINY = 2.0 ** -969
# the cases dlarfg branches on: +-0.0 in either slot or both, one entry 0,
# both sides of the rescale threshold 2^-969, subnormals, and magnitudes
# from e^-700 to overflow, with a |b| below 2^-969 whose tau overflows
PLANE_CASES = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
               (0.0, 1.5), (-0.0, -2.5), (3.0, 0.0), (-3.0, -0.0),
               (_TINY, _TINY), (-_TINY, 0.5 * _TINY),
               (0.5 * _TINY, -0.25 * _TINY), (2.0 * _TINY, _TINY),
               (_TINY * (1 - 2.0 ** -52), 0.0), (5e-324, -5e-324),
               (1e-310, 3e-320), (np.exp(-700.0), np.exp(-699.0)),
               (1e300, -1e300), (1.7e308, 1.7e308), (-1e308, 1e-308),
               (1.7e308, 1e-310)]


def _plane_stack(n, rng):
    """(n, 2, 1) columns, every other one cycling through PLANE_CASES."""
    col = rng.standard_normal((n, 2)) * np.exp(rng.uniform(-700, 700, (n, 2)))
    for i in range(n):
        if i % 2:
            col[i] = PLANE_CASES[(i // 2) % len(PLANE_CASES)]
    return col[:, :, None]


def _line_cases(d):
    """dlarfg's cases for d entries: a zero tail (H = I) under each sign of
    zero, subnormals, and values around 1e-300 and 1e300."""
    return [[0.0] * d, [-0.0] * d, [2.5] + [0.0] * (d - 1),
            [-2.5] + [-0.0] * (d - 1), [0.0, 1.5] + [0.0] * (d - 2),
            [1e-310, 3e-320] + [-5e-324] * (d - 2),
            [5e-324] * d, [1e-300, -1e-300] + [1e-300] * (d - 2),
            [1e300, -1e300] + [1e300] * (d - 2),
            [1e-300, 1e300] + [0.0] * (d - 2), [_TINY] * d,
            [-1e300] + [1e-300] * (d - 1)]


def _line_stack(n, d, rng):
    """(n, d, 1) columns, every other one cycling through _line_cases(d)."""
    cases = _line_cases(d)
    col = rng.standard_normal((n, d)) * np.exp(rng.uniform(-690, 690, (n, d)))
    for i in range(n):
        if i % 2:
            col[i] = cases[(i // 2) % len(cases)]
    return col[:, :, None]


# values around which the planar path's guard decides: NaN, +-inf, +-0,
# subnormals and safmin send a call to raw LAPACK, 1.0 passes
SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310,
           _TINY, 1.0]


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _assert_lapack_bits(got, want):
    """got is want as int64 bit patterns (so +0.0 and -0.0 differ), except
    that a NaN's sign bit is free: it follows numpy's loops."""
    nan = np.isnan(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(_bits(got)[~nan], _bits(want)[~nan])


class TestPlaneQR:
    """The (..., 2, 1) path of _batch_qr, the guarded planar formula and on
    a refused stack np.linalg.qr's raw call, against np.linalg.qr's dgeqrf +
    dorgqr as int64 bit patterns (so +0.0 and -0.0 differ)."""

    @pytest.mark.parametrize("n", [1, 2, 63, 400])
    def test_bit_identical_to_lapack_on_edge_cases(self, n):
        fr = _plane_stack(n, np.random.default_rng(n))
        with np.errstate(all="ignore"):
            want = oracles.batch_qr_oracle(fr)
        assert np.array_equal(_bits(_batch_qr(fr)), _bits(want))

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(cols=st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=40))
    def test_bit_identical_to_lapack_on_random_floats(self, cols):
        fr = np.array(cols, float)[:, :, None]
        with np.errstate(all="ignore"):
            want = oracles.batch_qr_oracle(fr)
        assert np.array_equal(_bits(_batch_qr(fr)), _bits(want))

    def test_each_edge_case_alone_is_bit_identical_to_lapack(self):
        # a stack of one row meets the planar guard by itself
        for case in PLANE_CASES:
            fr = np.array(case, float)[None, :, None]
            with np.errstate(all="ignore"):
                want = oracles.batch_qr_oracle(fr)
            assert np.array_equal(_bits(_batch_qr(fr)), _bits(want)), case

    def test_other_shapes_keep_lapack(self):
        rng = np.random.default_rng(2)
        for shape in [(5, 3, 1), (3, 1), (4, 1), (2, 3, 3, 1), (5, 2, 4, 1),
                      (0, 3, 1), (5, 4, 2), (5, 2, 2), (3, 2, 5, 2, 1)]:
            fr = rng.standard_normal(shape)
            got = _batch_qr(fr)
            assert got.shape == oracles.batch_qr_oracle(fr).shape
            assert np.array_equal(_bits(got),
                                  _bits(oracles.batch_qr_oracle(fr)))


class TestLineQR:
    """The (..., d, 1) path of _batch_qr for d >= 3, np.linalg.qr's raw
    dgeqrf with dorg2r's one-column Q built in numpy, against np.linalg.qr's
    dgeqrf + dorgqr: bit for bit on finite input; and for every d, the
    planar one included, LAPACK's NaN entries and every other bit on NaN or
    inf."""

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("n", [1, 2, 63, 400])
    def test_bit_identical_to_lapack_on_edge_cases(self, d, n):
        fr = _line_stack(n, d, np.random.default_rng(10 * n + d))
        with np.errstate(all="ignore"):
            want = oracles.batch_qr_oracle(fr)
        assert np.array_equal(_bits(_batch_qr(fr)), _bits(want))

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(cols=st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE),
                         min_size=1, max_size=40))
    def test_bit_identical_to_lapack_on_random_floats(self, cols):
        for d in (3, 4):
            fr = np.array(cols, float)[:, :d, None]
            with np.errstate(all="ignore"):
                want = oracles.batch_qr_oracle(fr)
            assert np.array_equal(_bits(_batch_qr(fr)), _bits(want)), d

    @pytest.mark.parametrize("d", [3, 4])
    def test_each_edge_case_alone_is_bit_identical_to_lapack(self, d):
        for case in _line_cases(d):
            fr = np.array(case, float)[None, :, None]
            with np.errstate(all="ignore"):
                want = oracles.batch_qr_oracle(fr)
            assert np.array_equal(_bits(_batch_qr(fr)), _bits(want)), case

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("lead", [(), (1,), (3, 7), (600,)])
    def test_nan_and_inf_keep_lapacks_nans_and_every_other_bit(self, d,
                                                               lead):
        # NaN, +-inf, +-0 and subnormal entries, alone and among finite rows
        shape = lead + (d, 1)
        rng = np.random.default_rng(len(lead) + 10 * d)
        for _ in range(40):
            fr = (rng.choice(SPECIAL, size=shape)
                  * np.where(rng.random(shape) < 0.5, 1.0,
                             rng.standard_normal(shape)))
            with np.errstate(all="ignore"):
                _assert_lapack_bits(_batch_qr(fr),
                                    oracles.batch_qr_oracle(fr))
        for a in SPECIAL:
            for b in SPECIAL:
                fr = np.array([a] + [b] * (d - 1))[None, :, None]
                with np.errstate(all="ignore"):
                    _assert_lapack_bits(_batch_qr(fr),
                                        oracles.batch_qr_oracle(fr))


def _qr_calls(monkeypatch):
    """(caller's function name, input shape, mode) of every np.linalg.qr
    call."""
    calls = []
    real = np.linalg.qr

    def spy(a, mode="reduced"):
        calls.append((inspect.currentframe().f_back.f_code.co_name,
                      np.shape(a), mode))
        return real(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", spy)
    return calls


class TestQrCalls:
    # each test builds its own system: a lead memo filled by an earlier
    # test would skip the seed frames' calls
    def test_planar_streams_call_lapack_only_for_seed_frames(self,
                                                             monkeypatch):
        dfa = build("dfa")
        pts = region_sample(dfa, 200, seed=5)
        calls = _qr_calls(monkeypatch)
        cocycle_logs_batch(dfa, pts, 50)
        measure_constants_h(build("perturbed_cat"))
        assert calls and {name for name, _, _ in calls} == {
            "_generic_frames"}

    def test_solenoid_frames_stay_on_lapack(self, monkeypatch):
        sol = build("solenoid", c=0.25, d=0.5)
        pts = region_sample(sol, 20, seed=5, burn_in=3)
        calls = _qr_calls(monkeypatch)
        cocycle_logs_batch(sol, pts, 5)
        assert ("_batch_qr", (20, 3, 1), "raw") in calls

    def test_a_line_stack_takes_one_raw_call_and_a_planar_one_none(
            self, monkeypatch):
        rng = np.random.default_rng(4)
        calls = _qr_calls(monkeypatch)
        for shape in [(3, 1), (20, 3, 1), (2, 5, 4, 1)]:
            _batch_qr(rng.standard_normal(shape))
            assert calls == [("_batch_qr", shape, "raw")]
            calls.clear()
        # planar stacks that the guard lets through, the empty one included
        for fr in (rng.standard_normal((20, 2, 1)),
                   rng.standard_normal((3, 4, 2, 1)), np.array([[1.0], [2.0]]),
                   np.zeros((0, 2, 1))):
            _batch_qr(fr)
        assert calls == []
        _batch_qr(rng.standard_normal((20, 4, 2)))
        assert calls == [("_batch_qr", (20, 4, 2), "reduced")]

    def test_a_planar_stack_the_guard_refuses_takes_one_raw_call(
            self, monkeypatch):
        rng = np.random.default_rng(4)
        calls = _qr_calls(monkeypatch)
        # one row with b == 0, a tiny b or beta, or a value that is not finite
        # sends the whole stack to raw LAPACK
        for case in [(1.0, 0.0), (2.0, -0.0), (_TINY, 0.5 * _TINY),
                     (1.0, 5e-324), (np.nan, 1.0), (1.0, -np.inf)]:
            fr = rng.standard_normal((20, 2, 1))
            fr[7, :, 0] = case
            _batch_qr(fr)
            assert calls == [("_batch_qr", (20, 2, 1), "raw")], case
            calls.clear()
        _batch_qr(_plane_stack(40, rng))
        assert calls == [("_batch_qr", (40, 2, 1), "raw")]
