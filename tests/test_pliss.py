import tracemalloc

import numpy as np
import pytest

from srblab import (HypothesisViolated, PlissParams, density_theta,
                    hyperbolic_times, lambda_membership_batch, pliss_times)
from srblab.models import build, region_sample
from srblab.systems import _log_f_inv, orbit_coords

from .conftest import LOG_LAM_U
from .oracles import (admissible_sequence, hyperbolic_oracle,
                      hyperbolic_times_loop, lambda_membership_single,
                      membership_oracle, pliss_oracle, pliss_times_loop)


def member(v, lam):
    """Lambda membership of one row, through the batch."""
    return bool(lambda_membership_batch(v[None], lam)[0])


class TestPlissTimes:
    def test_constant_sequence_selects_everything(self):
        p = PlissParams(c0=2.0, c1=1.2, c2=1.0)
        out = pliss_times(np.full(3, 1.2), p)
        assert list(out) == [1, 2, 3]

    def test_alternating_example(self):
        # windows ending at even indices dip to average 1 == c2 on the last
        # two entries only when they close at an odd peak
        p = PlissParams(c0=2.0, c1=1.2, c2=1.0)
        out = pliss_times(np.array([2.0, 0.0, 2.0, 0.0, 2.0]), p)
        assert list(out) == [1, 3, 5]
        assert len(out) > p.theta * 5

    def test_cat_cocycle_all_times(self, cat):
        b = np.full(100, LOG_LAM_U)
        out = pliss_times(b, PlissParams(c0=1.0, c1=0.96, c2=0.5))
        assert list(out) == list(range(1, 101))

    def test_hypothesis_ceiling_violation(self):
        p = PlissParams(c0=1.0, c1=0.5, c2=0.2)
        with pytest.raises(HypothesisViolated):
            pliss_times(np.array([0.4, 1.5, 0.4]), p)

    def test_hypothesis_mean_violation(self):
        p = PlissParams(c0=1.0, c1=0.9, c2=0.2)
        with pytest.raises(HypothesisViolated):
            pliss_times(np.array([0.5, 0.5, 0.5]), p)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(3, 65))
            c0 = float(rng.uniform(0.5, 2.0))
            c2 = float(rng.uniform(0.0, 0.4)) * c0
            c1 = float(rng.uniform(c2 + 0.1 * c0, 0.8 * c0))
            b = admissible_sequence(rng, c0, c1, n)
            got = pliss_times(b, PlissParams(c0, c1, c2))
            want = pliss_oracle(b, c2)
            assert np.array_equal(got, want)
            assert len(got) > (c1 - c2) / (c0 - c2) * n

    def test_theta_formula(self):
        p = PlissParams(c0=3.0, c1=2.0, c2=1.0)
        assert p.theta == pytest.approx(0.5)


class TestHyperbolicTimes:
    def test_uniformly_expanding_lists_everything(self):
        rep = hyperbolic_times(np.full(20, np.log(0.3)), 0.5)
        assert list(rep.times) == list(range(1, 21))
        assert rep.density == 1.0

    def test_two_entry_example(self):
        rep = hyperbolic_times(np.log(np.array([0.9, 0.1])), 0.5)
        assert list(rep.times) == [2]
        assert rep.density == 0.5

    def test_contracting_cocycle_is_empty(self):
        rep = hyperbolic_times(np.full(10, np.log(2.0)), 0.99)
        assert len(rep.times) == 0

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 65))
            v = rng.uniform(-1.0, 1.0, n) - rng.uniform(0.0, 0.5)
            sigma = float(rng.uniform(0.3, 0.95))
            got = hyperbolic_times(v, sigma).times
            want = hyperbolic_oracle(v, sigma)
            assert np.array_equal(got, want)

    def test_monotone_in_sigma(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.uniform(-1.0, 0.3, int(rng.integers(4, 40)))
            small = set(hyperbolic_times(v, 0.4).times.tolist())
            large = set(hyperbolic_times(v, 0.7).times.tolist())
            assert small <= large

    def test_prefix_stability(self):
        # whether n qualifies depends only on entries 1..n
        rng = np.random.default_rng(13)
        for _ in range(200):
            v = rng.uniform(-1.0, 0.2, 30)
            full = set(hyperbolic_times(v, 0.6).times.tolist())
            head = set(hyperbolic_times(v[:17], 0.6).times.tolist())
            assert head == {n for n in full if n <= 17}

    def test_matches_pliss_selection(self):
        # the two selections are the same windows with flipped signs
        rng = np.random.default_rng(17)
        for _ in range(200):
            v = rng.uniform(-1.0, 0.5, 25)
            sigma = 0.55
            ht = hyperbolic_times(v, sigma).times
            po = pliss_oracle(-v, -np.log(sigma))
            assert np.array_equal(ht, po)

    @pytest.mark.parametrize("name", [
        "cat", "perturbed_cat",
        pytest.param("dfa", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason="ROADMAP item 15"))])
    def test_times_bound_the_backward_contraction(self, name):
        # a time n stands for ||Df^-k | F(f^n x)|| <= sigma^k for 1 <= k <= n;
        # for a 1-D F its log is the sum of log_f_inv at f^(n-k) .. f^(n-1),
        # while srblab feeds hyperbolic_times the entries at f^1 .. f^n
        sys = build(name)
        n, sigma = 60, 0.5
        pts = region_sample(sys, 400, seed=5, burn_in=10)
        lf = _log_f_inv(sys, orbit_coords(sys, pts, n))
        broken = []
        for s, row in enumerate(lf):
            for t in hyperbolic_times(row[1:], sigma).times:
                # entry k - 1: the sum over f^(t-k) .. f^(t-1)
                back = np.cumsum(row[t - 1::-1])
                if np.max(back - np.arange(1, t + 1) * np.log(sigma)) > 1e-12:
                    broken.append((s, int(t)))
        assert not broken, f"{len(broken)} times break it, first {broken[0]}"


class TestLambdaMembership:
    def test_constant_cat_cocycle(self):
        v = np.full(50, -LOG_LAM_U)
        assert member(v, 0.5)

    def test_zero_cocycle_never_member(self):
        assert not member(np.zeros(10), 0.9)

    def test_prefix_average_example(self):
        # the prefix averages are -1.5, -0.75 and -1.1667: the second is
        # above log(1/e), so the row fails although its full average passes
        v = np.array([-1.5, 0.0, -2.0])
        lam = np.exp(-1.0)
        assert not member(v, lam)
        assert member(v[:1], lam)
        assert member(np.array([-1.5, -0.6, -2.0]), lam)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            n = int(rng.integers(2, 50))
            v = rng.uniform(-1.5, 0.5, n)
            lam = float(rng.uniform(0.3, 0.9))
            assert member(v, lam) == membership_oracle(v, lam)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(37)
        rows = rng.uniform(-1.5, 0.2, (64, 20))
        got = lambda_membership_batch(rows, 0.6)
        want = np.array([lambda_membership_single(r, 0.6) for r in rows])
        assert np.array_equal(got, want)

    def test_batch_sums_in_place_on_its_own_copy(self):
        rows = np.random.default_rng(43).uniform(-1.5, 0.2, (400, 300))
        copy_bytes = rows.size * np.dtype(np.longdouble).itemsize
        tracemalloc.start()
        try:
            lambda_membership_batch(rows, 0.6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * copy_bytes

    def test_a_longdouble_input_comes_back_unchanged(self):
        rows = np.random.default_rng(47).uniform(-1.5, 0.2, (64, 20))
        wide = rows.astype(np.longdouble)
        before = wide.copy()
        got = lambda_membership_batch(wide, 0.6)
        assert np.array_equal(wide, before)
        assert 0 < np.count_nonzero(got) < len(got)
        assert np.array_equal(got, lambda_membership_batch(rows, 0.6))

    def test_anti_monotone_in_horizon(self):
        # extending the horizon can only remove members
        rng = np.random.default_rng(41)
        for _ in range(1000):
            v = rng.uniform(-1.2, 0.4, 24)
            if member(v, 0.7):
                assert member(v[:12], 0.7)


def tie_heavy(rng, n, step, p=(1 / 3, 1 / 3, 1 / 3)):
    """Entries from {0, step, 2 step}: short longdouble partial sums are exact,
    so adjusted prefix sums tie their running extremum often."""
    return rng.choice([0.0, step, 2.0 * step], size=n, p=p)


class TestRecordScan:
    """The record scan against the running-extremum loops it replaced."""

    def test_hyperbolic_times_random(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            v = rng.uniform(-1.0, 0.5, int(rng.integers(0, 80)))
            sigma = float(rng.uniform(0.3, 0.95))
            assert np.array_equal(hyperbolic_times(v, sigma).times,
                                  hyperbolic_times_loop(v, sigma))

    def test_hyperbolic_times_ties(self):
        rng = np.random.default_rng(103)
        for _ in range(500):
            sigma = float(rng.uniform(0.3, 0.95))
            v = tie_heavy(rng, int(rng.integers(1, 80)), np.log(sigma))
            got = hyperbolic_times(v, sigma).times
            assert got.dtype == hyperbolic_times_loop(v, sigma).dtype
            assert np.array_equal(got, hyperbolic_times_loop(v, sigma))

    def test_pliss_times_random(self):
        rng = np.random.default_rng(107)
        for _ in range(500):
            n = int(rng.integers(1, 80))
            c0 = float(rng.uniform(0.5, 2.0))
            c2 = float(rng.uniform(0.0, 0.4)) * c0
            c1 = float(rng.uniform(c2 + 0.1 * c0, 0.8 * c0))
            b = admissible_sequence(rng, c0, c1, n)
            assert np.array_equal(pliss_times(b, PlissParams(c0, c1, c2)),
                                  pliss_times_loop(b, c2))

    def test_pliss_times_ties(self):
        rng = np.random.default_rng(109)
        done = 0
        while done < 500:
            c2 = -np.log(float(rng.uniform(0.3, 0.95)))
            b = tie_heavy(rng, int(rng.integers(1, 80)), c2, p=(0.2, 0.2, 0.6))
            p = PlissParams(2.0 * c2, 1.05 * c2, c2)
            if np.sum(b) < p.c1 * len(b):
                continue
            assert np.array_equal(pliss_times(b, p), pliss_times_loop(b, c2))
            done += 1

    def test_membership_random_and_ties(self):
        rng = np.random.default_rng(113)
        for k in range(1000):
            n = int(rng.integers(1, 60))
            lam = float(rng.uniform(0.3, 0.9))
            v = (tie_heavy(rng, n, np.log(lam)) if k % 2
                 else rng.uniform(-1.5, 0.5, n))
            assert member(v, lam) is lambda_membership_single(v, lam)

    def test_long_sequences(self):
        rng = np.random.default_rng(127)
        n, sigma = 20000, 0.6
        for v in (rng.uniform(-1.0, 0.4, n), tie_heavy(rng, n, np.log(sigma))):
            assert np.array_equal(hyperbolic_times(v, sigma).times,
                                  hyperbolic_times_loop(v, sigma))
            assert member(v, sigma) is lambda_membership_single(v, sigma)
        c2 = -np.log(sigma)
        b = tie_heavy(rng, n, c2, p=(0.2, 0.2, 0.6))
        got = pliss_times(b, PlissParams(2.0 * c2, 1.05 * c2, c2))
        assert len(got) > 0
        assert np.array_equal(got, pliss_times_loop(b, c2))

    def test_batch_checks_its_arguments(self):
        rows = np.zeros((3, 5))
        with pytest.raises(ValueError, match="positive"):
            lambda_membership_batch(rows, 0.0)


class TestDensityTheta:
    def test_halfway_example(self):
        th = density_theta(np.exp(-2.0), np.exp(-1.0), 3.0)
        assert th == pytest.approx(0.5)

    def test_degenerate_gap(self):
        s2 = 0.6
        s1 = s2 - 1e-4 * (1.0 - s2)
        assert density_theta(s1, s2, 2.0) < 0.01

    def test_saturated_cocycle(self):
        s1 = 0.2
        assert density_theta(s1, 0.5, -np.log(s1)) == pytest.approx(1.0)

    def test_ordering_violation(self):
        with pytest.raises(HypothesisViolated):
            density_theta(0.6, 0.4, 2.0)
        with pytest.raises(HypothesisViolated):
            density_theta(0.2, 0.5, 0.1)

    def test_short_exact_ties_count(self):
        # constant entries exactly at the threshold: extended-precision
        # partial sums of <= 64 identical doubles are exact, so every tie
        # must count as satisfying the non-strict inequality
        v = np.full(64, np.log(0.5))
        assert len(hyperbolic_times(v, 0.5).times) == 64

    def test_long_cocycle_margin_robustness(self):
        # 1e5 entries a hair on either side of the threshold: accumulation
        # drift must stay far below a 1e-9 per-entry margin
        n = 100000
        below = np.full(n, np.log(0.5) - 1e-9)
        above = np.full(n, np.log(0.5) + 1e-9)
        assert len(hyperbolic_times(below, 0.5).times) == n
        assert len(hyperbolic_times(above, 0.5).times) == 0
