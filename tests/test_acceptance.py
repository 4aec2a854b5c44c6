"""Acceptance gate: the nine binding criteria, each timed and reported.

Every test prints one `[PASS]`/`[FAIL]` line for its criterion; the
conftest terminal-summary hook repeats those lines at the end of the run.
Runtime budgets are asserted, not just reported.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import srblab
from srblab import cones, disks, experiments, measures
from srblab.models import lambda_fraction, measure_constants_h, region_sample
from srblab.pliss import PlissParams, density_theta, hyperbolic_times, pliss_times
from srblab.systems import cocycle_logs, cocycle_logs_batch

from .conftest import LAM_U, V_U
from .oracles import admissible_sequence, hyperbolic_oracle, pliss_oracle

RESULT_LINES = []


@contextmanager
def criterion(number, label, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget_s:.0f}s budget")
    except BaseException:
        elapsed = time.perf_counter() - t0
        line = f"[FAIL] criterion-{number}: {label} ({elapsed:.2f}s)"
        RESULT_LINES.append(line)
        print(line, flush=True)
        raise
    budget = f", budget {budget_s:.0f}s" if budget_s is not None else ""
    line = f"[PASS] criterion-{number}: {label} ({elapsed:.2f}s{budget})"
    RESULT_LINES.append(line)
    print(line, flush=True)


def unstable_vector(sys, x):
    _, f = sys.splitting.at(x)
    return f


def test_criterion_1_selection_oracle_equivalence():
    with criterion(1, "selection detectors match O(N^2) oracles on 10,000 "
                      "sequences with count > theta*N", budget_s=10.0):
        rng = np.random.default_rng(20260816)
        for _ in range(10_000):
            n = int(rng.integers(1, 65))
            c0 = float(rng.uniform(0.5, 2.0))
            c2 = float(rng.uniform(0.0, 0.4)) * c0
            c1 = float(rng.uniform(c2 + 0.1 * c0, 0.8 * c0))
            b = admissible_sequence(rng, c0, c1, n)

            got = pliss_times(b, PlissParams(c0, c1, c2))
            assert np.array_equal(got, pliss_oracle(b, c2))
            theta = (c1 - c2) / (c0 - c2)
            assert len(got) > theta * n

            sigma = float(np.exp(-c2))
            rep = hyperbolic_times(-b, sigma)
            assert np.array_equal(rep.times, hyperbolic_oracle(-b, sigma))


def test_criterion_2_cat_exactness(cat):
    with criterion(2, "cat map: backward norm, every n hyperbolic, "
                      "domination ratio, all within 1e-12", budget_s=5.0):
        n = 10_000
        logs = cocycle_logs(cat, np.array([0.2, 0.7]), n)
        lam_s = (3.0 - np.sqrt(5.0)) / 2.0
        back_norm = np.exp(np.asarray(logs.log_f_inv))
        assert np.max(np.abs(back_norm - lam_s)) <= 1e-12

        times = hyperbolic_times(logs.f_inv_from_one(), 0.5).times
        assert np.array_equal(times, np.arange(1, n + 1))

        step_ratio = np.exp(np.asarray(logs.log_e)
                            + np.asarray(logs.log_f_inv))
        assert np.max(np.abs(step_ratio - LAM_U**-2)) <= 1e-12


def test_criterion_3_backward_contraction(cat, pcat, sol):
    label = ("backward contraction on carved components, three models, "
             "violation <= 1 + 5*grid-step, < 30s per model")
    with criterion(3, label):
        resolution = 401
        grid_step = 2.0 / (resolution - 1)
        bound = 1.0 + 5.0 * grid_step
        cases = [
            (cat, np.array([0.2, 0.7]), 0.5),
            (pcat, np.array([0.2, 0.7]),
             measure_constants_h(pcat, xi=0.5).lambda2),
            (sol, sol.chart.wrap([0.3, 0.0, 0.0]),
             measure_constants_h(sol, xi=0.5).lambda2),
        ]
        for sys, x, sigma in cases:
            t0 = time.perf_counter()
            d = disks.make_disk(sys, x, unstable_vector(sys, x), 0.02,
                                resolution=resolution)
            logs = cocycle_logs(sys, x, 60)
            times = [int(t) for t in
                     hyperbolic_times(logs.f_inv_from_one(), sigma).times
                     if t <= 50]
            assert times, f"no hyperbolic times <= 50 on {sys.name}"
            for n in sorted({times[len(times) // 2], times[-1]}):
                carved = disks.hyperbolic_component(sys, d, n, 0.02,
                                                    sigma=sigma)
                rep = disks.backward_contraction_check(sys, carved, n, sigma)
                assert rep.max_violation <= bound, (
                    f"{sys.name}, n = {n}: {rep.max_violation} > {bound}")
            per_model = time.perf_counter() - t0
            assert per_model < 30.0, f"{sys.name} took {per_model:.1f}s"


def test_criterion_4_bounded_distortion(cat, pcat):
    label = ("distortion within [1/K, K] on 500+ pairs at hyperbolic times "
             "<= 30; exactly 1 on the cat map")
    with criterion(4, label, budget_s=30.0):
        lam2 = measure_constants_h(pcat, xi=0.5).lambda2
        dc = disks.measure_distortion_constants(pcat, a=0.05, lambda2=lam2)

        pairs = 0
        k_bound = None
        worst_low, worst_high = np.inf, -np.inf
        for x in region_sample(pcat, 6, seed=5):
            logs = cocycle_logs(pcat, x, 30)
            times = [int(t) for t in
                     hyperbolic_times(logs.f_inv_from_one(), lam2).times
                     if t <= 30]
            d = disks.make_disk(pcat, x, unstable_vector(pcat, x), 0.02,
                                resolution=401)
            for n in times[:2]:
                carved = disks.hyperbolic_component(pcat, d, n, 0.02,
                                                    sigma=lam2)
                if k_bound is None:
                    k_bound = disks.distortion(
                        pcat, carved, carved.center_index, n,
                        constants=dc).bound_k
                ratios = disks.distortion_profile(pcat, carved, n)
                pairs += len(ratios)
                worst_low = min(worst_low, float(np.min(ratios)))
                worst_high = max(worst_high, float(np.max(ratios)))
        assert pairs >= 500
        assert k_bound is not None and np.isfinite(k_bound)
        assert 1.0 / k_bound <= worst_low <= worst_high <= k_bound

        d = disks.make_disk(cat, np.array([0.2, 0.7]), V_U, 0.02,
                            resolution=401)
        carved = disks.hyperbolic_component(cat, d, 10, 0.02, sigma=0.5)
        prof = disks.distortion_profile(cat, carved, 10)
        assert np.max(np.abs(prof - 1.0)) <= 1e-10


def test_criterion_5_curvature_recursion(pcat):
    label = ("curvature: single step within 5%, n-step bound on 20 disks, "
             "flat disk measures 0")
    with criterion(5, label, budget_s=60.0):
        ch = measure_constants_h(pcat, xi=0.5)
        cc = disks.curvature_constants(pcat, ch)

        def graph_disk(x):
            f = unstable_vector(pcat, x)
            base = f.frame[:, 0]
            normal = np.array([-base[1], base[0]])
            return disks.make_graph_disk(pcat, x, base, normal, 0.02,
                                         resolution=401, curvature=0.3)

        # flat-disk case: measured curvature is zero up to rounding
        flat = disks.make_disk(pcat, np.array([0.2, 0.7]),
                               unstable_vector(pcat, np.array([0.2, 0.7])),
                               0.02, resolution=401)
        assert disks.holder_curvature(flat, cc.xi) < 1e-12

        # single-step claim within a 5% refinement tolerance
        single_done = False
        checked = 0
        for x in region_sample(pcat, 40, seed=9):
            logs = cocycle_logs(pcat, x, 12)
            times = [int(t) for t in
                     hyperbolic_times(logs.f_inv_from_one(),
                                      ch.lambda2).times if t <= 8]
            if not times:
                continue
            if not single_done and times[0] == 1:
                carved = disks.hyperbolic_component(pcat, graph_disk(x), 1,
                                                    0.02, sigma=ch.lambda2)
                rep = disks.curvature_recursion(pcat, carved, 1, cc,
                                                check=False)
                assert rep.measured <= rep.bound * 1.05
                single_done = True
            if checked < 20:
                n = times[-1]
                carved = disks.hyperbolic_component(pcat, graph_disk(x), n,
                                                    0.02, sigma=ch.lambda2)
                rep = disks.curvature_recursion(pcat, carved, n, cc,
                                                check=False)
                assert rep.measured <= rep.bound, (
                    f"n-step bound violated at {x}, n = {n}")
                checked += 1
            if single_done and checked >= 20:
                break
        assert single_done and checked >= 20


def test_criterion_6_cesaro_invariance_defect(cat, pcat, sol, dfa):
    label = "Cesaro defect <= 2B/n for all models at n in {100, 1000, 10000}"
    with criterion(6, label, budget_s=30.0):
        for sys in (cat, pcat, sol, dfa):
            obs = measures.default_observables(sys.chart)
            if sys.dim == 2:
                x = np.array([0.2, 0.7])
            else:
                x = sys.chart.wrap([0.3, 0.0, 0.0])
            d = disks.make_disk(sys, x, unstable_vector(sys, x), 0.02,
                                resolution=101)
            for n in (100, 1000, 10_000):
                rep = measures.invariance_defect(sys, d, n, obs)
                assert rep.max_excess <= 0.0, (
                    f"{sys.name} at n = {n}: excess {rep.max_excess}")


def test_criterion_7_physical_convergence(cat):
    label = ("cat pushforwards: weak-star distance to the flat reference "
             "< 0.03 and basin fraction >= 0.99 at n = 1e5")
    with criterion(7, label, budget_s=60.0):
        obs = measures.default_observables(cat.chart)
        assert len(obs) == 8
        d = disks.make_disk(cat, np.array([0.2, 0.7]), V_U, 0.2,
                            resolution=401)
        integrals = measures.pushforward_integrals(cat, d, 100_000, obs)
        ref = {o.name: o.reference_integral for o in obs}
        assert measures.weak_star_distance(integrals, ref, obs) < 0.03

        frac = measures.physical_fraction(cat, ref, obs, 100_000, 0.02, 200,
                                          seed=1)
        assert frac >= 0.99


def test_criterion_8_nonuniform_regime(dfa):
    label = ("dfa: membership fraction positive and stable, time density "
             ">= theta on >= 90% of orbits, captured mass positive")
    with criterion(8, label, budget_s=120.0):
        ch = measure_constants_h(dfa)
        lam1, sigma = ch.lambda1, ch.lambda2
        theta = density_theta(lam1, sigma, dfa.constants.c0)

        n = 300
        frac1, qual = lambda_fraction(dfa, lam1, n, seed=7)
        frac2, _ = lambda_fraction(dfa, lam1, 2 * n, seed=7)
        assert frac1 > 0.0 and frac2 > 0.0
        assert abs(frac1 - frac2) <= 0.2 * frac1

        sample = qual[: min(len(qual), 200)]
        _, lf = cocycle_logs_batch(dfa, sample, n)
        dens = np.asarray([len(hyperbolic_times(row, sigma).times) / n
                           for row in lf])
        assert np.mean(dens >= theta) >= 0.9

        x = qual[0]
        d = disks.make_disk(dfa, x, unstable_vector(dfa, x), 0.02,
                            resolution=101)
        rep = measures.hyperbolic_mass(dfa, d, n, sigma, 0.05, lam=lam1,
                                       theta=theta)
        assert rep.eta > 0.0


def test_criterion_9_determinism(tmp_path):
    label = "summary bytes identical across repeat runs"
    with criterion(9, label):
        configs = [
            {"model": {"name": "cat"}, "experiment": "pliss_demo",
             "horizon": 64, "seed": 3},
            {"model": {"name": "cat"}, "experiment": "physical_basin",
             "horizon": 2000, "constants": {"tol": 0.05, "samples": 100},
             "seed": 11},
        ]
        for idx, raw in enumerate(configs):
            cfg = experiments.parse_config(raw)
            blobs = []
            for tag in ("r1", "r2"):
                out = tmp_path / f"{idx}-{tag}"
                experiments.run_experiment(cfg, out_dir=str(out))
                blobs.append((out / "summary.json").read_bytes())
            assert blobs[0] == blobs[1], raw["experiment"]
