"""The benchmark's four workloads, each a list of srblab tasks.

A task is either an experiment config run through
``experiments.run_experiment`` (one worker, as the CLI defaults to) or a
criterion body written against srblab's public API.  Every task returns
``(verdict, quantities)``: whether all of its assertions held, and the
numbers those assertions were decided on.

The seed drives every input: config ``seed`` fields and disk centers.  A
center is drawn from ``region_sample`` with a seed taken from the workload's
generator; when the task's hypothesis pre-check (``cocycle_logs`` plus
``hyperbolic_times``) rejects it, the next one is drawn.  Drawing happens
once per run in ``plan``, outside the timed region.

Sizes are scaled down from the acceptance criteria so that one pass of a
workload takes 3 to 7 s of wall time on a 2-core host; NOTES.md lists them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# srblab is called through module attributes (srblab.x, disks.x), never
# through names imported into this module, so that the tracer's rebinding
# of srblab's namespaces also sees the calls made from here.
import srblab
from srblab import disks, experiments, measures


@dataclass
class Task:
    name: str
    run: Callable      # run(models, plan) -> (verdict, quantities)


@dataclass
class Workload:
    name: str
    models: tuple      # names built for set-up and at the start of each pass
    plan: Callable     # plan(seed) -> dict of drawn inputs
    tasks: list

    def build(self):
        """Fresh models, so no pass inherits another's caches or constants."""
        return {name: build_model(name) for name in self.models}


# ---------------------------------------------------------------- inputs

_LAM_U = (3.0 + np.sqrt(5.0)) / 2.0
_V_U = np.array([1.0, _LAM_U - 2.0]) / np.linalg.norm([1.0, _LAM_U - 2.0])
_V_S = np.array([1.0, 1.0 / _LAM_U - 2.0]) / np.linalg.norm([1.0, 1.0 / _LAM_U - 2.0])


def build_model(name):
    if name == "cat4":
        # 4-D product of two cat blocks: dim F = 2, so its disks are 2-D
        zero = np.zeros(2)
        return srblab.linear_torus_system(
            np.kron(np.eye(2), srblab.models.CAT_MATRIX),
            np.column_stack([np.r_[_V_S, zero], np.r_[zero, _V_S]]),
            np.column_stack([np.r_[_V_U, zero], np.r_[zero, _V_U]]),
            name="cat4")
    return srblab.build(name)


def hyperbolic_times_upto(sys_, x, horizon, sigma, upto):
    """sigma-hyperbolic times <= upto of x's orbit over `horizon` steps."""
    logs = srblab.cocycle_logs(sys_, x, horizon)
    times = srblab.hyperbolic_times(logs.f_inv_from_one(), sigma).times
    return [int(t) for t in times if t <= upto]


def draw_center(sys_, rng, horizon, sigma, accept=None, tries=64):
    """First drawn point whose orbit passes the hypothesis pre-check.

    accept(times) decides on the sigma-hyperbolic times up to `horizon`;
    by default any time will do.
    """
    accept = accept or bool
    for _ in range(tries):
        seed = int(rng.integers(2 ** 31))
        x = srblab.region_sample(sys_, 1, seed=seed, burn_in=12)[0]
        if accept(hyperbolic_times_upto(sys_, x, horizon, sigma, horizon)):
            return [float(v) for v in x]
    raise RuntimeError(f"no center of {sys_.name} passed the pre-check "
                       f"in {tries} draws")


def _rng(seed, workload):
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _lambda2(sys_, xi=None):
    return srblab.measure_constants_h(sys_, xi=xi).lambda2


# ----------------------------------------------------------- task helpers

def experiment(name, raw):
    """Task running one experiment config; quantities from summary.json."""
    def run(models, plan):
        cfg = experiments.parse_config(raw(plan))
        out = os.path.join(plan["out_dir"], name)
        summary = experiments.run_experiment(cfg, out_dir=out, workers=1)
        return bool(summary["pass"]), summary["quantities"]
    return Task(name, run)


def config(model, exp, seed, center, horizon=None, disk=None, constants=None):
    raw = {"model": {"name": model}, "experiment": exp, "seed": seed,
           "disk": dict(disk or {}, center=center)}
    if horizon is not None:
        raw["horizon"] = horizon
    if constants:
        raw["constants"] = constants
    return raw


def _unstable(sys_, x):
    return sys_.splitting.at(np.asarray(x, float))[1]


# ---------------------------------------------------------------- cesaro
# Long orbits of a few hundred points with a streamed per-step reduction.
# Nothing is carved and no splitting is queried along orbits, so this
# workload skips changes to `disks` and `systems`.

CESARO_N = 4000


def _plan_cesaro(seed):
    rng = _rng(seed, "cesaro")
    return {"seed": seed,
            "cat": draw_center(build_model("cat"), rng, 20, 0.5),
            "perturbed_cat": draw_center(build_model("perturbed_cat"), rng, 20, 0.5)}


CESARO = Workload(
    name="cesaro",
    models=("cat", "perturbed_cat"),
    plan=_plan_cesaro,
    tasks=[
        experiment("srb_converge-cat", lambda p: config(
            "cat", "srb_converge", p["seed"], p["cat"], horizon=CESARO_N,
            disk={"resolution": 401})),
        # tol 0.05: at n = 4000 the default 0.02 sits inside the Birkhoff
        # averages' spread, so the verdict would turn on the seed
        experiment("physical_basin-perturbed_cat", lambda p: config(
            "perturbed_cat", "physical_basin", p["seed"], p["perturbed_cat"],
            horizon=CESARO_N, constants={"tol": 0.05, "samples": 200})),
    ])


# ----------------------------------------------------------------- atoms
# Every atom is materialised: the Cesaro invariance defect builds n*S atoms
# per call, so this workload holds the peak memory.  The criterion-8 body
# adds batched cocycles, the selection detectors and the packing.

ATOMS_NS = (100, 1000, 5000)
ATOMS_MASS_N = 150


def _plan_atoms(seed):
    rng = _rng(seed, "atoms")
    plan = {"seed": seed}
    for name in ("cat", "perturbed_cat", "solenoid", "dfa"):
        plan[name] = draw_center(build_model(name), rng, 20, 0.5)
    dfa = build_model("dfa")
    ch = srblab.measure_constants_h(dfa)
    plan["mass_seed"] = int(rng.integers(2 ** 31))
    _, qual = srblab.lambda_fraction(dfa, ch.lambda1, ATOMS_MASS_N,
                                     seed=plan["mass_seed"])
    for k, x in enumerate(qual):
        if hyperbolic_times_upto(dfa, x, ATOMS_MASS_N, ch.lambda2, ATOMS_MASS_N):
            plan["mass_center_index"] = k
            break
    else:
        raise RuntimeError("no qualifying dfa point has a hyperbolic time")
    return plan


def crit6_task(model, n):
    """Criterion 6 on one model at one n: Cesaro defect <= 2B/n."""
    def run(models, plan):
        sys_ = models[model]
        obs = measures.default_observables(sys_.chart)
        x = plan[model]
        d = disks.make_disk(sys_, x, _unstable(sys_, x), 0.02, resolution=101)
        excess = measures.invariance_defect(sys_, d, n, obs).max_excess
        return excess <= 0.0, {"max_excess": excess}
    return Task(f"crit6-{model}-n{n}", run)


# Criterion 8 runs as three tasks, so that the host-speed probe runs
# between its stages; later stages read earlier results from the pass's
# models dict.

def _crit8_fractions(models, plan):
    """Criterion 8: membership fraction positive and stable under doubling."""
    dfa = models["dfa"]
    n = ATOMS_MASS_N
    ch = srblab.measure_constants_h(dfa)
    frac1, qual = srblab.lambda_fraction(dfa, ch.lambda1, n, seed=plan["mass_seed"])
    frac2, _ = srblab.lambda_fraction(dfa, ch.lambda1, 2 * n, seed=plan["mass_seed"])
    models["dfa/crit8"] = (ch, qual)
    verdict = frac1 > 0.0 and frac2 > 0.0 and abs(frac1 - frac2) <= 0.2 * frac1
    return verdict, {"fraction": frac1, "fraction_doubled": frac2}


def _crit8_densities(models, plan):
    """Criterion 8: hyperbolic-time density >= theta on >= 90% of orbits."""
    dfa = models["dfa"]
    n = ATOMS_MASS_N
    ch, qual = models["dfa/crit8"]
    theta = srblab.density_theta(ch.lambda1, ch.lambda2, dfa.constants.c0)
    _, lf = srblab.cocycle_logs_batch(dfa, qual[:200], n)
    dens = np.asarray([len(srblab.hyperbolic_times(row, ch.lambda2).times) / n
                       for row in lf])
    density_ok = float(np.mean(dens >= theta))
    return density_ok >= 0.9, {"density_ok": density_ok, "theta": theta}


def _crit8_mass(models, plan):
    """Criterion 8: mass captured at hyperbolic times is positive."""
    dfa = models["dfa"]
    ch, qual = models["dfa/crit8"]
    theta = srblab.density_theta(ch.lambda1, ch.lambda2, dfa.constants.c0)
    x = qual[plan["mass_center_index"]]
    d = disks.make_disk(dfa, x, _unstable(dfa, x), 0.02, resolution=101)
    rep = measures.hyperbolic_mass(dfa, d, ATOMS_MASS_N, ch.lambda2, 0.05,
                                   lam=ch.lambda1, theta=theta)
    return rep.eta > 0.0, {"eta": rep.eta, "tau": rep.tau,
                           "lambda_mass": rep.lambda_mass}


ATOMS = Workload(
    name="atoms",
    models=("cat", "perturbed_cat", "solenoid", "dfa"),
    plan=_plan_atoms,
    tasks=[crit6_task("cat", n) for n in ATOMS_NS]
    + [crit6_task(m, n) for m in ("perturbed_cat", "solenoid", "dfa")
       for n in ATOMS_NS[:2]]
    + [Task("crit8-dfa-fractions", _crit8_fractions),
       Task("crit8-dfa-densities", _crit8_densities),
       Task("crit8-dfa-mass", _crit8_mass)],
)


# ----------------------------------------------------------------- carve
# Hyperbolic-time carving: thousands of single-point pair orbits and small
# chart calls.  No `measures` code runs.

CARVE_RESOLUTION = 201
CARVE_N = 26            # criterion 3 carves at the middle time <= 50; fixed
                        # here so that every seed carves the same depth
CARVE_DISTORTION_POINTS = 1
CARVE_CURVATURE_DISKS = 2
CARVE_CURVATURE_HORIZON = 4    # the curvature experiment carves at every
                               # time <= horizon; all must be times


def _constants_h(models, name):
    """measure_constants_h(xi=0.5) of one model, measured once per pass and
    shared by the criterion bodies (the acceptance tests share it through
    session fixtures)."""
    key = f"{name}/constants_h"
    if key not in models:
        models[key] = srblab.measure_constants_h(models[name], xi=0.5)
    return models[key]


def _plan_carve(seed):
    rng = _rng(seed, "carve")
    plan = {"seed": seed}
    for name in ("perturbed_cat", "dfa"):
        plan[f"contraction-{name}"] = draw_center(
            build_model(name), rng, 20, 0.5, accept=lambda ts: 20 in ts)
    dfa = build_model("dfa")
    plan["curvature-dfa"] = draw_center(
        dfa, rng, CARVE_CURVATURE_HORIZON, _lambda2(dfa),
        accept=lambda ts: len(ts) == CARVE_CURVATURE_HORIZON)
    for name in ("cat", "perturbed_cat", "solenoid"):
        sys_ = build_model(name)
        sigma = 0.5 if name == "cat" else _lambda2(sys_, xi=0.5)
        plan[f"crit3-{name}"] = draw_center(sys_, rng, CARVE_N, sigma,
                                            accept=lambda ts: CARVE_N in ts)
    pcat = build_model("perturbed_cat")
    lam2 = _lambda2(pcat, xi=0.5)
    plan["crit4"] = [draw_center(pcat, rng, 30, lam2, accept=lambda ts: len(ts) >= 2)
                     for _ in range(CARVE_DISTORTION_POINTS)]
    plan["crit5"] = [draw_center(pcat, rng, 8, lam2, accept=lambda ts: 8 in ts)
                     for _ in range(CARVE_CURVATURE_DISKS)]
    plan["cat"] = draw_center(build_model("cat"), rng, 10, 0.5)
    plan["cat4"] = draw_center(build_model("cat4"), rng, 2, 0.5)
    return plan


def crit3_task(model):
    """Criterion 3 on one model: backward contraction of a carved disk."""
    def run(models, plan):
        sys_ = models[model]
        sigma = 0.5 if model == "cat" else _constants_h(models, model).lambda2
        x = np.asarray(plan[f"crit3-{model}"])
        bound = 1.0 + 5.0 * 2.0 / (CARVE_RESOLUTION - 1)
        d = disks.make_disk(sys_, x, _unstable(sys_, x), 0.02,
                            resolution=CARVE_RESOLUTION)
        n = CARVE_N
        carved = disks.hyperbolic_component(sys_, d, n, 0.02, sigma=sigma)
        rep = disks.backward_contraction_check(sys_, carved, n, sigma)
        return rep.max_violation <= bound, {"n": n, "max_violation": rep.max_violation}
    return Task(f"crit3-{model}", run)


def _crit4_pcat(models, plan):
    """Criterion 4: distortion within [1/K, K]; exactly 1 on the cat map."""
    pcat, cat = models["perturbed_cat"], models["cat"]
    lam2 = _constants_h(models, "perturbed_cat").lambda2
    dc = disks.measure_distortion_constants(pcat, a=0.05, lambda2=lam2)
    k_bound = None
    lo, hi = np.inf, -np.inf
    carves = 0
    for x in np.asarray(plan["crit4"]):
        times = hyperbolic_times_upto(pcat, x, 30, lam2, 30)
        d = disks.make_disk(pcat, x, _unstable(pcat, x), 0.02,
                            resolution=CARVE_RESOLUTION)
        for n in times[:2]:
            carved = disks.hyperbolic_component(pcat, d, n, 0.02, sigma=lam2)
            if k_bound is None:
                k_bound = disks.distortion(pcat, carved, carved.center_index, n,
                                           constants=dc).bound_k
            ratios = disks.distortion_profile(pcat, carved, n)
            lo, hi = min(lo, float(np.min(ratios))), max(hi, float(np.max(ratios)))
            carves += 1
    x = np.asarray(plan["cat"])
    d = disks.make_disk(cat, x, _V_U, 0.02, resolution=CARVE_RESOLUTION)
    carved = disks.hyperbolic_component(cat, d, 10, 0.02, sigma=0.5)
    cat_dev = float(np.max(np.abs(disks.distortion_profile(cat, carved, 10) - 1.0)))
    verdict = (carves > 0 and k_bound is not None and np.isfinite(k_bound)
               and 1.0 / k_bound <= lo <= hi <= k_bound and cat_dev <= 1e-10)
    return verdict, {"carves": carves, "K": k_bound, "ratio_min": lo,
                     "ratio_max": hi, "cat_deviation": cat_dev}


def _crit5_pcat(models, plan):
    """Criterion 5: the curvature recursion on carved graph disks."""
    pcat = models["perturbed_cat"]
    ch = _constants_h(models, "perturbed_cat")
    cc = disks.curvature_constants(pcat, ch)
    x0 = np.asarray(plan["crit3-perturbed_cat"])
    flat = disks.make_disk(pcat, x0, _unstable(pcat, x0), 0.02,
                           resolution=CARVE_RESOLUTION)
    h_flat = disks.holder_curvature(flat, cc.xi)
    worst = 0.0
    for x in np.asarray(plan["crit5"]):
        times = hyperbolic_times_upto(pcat, x, 12, ch.lambda2, 8)
        base = _unstable(pcat, x).frame[:, 0]
        d = disks.make_graph_disk(pcat, x, base, np.array([-base[1], base[0]]),
                                  0.02, resolution=CARVE_RESOLUTION, curvature=0.3)
        n = times[-1]
        carved = disks.hyperbolic_component(pcat, d, n, 0.02, sigma=ch.lambda2)
        rep = disks.curvature_recursion(pcat, carved, n, cc, check=False)
        worst = max(worst, rep.measured / rep.bound)
    return h_flat < 1e-12 and worst <= 1.0, {"flat_curvature": h_flat,
                                             "worst_ratio": worst}


def _carve_2d(models, plan):
    """A 2-D carve on the 4-D cat product at two resolutions."""
    cat4 = models["cat4"]
    x = np.asarray(plan["cat4"])
    q = {}
    ok = True
    for res in (41, 61):
        d = disks.make_disk(cat4, x, _unstable(cat4, x), 0.02, resolution=res)
        carved = disks.hyperbolic_component(cat4, d, 2, 0.02, sigma=0.5)
        rep = disks.backward_contraction_check(cat4, carved, 2, 0.5)
        bound = 1.0 + 5.0 * 2.0 / (res - 1)
        q[f"samples_r{res}"] = carved.n_samples
        q[f"max_violation_r{res}"] = rep.max_violation
        ok = ok and rep.max_violation <= bound
    return ok, q


CARVE = Workload(
    name="carve",
    models=("cat", "perturbed_cat", "solenoid", "cat4"),
    plan=_plan_carve,
    tasks=[crit3_task(m) for m in ("cat", "perturbed_cat", "solenoid")]
    + [Task("crit4-perturbed_cat", _crit4_pcat),
       Task("crit5-perturbed_cat", _crit5_pcat),
       Task("carve2d-cat4", _carve_2d)]
    + [experiment(f"contraction-{m}", lambda p, m=m: config(
        m, "contraction", p["seed"], p[f"contraction-{m}"],
        disk={"resolution": CARVE_RESOLUTION}))
       for m in ("perturbed_cat", "dfa")]
    + [experiment("curvature-dfa", lambda p: config(
        "dfa", "curvature", p["seed"], p["curvature-dfa"],
        horizon=CARVE_CURVATURE_HORIZON, disk={"resolution": CARVE_RESOLUTION}))],
)


# -------------------------------------------------------------- tangency
# Per-sample splitting queries: tangency_report asks the converged
# splitting for E and F at every disk sample, each a depth-40 cone
# iteration.  Carving is a small share.

TANGENCY_ITERATE_RESOLUTION = 9
TANGENCY_DISTORTION_RESOLUTION = 15


def _plan_tangency(seed):
    rng = _rng(seed, "tangency")
    plan = {"seed": seed}
    for name in ("perturbed_cat", "dfa"):
        sys_ = build_model(name)
        plan[f"disk_iterate-{name}"] = draw_center(sys_, rng, 20, 0.5)
        plan[f"distortion-{name}"] = draw_center(
            sys_, rng, 12, 0.5, accept=lambda ts: 12 in ts)
    for name in ("perturbed_cat", "solenoid"):
        plan[f"cone_check-{name}"] = draw_center(build_model(name), rng, 20, 0.5)
    return plan


TANGENCY = Workload(
    name="tangency",
    models=("perturbed_cat", "solenoid", "dfa"),
    plan=_plan_tangency,
    tasks=[experiment(f"disk_iterate-{m}", lambda p, m=m: config(
              m, "disk_iterate", p["seed"], p[f"disk_iterate-{m}"], horizon=2,
              disk={"resolution": TANGENCY_ITERATE_RESOLUTION}))
           for m in ("perturbed_cat", "dfa")]
    + [experiment(f"distortion-{m}", lambda p, m=m: config(
        m, "distortion", p["seed"], p[f"distortion-{m}"],
        disk={"resolution": TANGENCY_DISTORTION_RESOLUTION}))
       for m in ("perturbed_cat", "dfa")]
    + [experiment(f"cone_check-{m}", lambda p, m=m: config(
        m, "cone_check", p["seed"], p[f"cone_check-{m}"]))
       for m in ("perturbed_cat", "solenoid")],
)


WORKLOADS = {w.name: w for w in (CESARO, ATOMS, CARVE, TANGENCY)}
for _w in WORKLOADS.values():
    assert len({t.name for t in _w.tasks}) == len(_w.tasks), _w.name
