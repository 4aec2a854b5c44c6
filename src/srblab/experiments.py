"""Config-driven experiments tying the toolkit together.

Every experiment takes a freshly built model and a validated Config and
returns its quantities, named pass/fail assertions and one CSV table;
run_experiment writes the table, summary.json and run_meta.json.  Summaries
are deterministic byte-for-byte for a fixed config: quantities derive only
from (config, seed), never from wall time (timing lives in run_meta.json,
written separately).
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import operator
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import disks, measures
from .cones import (check_avg_domination, domination_robustness_radius,
                    verify_cone_contraction)
from .errors import ConfigInvalid, HypothesisViolated
from .linalg import subspace_distance
from .models import (MODEL_INFO, build, lambda_fraction, measure_constants_h,
                     region_sample)
from .pliss import PlissParams, density_theta, hyperbolic_times, pliss_times
from .systems import cocycle_logs, orbit_coords, time_logs

@dataclass
class Config:
    model_name: str
    model_params: dict
    experiment: str
    horizon: int = None
    disk: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    seed: int = 7
    output_dir: str = "srblab_out"

    def const(self, key, default=None):
        return self.constants.get(key, default)


def _int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _num(v):
    # json reads NaN, Infinity and ints past the float range; none is usable
    return (_int(v) or isinstance(v, float)) and abs(v) <= _FLOAT_MAX


_FLOAT_MAX = float(np.finfo(float).max)
_NUMBER = (_num, "a finite number")
_POSITIVE = (lambda v: _num(v) and v > 0, "a finite number > 0")
_UNIT = (lambda v: _num(v) and 0.0 < v < 1.0, "a number in (0, 1)")
_EXPONENT = (lambda v: _num(v) and 0.0 < v <= 1.0, "a number in (0, 1]")

# the largest value of each size field or overflowing field, and why;
# parse_config checks them after _FIELDS, horizon's for the experiment
_LIMITS = {
    "constants.samples": 10 ** 4,  # physical_fraction's 128 x samples x (d+3)
    "disk.resolution": 1001,  # holder_curvature's (S, S, d) arrays
    "seed": 2 ** 32 - 1,  # quasi_uniform's float offsets stay distinct
    "constants.kappa": 10 ** 6,  # make_graph_disk's tangents overflow
    "constants.a": 10 ** 6,  # cone_check's a ve + vf rounds vf away
    "horizon": {e: top for top, names in (
        (10 ** 6, "srb_converge physical_basin"),  # streamed in 128-row blocks
        (10 ** 5, "pliss_demo hyperbolic_times cone_check"),  # an n-row table
        (5000, "hyperbolic_mass"),  # lambda_fraction's (2n + 1) x 400 rows
        (1000, "disk_iterate contraction distortion curvature"),  # disk orbits
    ) for e in names.split()},
}
# a 2-D disk has ~0.79 S^2 nodes (a solenoid E-disk step at S = 201 peaks at
# 86 MB, and carving it takes about a second): _config_disk holds its
# disk.resolution to this, knowing its dim
_LIMIT_2D_RESOLUTION = 201


# every config field: dotted path -> (accepts(value), what it must be);
# experiment, model.params.* and disk.center are added in parse_config
_FIELDS = {
    "model.name": (lambda v: isinstance(v, str) and v in MODEL_INFO,
                   f"one of {sorted(MODEL_INFO)}"),
    "horizon": (lambda v: v is None or _int(v) and v >= 1,
                "null or a positive integer"),
    "seed": (lambda v: _int(v) and v >= 0, "a non-negative integer"),
    "output_dir": (lambda v: isinstance(v, str), "a string"),
    "disk.radius": _POSITIVE,
    "disk.resolution": (lambda v: _int(v) and v >= 3 and v % 2 == 1,
                        "an odd integer >= 3"),
    "disk.direction": (lambda v: v in ("E", "F"), "'E' or 'F'"),
    **{f"constants.{k}": _UNIT
       for k in ("sigma", "gamma", "lambda1", "lambda4")},
    **{f"constants.{k}": _POSITIVE
       for k in ("a", "r", "r1", "alpha", "kappa", "tol")},
    **{f"constants.{k}": _EXPONENT for k in ("beta", "xi")},
    "constants.samples": (lambda v: _int(v) and v >= 100,
                          "an integer >= 100"),
    "constants.threshold": _NUMBER,
}
_SECTIONS = ("model", "model.params", "disk", "constants")
# the carve lemmas are statements about disks tangent to the F cone
_F_DISKS_ONLY = ("contraction", "distortion", "curvature")


def _leaves(obj, prefix=""):
    """(dotted path, value) of every field below the given mapping.

    A key that itself spells a dotted path is unknown: it would pass the
    check under its full path and then never be read.
    """
    for key, value in obj.items():
        path = f"{prefix}{key}"
        if "." in str(key):
            raise ConfigInvalid(f"unknown field '{path}'")
        if path in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigInvalid(f"{path} must be a mapping")
            yield from _leaves(value, path + ".")
        else:
            yield path, value


def _check(fields, path, value):
    if path not in fields:
        raise ConfigInvalid(f"unknown field '{path}'")
    accepts, what = fields[path]
    if not accepts(value):
        raise ConfigInvalid(f"{path} {value!r} is not {what}")


def parse_config(obj):
    """Validate a raw config mapping; raises ConfigInvalid with field paths."""
    if not isinstance(obj, dict):
        raise ConfigInvalid("config root must be a mapping")
    model = obj.get("model")
    if not isinstance(model, dict) or "name" not in model:
        raise ConfigInvalid("model: expected {'name': ..., 'params': {...}}")
    name = model["name"]
    _check(_FIELDS, "model.name", name)
    dim = MODEL_INFO[name]["dim"]
    fields = {**_FIELDS,
              "experiment": (lambda v: isinstance(v, str) and v in EXPERIMENTS,
                             f"one of {sorted(EXPERIMENTS)}"),
              **{f"model.params.{k}": _NUMBER
                 for k in MODEL_INFO[name]["params"]},
              "disk.center": (lambda v: v is None
                              or isinstance(v, (list, tuple)) and len(v) == dim
                              and all(map(_num, v)),
                              f"null or a list of {dim} finite numbers")}
    _check(fields, "experiment", obj.get("experiment"))
    for path, value in _leaves(obj):
        _check(fields, path, value)
        if (path == "disk.direction" and value == "E"
                and obj["experiment"] in _F_DISKS_ONLY):
            raise ConfigInvalid(f"disk.direction 'E' is not 'F': "
                                f"{obj['experiment']} carves F-disks only")
        top = _LIMITS.get(path)
        top = top[obj["experiment"]] if isinstance(top, dict) else top
        if top is not None and value is not None and value > top:
            raise ConfigInvalid(f"{path} {value!r} is above its limit {top}")
    return Config(model_name=name, model_params=dict(model.get("params", {})),
                  experiment=obj["experiment"], horizon=obj.get("horizon"),
                  disk=dict(obj.get("disk", {})),
                  constants=dict(obj.get("constants", {})),
                  seed=obj.get("seed", 7),
                  output_dir=obj.get("output_dir", "srblab_out"))


# ---------------------------------------------------------------- helpers

def _remove(path):
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _create(path):
    _remove(path)
    return open(path, "w")


def _write_csv(path, header, rows):
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v):.17g}" if isinstance(
                v, (int, float, np.floating)) and not isinstance(v, bool)
                else str(v) for v in row) + "\n")


_RELATIONS = {"<": operator.lt, "<=": operator.le,
              ">": operator.gt, ">=": operator.ge}


def _assert_entry(name, value, rel, bound):
    """A check's record; passed is value rel bound on the floats written (a
    NaN fails every relation, and a bound that is not finite fails, since it
    bounds nothing), and the relation stays out of the record."""
    value, bound = float(value), float(bound)
    return {"name": name,
            "passed": math.isfinite(bound) and _RELATIONS[rel](value, bound),
            "value": value, "bound": bound}


def _default_center(sys, cfg):
    if cfg.disk.get("center") is not None:
        return np.asarray(cfg.disk["center"], float)
    center = MODEL_INFO[sys.name]["center"]
    if center is None:
        return region_sample(sys, 1, seed=cfg.seed, burn_in=12)[0]
    return np.asarray(center, float)


def _config_disk(sys, cfg, radius=0.02, resolution=101, center=None):
    if center is None:
        center = _default_center(sys, cfg)
    radius = cfg.disk.get("radius", radius)
    resolution = cfg.disk.get("resolution", resolution)
    which = cfg.disk.get("direction", "F")
    dim = sys.dim_f if which == "F" else sys.dim_e
    if dim == 2 and resolution > _LIMIT_2D_RESOLUTION:
        raise ConfigInvalid(f"disk.resolution {resolution!r} is above its "
                            f"limit {_LIMIT_2D_RESOLUTION} for a 2-D disk")
    e, f = sys.splitting.at(center)
    direction = f if which == "F" else e
    return disks.make_disk(sys, center, direction, radius,
                           resolution=resolution)


def _carve_radius(sys, cfg, path):
    """The carving radius set at a config path (default 0.02); one past
    hyperbolic_component's limit is a config error naming the path."""
    section, key = path.split(".")
    r = getattr(cfg, section).get(key, 0.02)
    limit = disks.carve_radius_limit(sys.chart)
    if r > limit:
        raise ConfigInvalid(
            f"{path} {r!r} is not at most {limit:.6g}, an eighth of the "
            f"shortest period of {sys.name}'s chart")
    return r


# ------------------------------------------------------------- experiments

def _exp_pliss_demo(sys, cfg):
    """Select positive-density good times from an orbit's gain sequence
    two ways (threshold scan and running-minimum detector) and check they
    agree, with density above theta = (c1-c2)/(c0-c2).  Writes pliss.csv.
    Both run one record scan on exactly negated prefix sums, so this checks
    the gains/threshold wiring; acceptance criterion 1 checks both against
    the O(N^2) definitions."""
    n = cfg.horizon or 100
    sigma = cfg.const("sigma", 0.5)
    x = _default_center(sys, cfg)
    lf = time_logs(sys, orbit_coords(sys, x[None], n))[0]
    gains = -lf   # per-step expansion gains
    c2 = -float(np.log(sigma))
    c0 = float(np.max(gains)) + 1e-9
    c1 = float(np.mean(gains)) - 1e-12
    if not c1 > c2:
        raise HypothesisViolated(
            f"orbit average gain {c1:.4f} does not exceed the demanded "
            f"threshold {c2:.4f}; no positive-density selection possible")
    params = PlissParams(c0=c0, c1=c1, c2=c2)
    times = pliss_times(gains, params)
    det = hyperbolic_times(lf, sigma)
    agree = bool(np.array_equal(times, det.times))
    density = len(times) / n
    prefix = np.cumsum(gains) / np.arange(1, n + 1)
    flags = np.zeros(n, bool)
    flags[np.asarray(times, int) - 1] = True
    table = ("pliss.csv", ["j", "gain", "prefix_avg", "is_selected"],
             [(j + 1, gains[j], prefix[j], int(flags[j])) for j in range(n)])
    assertions = [
        _assert_entry("selection-matches-detector", agree, ">=", 1.0),
        _assert_entry("density-exceeds-theta", density, ">", params.theta),
    ]
    quantities = {"count": len(times), "density": density,
                  "theta": params.theta, "c0": c0, "c1": c1, "c2": c2}
    return quantities, assertions, table


def _exp_hyperbolic_times(sys, cfg):
    """Detect sigma-hyperbolic times along an orbit, report count,
    density, gaps, and compare the density to the guaranteed floor when
    the orbit's average expansion supports one.  Writes times.csv."""
    n = cfg.horizon or 400
    sigma = cfg.const("sigma", 0.5)
    x = _default_center(sys, cfg)
    lf = time_logs(sys, orbit_coords(sys, x[None], n))[0]
    rep = hyperbolic_times(lf, sigma)
    times = np.asarray(rep.times, int)
    gaps = np.diff(times) if len(times) > 1 else np.asarray([0])
    c0 = float(np.max(np.abs(lf)))
    lam_meas = float(np.exp(np.mean(lf)))
    theta = None
    if lam_meas < sigma and c0 >= -np.log(lam_meas):
        theta = density_theta(lam_meas, sigma, c0)
    cums = np.cumsum(lf) / np.arange(1, n + 1)
    flags = np.zeros(n, bool)
    flags[times - 1] = True
    table = ("times.csv", ["j", "log_f_inv", "prefix_avg", "is_time"],
             [(j + 1, lf[j], cums[j], int(flags[j])) for j in range(n)])
    assertions = [_assert_entry("times-nonempty", len(times), ">=", 1.0)]
    if theta is not None:
        assertions.append(_assert_entry("density-at-least-theta",
                                        rep.density, ">=", theta))
    quantities = {"count": int(len(times)), "density": rep.density,
                  "first_time": int(times[0]) if len(times) else -1,
                  "max_gap": int(np.max(gaps)) if len(times) else -1,
                  "measured_lambda": lam_meas, "c0": c0,
                  "theta": theta if theta is not None else float("nan")}
    return quantities, assertions, table


def _exp_cone_check(sys, cfg):
    """Certify average domination along an orbit, transport cone-boundary
    vectors and verify widths contract like gamma^i, and compute a
    robustness radius from a grid modulus-of-continuity scan.  Writes
    cone.csv."""
    n = cfg.horizon or 40
    a = cfg.const("a", 0.5)
    x = _default_center(sys, cfg)
    logs = cocycle_logs(sys, x, n - 1)
    step = np.asarray(logs.log_e, float) + np.asarray(logs.log_f_inv, float)
    cums = np.cumsum(step)
    gamma_min = float(np.max(np.exp(cums / np.arange(1, n + 1))))
    gamma = cfg.const("gamma", min(gamma_min * 1.02, (1.0 + gamma_min) / 2.0))
    if not gamma < 1.0:
        raise HypothesisViolated(
            f"measured domination factor {gamma_min:.4f} admits no gamma < 1")
    ratios = check_avg_domination(logs, gamma)
    # the log-space certificate covers the whole horizon; pushing actual
    # vectors can only confirm widths down to the rounding floor of the
    # oblique decomposition (~1e-16 of the vector), so cap that cross-check
    # where gamma^i * a is still comfortably above it
    verify_n = min(n, max(1, int(np.floor(np.log(1e-12 / a) / np.log(gamma)))))
    worst = verify_cone_contraction(sys, x, a, gamma, verify_n, seed=cfg.seed)
    radius = domination_robustness_radius(sys, gamma, (1.0 + gamma) / 2.0)
    table = ("cone.csv", ["i", "cum_ratio", "gamma_pow_i", "width_ratio"],
             [(i + 1, ratios[i], gamma ** (i + 1),
               worst[i] if i < verify_n else float("nan"))
              for i in range(n)])
    assertions = [
        _assert_entry("domination-certified", gamma_min, "<=", gamma),
        _assert_entry("cone-widths-contract", np.max(worst), "<=", 1.0 + 1e-6),
        _assert_entry("robustness-radius-positive", radius, ">", 0.0),
    ]
    quantities = {"gamma": gamma, "gamma_min": gamma_min,
                  "final_ratio": float(ratios[-1]),
                  "verify_n": verify_n,
                  "robustness_radius": radius}
    return quantities, assertions, table


def _exp_disk_iterate(sys, cfg):
    """Push a disk forward step by step, tracking edge gaps, intrinsic
    radius, and how close its tangents stay to F (to E for an E-disk).
    Writes disk.csv."""
    n = cfg.horizon or 6
    d = _config_disk(sys, cfg, radius=0.01, resolution=201)
    trace = disks.iterate_disk(sys, d, n)
    reps = [disks.tangency_report(dk, sys.splitting) for dk in trace]
    first, last = reps[0], reps[-1]
    table = ("disk.csv", ["k", "max_edge", "intrinsic_radius", "max_width",
                          "max_f_distance"],
             [(k, float(np.max(dk.edge_lengths())), dk.intrinsic_radius(),
               rep.max_width, rep.max_f_distance)
              for k, (dk, rep) in enumerate(zip(trace, reps))])
    quantities = {"final_radius": trace[-1].intrinsic_radius(),
                  "final_max_width": last.max_width,
                  "final_f_distance": last.max_f_distance}
    bundle = cfg.disk.get("direction", "F")
    if bundle == "F":
        dist0, dist = first.max_f_distance, last.max_f_distance
    else:
        # an E-disk sits at F-distance 1 from the start, so only its distance
        # to E can show it tilting away
        dist0, dist = (float(np.max(subspace_distance(
            dk.tangents, sys.splitting.e_frames(dk.points()))))
            for dk in (trace[0], trace[-1]))
        quantities["final_e_distance"] = dist
    tol = max(dist0, 1e-6)
    assertions = [_assert_entry(f"tangents-stay-near-{bundle}", dist, "<=", tol)]
    return quantities, assertions, table


def _exp_contraction(sys, cfg):
    """Carve the hyperbolic-time component around the disk center and
    verify backward intrinsic distances contract by sigma^(k/2) relative
    to the final image.  Writes contraction.csv."""
    n = cfg.horizon or 20
    sigma = cfg.const("sigma", 0.5)
    r = _carve_radius(sys, cfg, "constants.r")
    resolution = cfg.disk.get("resolution", 401)
    d = _config_disk(sys, cfg, radius=r, resolution=resolution)
    carved = disks.hyperbolic_component(sys, d, n, r, sigma=sigma)
    rep = disks.backward_contraction_check(sys, carved, n, sigma)
    grid_step = 2.0 / (resolution - 1)
    bound = 1.0 + 5.0 * grid_step
    table = ("contraction.csv", ["k", "worst_ratio"],
             [(k + 1, rep.per_k[k]) for k in range(n)])
    assertions = [_assert_entry("backward-contraction-bound",
                                rep.max_violation, "<=", bound)]
    quantities = {"max_violation": rep.max_violation, "sigma": sigma,
                  "r": r, "carved_radius": carved.radius}
    return quantities, assertions, table


def _exp_distortion(sys, cfg):
    """Measure tangent-volume distortion along a carved disk and compare
    to the two-sided bound K = exp(2*R1*a/(1-lambda2) +
    R2*lambda2^(beta/2)/(1-lambda2^(beta/2))) with grid-measured R1,
    R2.  Writes distortion.csv."""
    n = cfg.horizon or 12
    sigma = cfg.const("sigma", 0.5)
    r = _carve_radius(sys, cfg, "constants.r")
    d = _config_disk(sys, cfg, radius=r, resolution=201)
    carved = disks.hyperbolic_component(sys, d, n, r, sigma=sigma)
    consts_h = measure_constants_h(sys, xi=cfg.const("xi"))
    a = cfg.const("a")
    if a is None:
        a = max(1.5 * disks.tangency_report(carved, sys.splitting).max_width,
                0.05)
    dc = disks.measure_distortion_constants(
        sys, a, consts_h.lambda2, beta=cfg.const("beta"), seed=cfg.seed)
    ratios = disks.distortion_profile(sys, carved, n)
    k_bound = dc.bound_k
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    table = ("distortion.csv", ["sample", "param", "ratio"],
             [(s, carved.params[s, 0], ratios[s])
              for s in range(carved.n_samples)])
    assertions = [
        _assert_entry("ratios-below-K", hi, "<=", k_bound),
        _assert_entry("ratios-above-1-over-K", lo, ">=", 1.0 / k_bound),
    ]
    if MODEL_INFO[sys.name]["linear"]:
        dev = max(abs(hi - 1.0), abs(lo - 1.0))
        assertions.append(_assert_entry("constant-volume-exactness",
                                        dev, "<=", 1e-10))
    quantities = {"K": k_bound, "R1": dc.r1, "R2": dc.r2, "a": a,
                  "ratio_min": lo, "ratio_max": hi}
    return quantities, assertions, table


def _exp_curvature(sys, cfg):
    """Check the tangent-field regularity recursion: flat disks measure
    zero, curved disks stay below lambda4^n * H0 + L/(1-lambda4) along the
    iteration.  Writes curvature.csv."""
    n = cfg.horizon or 6
    kappa = cfg.const("kappa", 0.5)
    r = _carve_radius(sys, cfg, "disk.radius")
    consts_h = measure_constants_h(sys, xi=cfg.const("xi"))
    xi = consts_h.xi
    cc = disks.curvature_constants(sys, consts_h,
                                   alpha=cfg.const("alpha"),
                                   lambda4=cfg.const("lambda4"))
    center = _default_center(sys, cfg)
    e, f = sys.splitting.e_frames(center), sys.splitting.f_frames(center)
    res = cfg.disk.get("resolution", 201)
    # every zoo F is 1-D, so no 2-D resolution limit applies
    flat = disks.make_disk(sys, center, f, r, resolution=res)
    h_flat = disks.holder_curvature(flat, xi)

    d = disks.make_graph_disk(sys, center, f[:, 0], e[:, 0], r,
                              resolution=res, curvature=kappa)
    # the recursion is checked on carved hyperbolic-time components, whose
    # m-step images stay r-small; iterating the raw disk m steps would
    # stretch it past any fixed resolution
    lf = time_logs(sys, orbit_coords(sys, center[None], n))[0]
    times = list(hyperbolic_times(lf, consts_h.lambda2).times)
    if not times:
        raise HypothesisViolated(
            f"no lambda2-hyperbolic times <= {n} at the disk center")
    rows = []
    ratio_worst = 0.0
    rep = None
    for m in times:
        carved = disks.hyperbolic_component(sys, d, m, r,
                                            sigma=consts_h.lambda2)
        rep = disks.curvature_recursion(sys, carved, m, cc, check=False)
        ratio_worst = max(ratio_worst, rep.measured / rep.bound)
        rows.append((m, rep.measured, rep.bound_product, rep.bound_closed))
    table = ("curvature.csv",
             ["n", "measured", "bound_product", "bound_closed"], rows)

    # one-step claim: H(fD) <= c_0 H(D) + L1/(m_0 - 2 alpha)^(1+xi)
    logs0 = cocycle_logs(sys, d.center, 0)
    ne0 = float(np.exp(logs0.log_e[0]))
    mf0 = float(np.exp(-logs0.log_f_inv[0]))
    h0 = disks.holder_curvature(d, xi)
    step_bound = ((ne0 + 2 * cc.alpha) / (mf0 - 2 * cc.alpha) ** (1 + xi) * h0
                  + cc.l1 / (mf0 - 2 * cc.alpha) ** (1 + xi))
    h1 = disks.holder_curvature(disks.iterate_disk(sys, d, 1)[-1], xi)
    assertions = [
        _assert_entry("flat-disk-curvature-zero", h_flat, "<=", 1e-9),
        _assert_entry("one-step-claim", h1, "<=", step_bound * 1.05),
        _assert_entry("n-step-bound-holds", ratio_worst, "<=", 1.0),
    ]
    quantities = {"h0": h0, "h1": h1, "one_step_bound": step_bound,
                  "times_checked": len(rows),
                  "measured_final": rep.measured, "bound_final": rep.bound,
                  "l1": cc.l1, "alpha": cc.alpha, "lambda4": cc.lambda4}
    return quantities, assertions, table


def _exp_srb_converge(sys, cfg):
    """Stream the Cesaro averages of disk pushforwards across doubling
    horizons and track weak-star Cauchy distances on the default test
    family.  The final distance is to Lebesgue measure (the tests' reference
    integrals) on linear models, where Lebesgue is the SRB measure.  On the
    other models it is to the averages of a second disk of the same radius,
    resolution and horizon, centred at a region point drawn with seed + 1:
    the assertion is then named second-disk-weak-star-small and the summary
    holds reference_center.  Writes converge.csv."""
    n = cfg.horizon or 20000
    d = _config_disk(sys, cfg, radius=0.2, resolution=401)
    tests = measures.default_observables(sys.chart)
    steps = measures.pushforward_step_integrals(sys, d, n, tests)

    n0 = max(n // 16, 1)
    checkpoints = []
    m = n0
    while m < n:
        checkpoints.append(m)
        m *= 2
    checkpoints.append(n)

    integ = {m: {t.name: math.fsum(row[:m].tolist()) / m
                 for t, row in zip(tests, steps)} for m in checkpoints}
    table = ("converge.csv", ["n", "test", "integral"],
             [(m, t.name, integ[m][t.name]) for m in checkpoints for t in tests])

    cauchy = [measures.weak_star_distance(integ[b], integ[a], tests)
              for a, b in zip(checkpoints, checkpoints[1:])]
    quantities = {"checkpoints": [int(c) for c in checkpoints],
                  "cauchy": [float(c) for c in cauchy]}
    if MODEL_INFO[sys.name]["linear"]:
        ref = {t.name: t.reference_integral for t in tests}
        check = "final-weak-star-small"
    else:
        center = region_sample(sys, 1, seed=cfg.seed + 1, burn_in=12)[0]
        second = _config_disk(sys, cfg, radius=0.2, resolution=401,
                              center=center)
        ref = measures.pushforward_integrals(sys, second, n, tests)
        check = "second-disk-weak-star-small"
        quantities["reference_center"] = center
    final = measures.weak_star_distance(integ[n], ref, tests)
    quantities["final_distance"] = final
    assertions = [_assert_entry(check, final, "<", 0.03)]
    if len(cauchy) >= 2:
        assertions.append(_assert_entry("cauchy-distances-shrink",
                                        cauchy[-1], "<=", cauchy[0]))
    return quantities, assertions, table


def _exp_hyperbolic_mass(sys, cfg):
    """Estimate the mass of orbit averages captured at hyperbolic times by
    disjoint balls, the long-run membership fraction and its stability,
    and the per-orbit time densities against theta.  Writes mass.csv."""
    n = cfg.horizon or 60
    consts_h = measure_constants_h(sys, xi=cfg.const("xi"))
    lam1 = cfg.const("lambda1", consts_h.lambda1)
    sigma = cfg.const("sigma", consts_h.lambda2)
    r1 = cfg.const("r1", 0.05)
    c0 = sys.constants.c0
    theta = density_theta(lam1, sigma, c0)

    frac1, qual = lambda_fraction(sys, lam1, n, seed=cfg.seed)
    frac2, _ = lambda_fraction(sys, lam1, 2 * n, seed=cfg.seed)

    center = qual[0] if (cfg.disk.get("center") is None and len(qual)) else None
    d = _config_disk(sys, cfg, radius=0.02, resolution=101, center=center)
    rep = measures.hyperbolic_mass(sys, d, n, sigma, r1, lam=lam1,
                                   theta=theta)

    dens_ok = np.nan   # no orbit measured: NaN fails every relation
    if len(qual):
        lf = time_logs(sys, orbit_coords(sys, qual[:200], n))
        dens = np.asarray([len(hyperbolic_times(row, sigma).times) / n
                           for row in lf])
        dens_ok = float(np.mean(dens >= theta))

    table = ("mass.csv", ["i", "captured_mass"],
             [(i, rep.per_i[i]) for i in range(n)])
    # with frac1 > 0 (its own check), stability implies frac2 > 0
    assertions = [
        _assert_entry("lambda-fraction-positive", frac1, ">", 0.0),
        _assert_entry("fraction-stable-under-doubling", abs(frac1 - frac2),
                      "<=", 0.2 * frac1),
        _assert_entry("time-density-meets-theta", dens_ok, ">=", 0.9),
        _assert_entry("captured-mass-positive", rep.eta, ">", 0.0),
    ]
    quantities = {"eta": rep.eta, "tau": rep.tau, "theta": theta,
                  "lambda1": lam1, "sigma": sigma,
                  "lambda_mass": rep.lambda_mass, "floor": rep.floor,
                  "fraction": frac1, "fraction_doubled": frac2}
    return quantities, assertions, table


def _exp_physical_basin(sys, cfg):
    """Estimate the fraction of quasi-uniform starts whose Birkhoff
    averages converge to the reference integrals within tolerance.  Writes
    basin.csv."""
    n = cfg.horizon or 20000
    tol = cfg.const("tol", 0.02)
    samples = cfg.const("samples", 200)
    linear = MODEL_INFO[sys.name]["linear"]
    threshold = cfg.const("threshold", 0.99 if linear else 0.9)
    tests = measures.default_observables(sys.chart)

    if linear:   # Lebesgue is the SRB measure: the tests' own integrals
        ref = {t.name: t.reference_integral for t in tests}
    else:
        d = _config_disk(sys, cfg, radius=0.05, resolution=101)
        ref = measures.pushforward_integrals(sys, d, n, tests)

    frac = measures.physical_fraction(sys, ref, tests, n, tol, samples,
                                      seed=cfg.seed)
    table = ("basin.csv", ["test", "reference"],
             [(t.name, ref[t.name]) for t in tests])
    assertions = [_assert_entry("basin-fraction-large", frac, ">=", threshold)]
    quantities = {"fraction": frac, "tol": tol, "samples": samples,
                  "n": n}
    return quantities, assertions, table


EXPERIMENTS = {
    "pliss_demo": _exp_pliss_demo,
    "hyperbolic_times": _exp_hyperbolic_times,
    "cone_check": _exp_cone_check,
    "disk_iterate": _exp_disk_iterate,
    "contraction": _exp_contraction,
    "distortion": _exp_distortion,
    "curvature": _exp_curvature,
    "srb_converge": _exp_srb_converge,
    "hyperbolic_mass": _exp_hyperbolic_mass,
    "physical_basin": _exp_physical_basin,
}


def describe(name):
    if name not in EXPERIMENTS:
        raise ConfigInvalid(
            f"experiment '{name}' unknown; valid: {sorted(EXPERIMENTS)}")
    return f"{name}\n\n{inspect.getdoc(EXPERIMENTS[name])}\n"


def list_models():
    lines = []
    for name in sorted(MODEL_INFO):
        info = MODEL_INFO[name]
        params = ", ".join(f"{k}={v}" for k, v in info["params"].items()) \
            or "(no parameters)"
        lines.append(f"{name}: {info['doc']}\n    defaults: {params}")
    return "\n".join(lines) + "\n"


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, np.integer)):
        x = x.item()
    if isinstance(x, float) and not math.isfinite(x):
        return None   # strict JSON has no NaN or Infinity
    return x


def config_echo(cfg):
    return {
        "model": {"name": cfg.model_name, "params": _jsonable(cfg.model_params)},
        "experiment": cfg.experiment,
        "horizon": cfg.horizon,
        "disk": _jsonable(cfg.disk),
        "constants": _jsonable(cfg.constants),
        "seed": cfg.seed,
    }


def _write_json(path, obj):
    """Strict JSON: a non-finite float is written as null."""
    with _create(path) as fh:
        fh.write(json.dumps(_jsonable(obj), sort_keys=True, indent=2,
                            allow_nan=False) + "\n")


def run_experiment(cfg, out_dir=None, workers=1):
    """Execute one experiment; returns the summary dict and writes the run's
    files: the experiment's CSV, summary.json and run_meta.json.

    summary.json is byte-stable for a fixed config across runs; wall time
    goes to run_meta.json instead.  A summary.json already in the directory
    is removed first, so a verdict never outlives its run.  A run that raises
    writes run_meta.json alone, with the error's type and message, and
    re-raises.  Files are unlinked and created anew, never truncated (~50 ms
    each on ext4): a hard link, open reader or symlink's target keeps the old
    bytes.  workers must be 1 (ValueError first); perfbench still passes it.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    t0 = time.perf_counter()
    out = out_dir or cfg.output_dir
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"output_dir {out!r} cannot be created: {exc}") from exc
    summary_path = os.path.join(out, "summary.json")
    _remove(summary_path)
    meta_path = os.path.join(out, "run_meta.json")
    try:
        sys_ = build(cfg.model_name, **cfg.model_params)
        result = EXPERIMENTS[cfg.experiment](sys_, cfg)
    except Exception as exc:
        _write_json(meta_path, {
            "wall_time_s": time.perf_counter() - t0,
            "error": {"type": type(exc).__name__, "message": str(exc)}})
        raise
    quantities, assertions, (csv_name, header, rows) = result
    _write_csv(os.path.join(out, csv_name), header, rows)
    summary = {
        "experiment": cfg.experiment,
        "config": config_echo(cfg),
        "quantities": _jsonable(quantities),
        "assertions": assertions,
        "pass": all(a["passed"] for a in assertions),
    }
    _write_json(summary_path, summary)
    _write_json(meta_path, {"wall_time_s": time.perf_counter() - t0})
    return summary
