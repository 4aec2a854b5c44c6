"""Outside-in tracer for srblab: times calls into public names only.

The tracer never edits srblab's source and never reads private attributes.
While installed it

* rebinds each traced module function in every ``srblab.*`` namespace that
  holds it (``from .models import build`` leaves a second reference in
  ``srblab.experiments``; both are replaced);
* patches public methods at class level (``Chart.wrap``/``displacement``,
  ``Observable.__call__``, ``EmpiricalMeasure.integrate`` and ``at`` on
  every ``SplittingField`` subclass that defines it);
* wraps ``forward``/``inverse``/``tangent`` on each ``MapSystem`` returned
  by ``models.build`` or ``models.linear_torus_system``.

Calls that srblab makes through references the tracer cannot see (for
example the map closures a ``ConvergedSplitting`` keeps) stay inside the
enclosing call's self time.  A public name that does not exist is reported
as absent and the run goes on.

Every wrapped call pushes a child-time accumulator, so a name's self time is
its wall time minus the time of the wrapped calls it made.  Hot leaves
(charts, map steps, observables, linalg helpers) only update aggregated
counters; the other names also append a span record
``(name, start, end, parent)`` that is kept in memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

_MARK = "_perfbench_traced"


def _rows(arr):
    """Number of points in a (..., d) coordinate array."""
    shape = np.shape(getattr(arr, "coords", arr))
    return int(np.prod(shape[:-1])) if len(shape) else 1


class Stat:
    """Aggregated counters of one traced name."""

    __slots__ = ("calls", "self_s", "total_s", "work")

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.work = {}

    def add(self, key, amount):
        self.work[key] = self.work.get(key, 0) + amount


# (module, function, leaf, work counter); reported as "<module>.<function>"
MODULE_FUNCTIONS = [
    ("models", "build", False, None),
    ("models", "linear_torus_system", False, None),
    ("models", "measure_constants_h", False, None),
    ("models", "region_sample", False, None),
    ("systems", "orbit_coords", False,
     lambda st, ba, out: st.add("point_steps", ba["n"] * _rows(ba["coords"]))),
    ("systems", "splitting_frames_along_orbit", False,
     lambda st, ba, out: st.add("point_steps", _rows(ba["rows"]))),
    ("systems", "cocycle_logs_batch", False,
     lambda st, ba, out: st.add("point_steps", ba["n"] * _rows(ba["coords"]))),
    ("pliss", "hyperbolic_times", False,
     lambda st, ba, out: st.add("elements", np.size(ba["log_f_inv"]))),
    ("pliss", "pliss_times", False,
     lambda st, ba, out: st.add("elements", np.size(ba["b"]))),
    ("pliss", "lambda_membership_batch", False,
     lambda st, ba, out: st.add("elements", np.size(ba["log_f_inv_rows"]))),
    ("cones", "verify_cone_contraction", False, None),
    ("cones", "domination_robustness_radius", False, None),
    ("cones", "check_avg_domination", False, None),
    ("disks", "hyperbolic_component", False, None),
    ("disks", "iterate_disk", False,
     lambda st, ba, out: st.add("sample_steps", ba["steps"] * ba["d"].n_samples)),
    ("disks", "tangency_report", False,
     lambda st, ba, out: st.add("samples", ba["d"].n_samples)),
    ("disks", "backward_contraction_check", False, None),
    ("disks", "distortion_profile", False, None),
    ("disks", "curvature_recursion", False, None),
    ("disks", "holder_curvature", False, None),
    ("disks", "measure_distortion_constants", False, None),
    ("measures", "pushforward_integrals", False,
     lambda st, ba, out: st.add("atom_steps", ba["n"] * ba["d"].n_samples)),
    ("measures", "physical_fraction", False,
     lambda st, ba, out: st.add("atom_steps", ba["n"] * ba["samples"])),
    ("measures", "invariance_defect", False,
     lambda st, ba, out: st.add("atoms", ba["n"] * ba["d"].n_samples)),
    ("measures", "hyperbolic_mass", False, None),
    ("measures", "select_disjoint_balls", False, None),
    ("linalg", "subspace_distance", True, None),
    ("linalg", "oblique_components", True, None),
    ("experiments", "run_experiment", False, None),
    ("experiments", "parse_config", False, None),
]

# (module, class, method, metric name, leaf, work counter)
CLASS_METHODS = [
    ("charts", "Chart", "wrap", "charts.wrap", True,
     lambda st, a, out: st.add("rows", _rows(a[1]))),
    ("charts", "Chart", "displacement", "charts.displacement", True, None),
    ("measures", "Observable", "__call__", "measures.observable", True,
     lambda st, a, out: st.add("points", _rows(a[1]))),
    ("measures", "EmpiricalMeasure", "integrate", "measures.integrate", False,
     lambda st, ba, out: st.add("atoms", ba["self"].n_atoms)),
]

MAP_METHODS = [
    ("forward", "models.forward"),
    ("inverse", "models.inverse"),
    ("tangent", "models.tangent"),
]

SPLITTING_AT = "systems.splitting_at"
CARVE = "disks.hyperbolic_component"
MAP_BUILDERS = ("models.build", "models.linear_torus_system")


class Tracer:
    """Installs wrappers around srblab's public names and aggregates stats.

    Use ``install()`` before the traced region and ``uninstall()`` after it;
    ``reset()`` zeroes the counters without touching the wrappers.
    """

    def __init__(self):
        self.stats = {}
        self.absent = []
        self.spans = []
        self._stack = [0.0]
        self._span_stack = [-1]
        self._restore = []
        self._carve_depth = 0
        self._split_keys = set()
        self.installed = False

    # ---- bookkeeping ---------------------------------------------------
    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def reset(self):
        """Zero the counters; call only outside every traced call."""
        for st in self.stats.values():
            st.reset()
        self._stack[:] = [0.0]
        self.spans.clear()
        self._split_keys.clear()
        self._carve_depth = 0

    # ---- wrapping ------------------------------------------------------
    def wrap(self, name, fn, leaf=False, work=None):
        """A timed stand-in for fn that reports under `name`.

        work(stat, args, out) runs after each call of a leaf, with the
        positional arguments; for other names it gets the call's arguments
        bound to fn's parameter names, so it reads them by name and a
        renamed parameter only stops that counter.
        """
        st = self.stat(name)
        stack = self._stack
        clock = time.perf_counter
        if leaf:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    st.calls += 1
                    st.self_s += dt - child
                    st.total_s += dt
                if work is not None:
                    work(st, args, out)
                return out
        else:
            spans = self.spans
            span_stack = self._span_stack
            sig = inspect.signature(fn) if work is not None else None

            def wrapper(*args, **kwargs):
                stack.append(0.0)
                idx = len(spans)
                spans.append(None)
                span_stack.append(idx)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    dt = t1 - t0
                    span_stack.pop()
                    child = stack.pop()
                    stack[-1] += dt
                    st.calls += 1
                    st.self_s += dt - child
                    st.total_s += dt
                    spans[idx] = (name, t0, t1, span_stack[-1])
                if work is not None:
                    self._count(name, work, st, sig, args, kwargs, out)
                return out
        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, True)
        return wrapper

    def _count(self, name, work, st, sig, args, kwargs, out):
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            work(st, bound.arguments, out)
        except (KeyError, TypeError, AttributeError):
            self._mark_absent(f"{name} (work counter)")

    def _wrap_system(self, system):
        """Wrap the map callables of one MapSystem instance (once)."""
        for attr, name in MAP_METHODS:
            fn = getattr(system, attr, None)
            if fn is None:
                self._mark_absent(f"MapSystem.{attr}")
                continue
            if getattr(fn, _MARK, False):
                continue
            work = self._count_forward if attr == "forward" else self._count_rows
            setattr(system, attr, self.wrap(name, fn, leaf=True, work=work))
        return system

    def _count_rows(self, st, args, out):
        st.add("point_steps", _rows(args[0]))

    def _count_forward(self, st, args, out):
        rows = _rows(args[0])
        st.add("point_steps", rows)
        if self._carve_depth:
            carve = self.stat(CARVE)
            carve.add("forward_calls", 1)
            carve.add("forward_points", rows)

    def _count_split(self, st, bound, out):
        key = np.round(np.asarray(bound["coords"], float), 12).tobytes()
        self._split_keys.add(key)
        st.work["distinct_points"] = len(self._split_keys)

    def _mark_absent(self, name):
        if name not in self.absent:
            self.absent.append(name)

    def _srblab_modules(self):
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == "srblab" or k.startswith("srblab."))]

    def _rebind(self, orig, wrapper):
        for mod in self._srblab_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, orig))

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        if self.installed:
            raise RuntimeError("tracer already installed")
        importlib.import_module("srblab")
        for modname, attr, leaf, work in MODULE_FUNCTIONS:
            name = f"{modname}.{attr}"
            mod = sys.modules.get(f"srblab.{modname}")
            orig = getattr(mod, attr, None) if mod is not None else None
            if orig is None:
                self._mark_absent(name)
                continue
            fn = orig
            if name in MAP_BUILDERS:
                work = self._after_build
            elif name == CARVE:
                fn = self._counting_carves(orig)
            self._rebind(orig, self.wrap(name, fn, leaf=leaf, work=work))
        for modname, cls_name, attr, name, leaf, work in CLASS_METHODS:
            cls = getattr(sys.modules.get(f"srblab.{modname}"), cls_name, None)
            if cls is None or attr not in cls.__dict__:
                self._mark_absent(name)
                continue
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr],
                                             leaf=leaf, work=work))
        self._install_splitting_at()
        self.installed = True
        return self

    def _after_build(self, st, bound, out):
        self._wrap_system(out)

    def _install_splitting_at(self):
        base = getattr(sys.modules.get("srblab.systems"), "SplittingField", None)
        if base is None:
            self._mark_absent(SPLITTING_AT)
            return
        classes = [base]
        todo = list(base.__subclasses__())
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        found = False
        for cls in classes:
            if "at" in cls.__dict__:
                found = True
                self._patch(cls, "at", self.wrap(SPLITTING_AT, cls.__dict__["at"],
                                                 work=self._count_split))
        if not found:
            self._mark_absent(SPLITTING_AT)

    def _counting_carves(self, fn):
        """fn, marking that map steps made meanwhile belong to a carve."""
        @functools.wraps(fn)
        def carve(*args, **kwargs):
            self._carve_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._carve_depth -= 1
        return carve

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        self.installed = False

    # ---- reporting -----------------------------------------------------
    def self_time_total(self):
        return sum(st.self_s for st in self.stats.values())

    def idle(self):
        """Traced names behind LAYER_METRICS that were never called."""
        names = dict.fromkeys(m[2] for m in LAYER_METRICS)
        return [n for n in names if n not in self.absent
                and (n not in self.stats or self.stats[n].calls == 0)]

    def metrics(self):
        """{metric name: value} for every entry of LAYER_METRICS."""
        out = {}
        for metric, _unit, name, field, per, scale in LAYER_METRICS:
            st = self.stats.get(name) or Stat()
            num = float(_field(st, field))
            if per is None:
                out[metric] = num
            else:
                den = float(_field(st, per))
                out[metric] = scale * num / den if den else 0.0
        return out


def _field(st, field):
    if field in ("calls", "self_s", "total_s"):
        return getattr(st, field)
    return st.work.get(field, 0)


_UNITS = {"self_s": "s"}


def _group(name, *fields):
    """Plain counters of one traced name: counts, or seconds for self_s."""
    return [(f"{name}.{f}", _UNITS.get(f, "count"), name, f, None, 1.0)
            for f in fields]


def _ratio(metric, unit, num, per, scale=1.0):
    name = metric.rpartition(".")[0]
    return [(metric, unit, name, num, per, scale)]


# (metric, unit, traced name, field, divisor field or None, scale).  Rates
# divide the inclusive time (total_s) by the work done, so they price one
# unit of work whatever the callee does inside.
LAYER_METRICS = (
    _group("charts.wrap", "calls", "self_s")
    + _ratio("charts.wrap.rows_per_call", "rows", "rows", "calls")
    + _group("charts.displacement", "calls", "self_s")
    + _group("models.forward", "calls", "point_steps", "self_s")
    + _ratio("models.forward.ns_per_point_step", "ns", "total_s", "point_steps", 1e9)
    + _group("models.inverse", "calls", "self_s")
    + _group("models.tangent", "calls", "self_s")
    + [("models.build.s", "s", "models.build", "total_s", None, 1.0)]
    + _group("models.measure_constants_h", "self_s")
    + _group("models.region_sample", "self_s")
    + _group("systems.orbit_coords", "calls", "point_steps", "self_s")
    + _group("systems.splitting_frames_along_orbit", "calls", "point_steps", "self_s")
    + _group("systems.cocycle_logs_batch", "calls", "point_steps", "self_s")
    + _group(SPLITTING_AT, "calls", "distinct_points", "self_s")
    + _group("pliss.hyperbolic_times", "calls", "elements", "self_s")
    + _ratio("pliss.hyperbolic_times.ns_per_element", "ns", "total_s", "elements", 1e9)
    + _group("pliss.pliss_times", "calls", "elements", "self_s")
    + _group("pliss.lambda_membership_batch", "elements", "self_s")
    + _group("cones.verify_cone_contraction", "self_s")
    + _group("cones.domination_robustness_radius", "self_s")
    + _group("cones.check_avg_domination", "self_s")
    + _group(CARVE, "calls", "self_s")
    + _ratio(f"{CARVE}.ms_per_carve", "ms", "total_s", "calls", 1e3)
    + _group(CARVE, "forward_calls")
    + _ratio(f"{CARVE}.points_per_forward_call", "points", "forward_points",
             "forward_calls")
    + _group("disks.iterate_disk", "calls", "sample_steps", "self_s")
    + _group("disks.tangency_report", "calls", "samples", "self_s")
    + _group("disks.backward_contraction_check", "self_s")
    + _group("disks.distortion_profile", "self_s")
    + _group("disks.curvature_recursion", "self_s")
    + _group("disks.holder_curvature", "self_s")
    + _group("disks.measure_distortion_constants", "self_s")
    + _group("measures.observable", "calls", "points", "self_s")
    + _ratio("measures.observable.ns_per_point", "ns", "total_s", "points", 1e9)
    + _group("measures.pushforward_integrals", "atom_steps", "self_s")
    + _ratio("measures.pushforward_integrals.ns_per_atom_step", "ns", "total_s",
             "atom_steps", 1e9)
    + _group("measures.physical_fraction", "atom_steps", "self_s")
    + _group("measures.invariance_defect", "atoms", "self_s")
    + _group("measures.integrate", "calls", "atoms", "self_s")
    + _group("measures.hyperbolic_mass", "self_s")
    + _group("measures.select_disjoint_balls", "calls", "self_s")
    + _group("linalg.subspace_distance", "calls", "self_s")
    + _group("linalg.oblique_components", "calls", "self_s")
    + _group("experiments.run_experiment", "calls", "self_s")
    + _group("experiments.parse_config", "self_s")
)
