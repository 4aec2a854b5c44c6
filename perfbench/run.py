"""srblab benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload cesaro --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; srblab is imported from ./src.
Workloads are defined in workloads.py and described in NOTES.md.

With --trace 0 the run measures set-up in fresh interpreters, then repeats
the workload's tasks in passes until --seconds is used up (at least three
passes), and reports the end-to-end metrics setup_s, verify_s and
peak_rss_mb.  Times are scaled to a reference host speed measured by a
probe run between tasks (see probe.py).  With --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones (see tracer.py) plus trace.overhead_frac.  Every task's
verdict and key quantities are checked against reference.json; a task
that raises or disagrees counts as failed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Everything else (machine facts, per-pass
times, per-task outcomes, spans) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
BASELINE = os.path.join(HERE, "baseline.json")

DEFAULT_SEED = 0        # quantities are checked against reference.json here
HELD_OUT_SEED = 1009    # never used while tuning; claims must hold here too
SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACE_PAIRS = 1
RTOL = 1e-6             # stated tolerance for key quantities
ATOL = 1e-12

# Timed in a fresh interpreter: import srblab, then build the workload's
# models.  Interpreter start-up itself is not counted.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import srblab
from workloads import WORKLOADS
WORKLOADS[sys.argv[1]].build()
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="run one pass at the default seed and store its "
                        "verdicts and quantities in reference.json")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def import_srblab():
    """Put the checkout's src first on the path; exit when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "srblab", "__init__.py")):
        sys.exit(f"error: no srblab sources under {SRC}; run from the root "
                 f"of a source checkout")
    sys.path[:0] = [SRC, HERE]
    import srblab
    if os.path.dirname(os.path.abspath(srblab.__file__)) != os.path.join(SRC, "srblab"):
        sys.exit(f"error: srblab imported from {srblab.__file__}, not {SRC}")


def pin_to_one_cpu():
    """Keep this process and its set-up children on one CPU, so that the
    host-speed probe runs where the timed work runs.  The two CPUs of the
    host this was built on do not always run at the same speed."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def machine_facts():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": importlib.metadata.version("scipy")}


def measure_setup(workload):
    """Set-up times of fresh interpreters, scaled by probes run here before
    and after each one."""
    from probe import probe, scale
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    times = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, workload],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        elapsed = float(done.stdout.split()[-1])
        after = probe()
        times.append({"wall_s": elapsed, "scaled_s": scale(elapsed, before, after)})
    return times


# ------------------------------------------------------------ correctness

def flatten(quantities, prefix=""):
    """{dotted name: number} of the numeric leaves of a quantities mapping."""
    out = {}
    for key, val in quantities.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(flatten(val, f"{name}."))
        elif isinstance(val, (list, tuple)):
            out.update(flatten(dict(enumerate(val)), f"{name}."))
        elif val is None or isinstance(val, bool):
            out[name] = val
        else:
            out[name] = float(val)
    return out


def close(got, want):
    if got is None or want is None or isinstance(got, bool) or isinstance(want, bool):
        return got == want
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return abs(got - want) <= ATOL + RTOL * max(abs(got), abs(want))


def check(outcome, ref, quantities_checked):
    """None when a task outcome matches its reference, else the reason."""
    if outcome["error"] is not None:
        return outcome["error"]
    if ref is None:
        return "no reference recorded for this task"
    if outcome["verdict"] != ref["verdict"]:
        return f"verdict {outcome['verdict']}, reference {ref['verdict']}"
    if not quantities_checked:
        return None
    got, want = outcome["quantities"], ref["quantities"]
    if set(got) != set(want):
        return f"quantities {sorted(got)} differ from reference {sorted(want)}"
    for key in sorted(want):
        if not close(got[key], want[key]):
            return f"{key} = {got[key]!r}, reference {want[key]!r}"
    return None


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


# ------------------------------------------------------------------ passes

def run_pass(workload, plan, tracer=None):
    """One pass over every task; returns (wall s, scaled s, outcomes).

    The host-speed probe runs before the first task and after each task,
    outside the task times.  A task's scaled time is its wall time scaled
    by the probes on either side of it (see probe.py).
    """
    from probe import probe, scale
    if tracer is not None:
        tracer.install()
    try:
        models = workload.build()
        if tracer is not None:
            tracer.reset()
        outcomes = []
        before = probe()
        for task in workload.tasks:
            t = time.perf_counter()
            try:
                verdict, quantities = task.run(models, plan)
                outcome = {"task": task.name, "verdict": bool(verdict),
                           "quantities": flatten(quantities), "error": None}
            except Exception as exc:   # a task that raises is a failed task
                outcome = {"task": task.name, "verdict": None, "quantities": None,
                           "error": f"{type(exc).__name__}: {exc}"}
            outcome["wall_s"] = time.perf_counter() - t
            after = probe()
            outcome["scaled_s"] = scale(outcome["wall_s"], before, after)
            before = after
            outcomes.append(outcome)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = sum(o["wall_s"] for o in outcomes)
    return wall, sum(o["scaled_s"] for o in outcomes), outcomes


def run_passes(workload, plan, seconds, trace):
    """Passes until `seconds` would be exceeded; alternate U/T when tracing."""
    from tracer import Tracer
    tracer = Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        wall, scaled, outcomes = run_pass(workload, plan,
                                          tracer if traced else None)
        entry = {"traced": traced, "wall_s": wall, "scaled_s": scaled,
                 "outcomes": outcomes}
        if traced:
            entry["layers"] = tracer.metrics()
            entry["self_time_s"] = tracer.self_time_total()
            entry["spans"] = list(tracer.spans)
        passes.append(entry)
        if trace and len(passes) % 2 == 1:
            continue
        minimum = 2 * MIN_TRACE_PAIRS if trace else MIN_PASSES
        elapsed = time.perf_counter() - start
        step = sum(p["wall_s"] for p in passes[-(2 if trace else 1):])
        if len(passes) >= minimum and elapsed + step > seconds:
            break
    return passes, tracer


def make_plan(workload, seed):
    """The workload's drawn inputs plus where its experiments write."""
    return dict(workload.plan(seed), out_dir=os.path.join(OUT, workload.name))


def median_of(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    args = parse_args(argv)
    import_srblab()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    if args.record_reference:
        return record_reference(workload)

    pin_to_one_cpu()
    facts = machine_facts()
    setup = [] if args.trace else measure_setup(workload.name)
    plan = make_plan(workload, args.seed)
    passes, tracer = run_passes(workload, plan, args.seconds, args.trace)
    absent = tracer.absent if tracer else []
    idle = tracer.idle() if tracer else []

    refs = load_json(REFERENCE)
    ref_tasks = refs.get("workloads", {}).get(workload.name, {})
    full_check = args.seed == refs.get("seed", DEFAULT_SEED)
    failures = []
    attempted = 0
    for i, p in enumerate(passes):
        for o in p["outcomes"]:
            attempted += 1
            why = check(o, ref_tasks.get(o["task"]), full_check)
            if why is not None:
                failures.append(f"pass {i} {o['task']}: {why}")

    untraced = [p["scaled_s"] for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        metrics = {k: (median_of([p["layers"][k] for p in traced]), unit)
                   for k, unit in layer_units().items()}
        metrics["trace.overhead_frac"] = (
            median_of([p["scaled_s"] for p in traced]) / median_of(untraced) - 1.0,
            "ratio")
    else:
        metrics = {
            "setup_s": (median_of([s["scaled_s"] for s in setup]), "s"),
            "verify_s": (median_of(untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    fail_frac = len(failures) / attempted
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    report = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "held_out_seed": HELD_OUT_SEED,
        "machine": facts, "spread": load_json(BASELINE).get("spread"),
        "setup_runs": setup, "passes": [
            {k: v for k, v in p.items() if k not in ("spans", "outcomes")}
            for p in passes],
        "outcomes": passes[0]["outcomes"], "failures": failures,
        "absent": absent, "idle": idle, "fail_frac": fail_frac,
        "metrics": metrics,
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    if traced:
        with open(os.path.join(OUT, f"spans-{stem}.json"), "w") as fh:
            json.dump(traced[-1]["spans"], fh)

    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    walls = ", ".join(f"{p['wall_s']:.2f}/{p['scaled_s']:.2f}" for p in passes)
    print(f"workload {workload.name}, seed {args.seed}: {len(passes)} passes "
          f"(wall/scaled s: {walls})")
    for why in failures:
        print(f"FAILED {why}")
    for name in absent:
        print(f"absent: {name}")
    if idle:
        print(f"idle (no calls on this workload, metrics read 0): {', '.join(idle)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {fail_frac:.6g} ratio")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def layer_units():
    from tracer import LAYER_METRICS
    return {metric: unit for metric, unit, *_ in LAYER_METRICS}


def record_reference(workload):
    """Store one default-seed pass as the reference of `workload`."""
    _, _, outcomes = run_pass(workload, make_plan(workload, DEFAULT_SEED))
    broken = [o for o in outcomes if o["error"] is not None]
    if broken:
        sys.exit(f"error: tasks raised, nothing recorded: {broken}")
    refs = load_json(REFERENCE) or {"seed": DEFAULT_SEED, "workloads": {}}
    refs["workloads"][workload.name] = {
        o["task"]: {"verdict": o["verdict"], "quantities": o["quantities"]}
        for o in outcomes}
    with open(REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for o in outcomes:
        print(f"{o['task']}: verdict {o['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
