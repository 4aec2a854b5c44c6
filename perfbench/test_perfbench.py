"""Self-tests of the benchmark's output check and tracer.

    python3 -m pytest perfbench

They run small experiments only (a few seconds in all).
"""

import copy
import filecmp
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import srblab  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import Task, Workload, config, experiment  # noqa: E402


def small_workload():
    """Two cheap experiments that still reach carving, splitting queries,
    orbit streams and observables."""
    return Workload(
        name="small", models=("perturbed_cat",), plan=lambda seed: {},
        tasks=[
            experiment("srb_converge", lambda p: config(
                "perturbed_cat", "srb_converge", 3, [0.2, 0.3], horizon=64,
                disk={"resolution": 51})),
            experiment("distortion", lambda p: config(
                "perturbed_cat", "distortion", 3, [0.2, 0.3],
                disk={"resolution": 21})),
        ])


@pytest.fixture
def plan(tmp_path):
    return {"out_dir": str(tmp_path / "plain")}


def reference_of(outcomes):
    return {o["task"]: {"verdict": o["verdict"], "quantities": o["quantities"]}
            for o in outcomes}


def test_matching_outcomes_pass_the_check(plan):
    _, _, outcomes = run.run_pass(small_workload(), plan)
    refs = reference_of(outcomes)
    assert all(run.check(o, refs[o["task"]], True) is None for o in outcomes)


def test_perturbed_reference_is_a_failure(plan):
    _, _, outcomes = run.run_pass(small_workload(), plan)
    o = outcomes[0]
    ref = reference_of(outcomes)[o["task"]]
    key = "final_distance"
    bumped = copy.deepcopy(ref)
    bumped["quantities"][key] *= 1.0 + 10 * run.RTOL
    assert key in run.check(o, bumped, True)
    # within the stated tolerance still matches
    nudged = copy.deepcopy(ref)
    nudged["quantities"][key] *= 1.0 + 0.1 * run.RTOL
    assert run.check(o, nudged, True) is None
    # a flipped verdict fails at every seed, quantities or not
    flipped = dict(ref, verdict=not ref["verdict"])
    assert "verdict" in run.check(o, flipped, False)
    missing = copy.deepcopy(ref)
    del missing["quantities"][key]
    assert run.check(o, missing, True) is not None


def test_raising_task_is_a_failure(plan):
    def boom(models, plan):
        raise srblab.HypothesisViolated("drawn center has no hyperbolic time")

    wl = Workload(name="boom", models=(), plan=lambda seed: {},
                  tasks=[Task("boom", boom)])
    _, _, outcomes = run.run_pass(wl, plan)
    why = run.check(outcomes[0], {"verdict": True, "quantities": {}}, True)
    assert why.startswith("HypothesisViolated")


def test_traced_summaries_are_byte_identical(tmp_path):
    wl = small_workload()
    plain = {"out_dir": str(tmp_path / "plain")}
    traced = {"out_dir": str(tmp_path / "traced")}
    _, _, a = run.run_pass(wl, plain)
    tr = tracer_mod.Tracer()
    _, _, b = run.run_pass(wl, traced, tr)
    assert [o["quantities"] for o in a] == [o["quantities"] for o in b]
    for task in wl.tasks:
        left = os.path.join(plain["out_dir"], task.name, "summary.json")
        right = os.path.join(traced["out_dir"], task.name, "summary.json")
        assert filecmp.cmp(left, right, shallow=False), task.name
    m = tr.metrics()
    assert m["systems.splitting_at.calls"] > 0
    assert m["disks.hyperbolic_component.calls"] == 1
    assert m["disks.hyperbolic_component.forward_calls"] > 0
    assert m["models.forward.point_steps"] > 0
    assert m["measures.observable.points"] > 0
    assert m["experiments.run_experiment.calls"] == 2


def test_self_times_sum_to_at_most_the_wall_time(plan):
    tr = tracer_mod.Tracer()
    wall, _, _ = run.run_pass(small_workload(), plan, tr)
    total = tr.self_time_total()
    assert 0.0 < total <= wall
    assert all(st.self_s >= 0.0 for st in tr.stats.values())
    # every span nests inside its parent
    for name, t0, t1, parent in tr.spans:
        assert t0 <= t1
        if parent >= 0:
            _, p0, p1, _ = tr.spans[parent]
            assert p0 <= t0 and t1 <= p1


def test_uninstall_restores_every_public_name(plan):
    before_build = srblab.experiments.build
    before_wrap = srblab.Chart.wrap
    before_at = srblab.ConvergedSplitting.at
    tr = tracer_mod.Tracer().install()
    assert srblab.experiments.build is not before_build
    assert srblab.models.build is srblab.experiments.build
    tr.uninstall()
    assert srblab.experiments.build is before_build
    assert srblab.models.build is before_build
    assert srblab.Chart.wrap is before_wrap
    assert srblab.ConvergedSplitting.at is before_at


def test_missing_public_name_is_reported_absent(monkeypatch, plan):
    monkeypatch.setattr(tracer_mod, "MODULE_FUNCTIONS", tracer_mod.MODULE_FUNCTIONS + [
        ("models", "no_such_kernel", False, None)])
    monkeypatch.setattr(tracer_mod, "CLASS_METHODS", tracer_mod.CLASS_METHODS + [
        ("charts", "Chart", "no_such_method", "charts.no_such_method", True, None)])
    tr = tracer_mod.Tracer()
    _, _, outcomes = run.run_pass(small_workload(), plan, tr)
    assert all(o["error"] is None for o in outcomes)
    assert "models.no_such_kernel" in tr.absent
    assert "charts.no_such_method" in tr.absent
    assert set(tr.metrics()) == {m[0] for m in tracer_mod.LAYER_METRICS}
