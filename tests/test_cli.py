"""End-to-end command-line behavior: exit codes, output lines, determinism."""

import ast
import glob
import inspect
import json
import os
import subprocess
import sys

import pytest

import srblab
from srblab.experiments import _LIMITS

from .conftest import LAM_U, V_S, V_U

CLI = [sys.executable, "-m", "srblab.cli"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def write_config(tmp_path, name, obj):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


GOOD = {"model": {"name": "cat"}, "experiment": "pliss_demo",
        "horizon": 64, "seed": 3}


def assertion_lines(stdout, out):
    """The [PASS]/[FAIL] lines of a run, checked against the records of its
    summary.json: each prints the headroom |value - bound|, negated on a
    FAIL."""
    lines = [l for l in stdout.splitlines() if l.startswith("[")]
    with open(os.path.join(out, "summary.json")) as fh:
        records = json.load(fh)["assertions"]
    assert len(lines) == len(records)
    for line, a in zip(lines, records):
        room = abs(a["value"] - a["bound"])
        status, room = ("PASS", room) if a["passed"] else ("FAIL", -room)
        assert line == (f"[{status}] {a['name']}: value {a['value']:.6g} vs "
                        f"bound {a['bound']:.6g} (headroom {room:.6g})")
    return lines


class TestRun:
    def test_pass_lines_and_exit_zero(self, tmp_path):
        cfg = write_config(tmp_path, "ok.json", GOOD)
        out = os.path.join(tmp_path, "out")
        r = run_cli("run", cfg, "--output-dir", out)
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert any(l.startswith("[PASS] ") and " vs bound " in l
                   for l in lines)
        assert not any(l.startswith("[FAIL]") for l in lines)
        assert lines[-1].startswith("summary: ")
        assert os.path.exists(os.path.join(out, "summary.json"))
        # density-exceeds-theta: a positive headroom
        line = [l for l in assertion_lines(r.stdout, out)
                if "density-exceeds-theta" in l][0]
        assert float(line.split("(headroom ")[1][:-1]) > 0.0

    def test_verbose_prints_quantities(self, tmp_path):
        cfg = write_config(tmp_path, "ok.json", GOOD)
        out = os.path.join(tmp_path, "out")
        r = run_cli("run", cfg, "--output-dir", out, "-v")
        assert r.returncode == 0
        assert any(l.startswith("  ") and " = " in l
                   for l in r.stdout.splitlines())

    def test_missing_config_exits_two(self, tmp_path):
        r = run_cli("run", os.path.join(tmp_path, "absent.json"))
        assert r.returncode == 2
        assert "cannot read config" in r.stderr

    def test_malformed_json_exits_two(self, tmp_path):
        path = os.path.join(tmp_path, "broken.json")
        with open(path, "w") as fh:
            fh.write("{not json")
        r = run_cli("run", path)
        assert r.returncode == 2
        assert "not valid JSON" in r.stderr

    def test_invalid_config_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json",
                           {**GOOD, "model": {"name": "unknown"}})
        r = run_cli("run", cfg)
        assert r.returncode == 2
        assert "error:" in r.stderr

    @pytest.mark.parametrize("patch, path", [
        ({"constants": {"sigma": "x"}}, "constants.sigma"),
        ({"horizon": True}, "horizon"),
        ({"disk": {"center": "ab"}}, "disk.center"),
        ({"disk": {"radius": "big"}}, "disk.radius"),
        ({"model": {"name": "perturbed_cat", "params": {"eps": "a"}}},
         "model.params.eps"),
        ({"constants": {"depth": 3}}, "constants.depth"),
        # keys spelling a dotted path: valid paths, but never read there
        ({"disk.radius": 5.0}, "disk.radius"),
        ({"model.name": "dfa"}, "model.name"),
        ({"model": {"name": "perturbed_cat", "params.eps": 0.02}},
         "model.params.eps"),
        # pass parse_config, but too large for hyperbolic_component to carve
        ({"experiment": "contraction", "constants": {"r": 0.2}},
         "constants.r"),
        ({"experiment": "distortion", "constants": {"r": 0.2}},
         "constants.r"),
        ({"experiment": "curvature", "disk": {"radius": 0.2}}, "disk.radius"),
        ({"model": {"name": "solenoid"}, "experiment": "contraction",
          "constants": {"r": 1.0}}, "constants.r"),
        # valid numbers once, but no experiment read them
        ({"constants": {"lambda2": 0.3}}, "constants.lambda2"),
        ({"constants": {"lambda3": 0.9}}, "constants.lambda3"),
        # json reads NaN, Infinity and ints past the float range, and a
        # negative seed reached numpy
        ({"model": {"name": "perturbed_cat"}, "experiment": "cone_check",
          "seed": -1, "horizon": 20}, "seed"),
        ({"model": {"name": "perturbed_cat"}, "experiment": "distortion",
          "seed": -1, "horizon": 20}, "seed"),
        ({"model": {"name": "perturbed_cat"}, "experiment": "contraction",
          "disk": {"center": [float("inf"), 0.3]}}, "disk.center"),
        ({"disk": {"center": [float("nan"), 0.3]}}, "disk.center"),
        ({"experiment": "contraction", "horizon": 10,
          "disk": {"radius": 10 ** 400}}, "disk.radius"),
        # fit an int, not an array: each stated limit, and one past it
        ({"horizon": 10 ** 30}, "horizon"),
        ({"experiment": "disk_iterate", "disk": {"resolution": 10 ** 30 + 1}},
         "disk.resolution"),
        ({"experiment": "physical_basin", "constants": {"samples": 10 ** 30}},
         "constants.samples"),
        ({"disk": {"resolution": 1003}}, "disk.resolution"),
        ({"constants": {"samples": 10001}}, "constants.samples"),
        *[({"experiment": e, "horizon": top + 1}, "horizon")
          for e, top in _LIMITS["horizon"].items()],
        # a 2-D disk has its own limit, checked before its grid is built
        ({"model": {"name": "solenoid"}, "experiment": "disk_iterate",
          "horizon": 1, "disk": {"direction": "E", "resolution": 203}},
         "disk.resolution"),
        # the carve lemmas take F-disks only; the solenoid's E-disk was a
        # vacuous PASS on an infinite distortion bound
        *[({"model": {"name": "solenoid"}, "experiment": e,
            "constants": {"sigma": 0.7},
            "disk": {"direction": "E", "resolution": 101}}, "disk.direction")
          for e in ("contraction", "distortion", "curvature")],
    ])
    def test_malformed_field_exits_two_with_path(self, tmp_path, patch, path):
        cfg = write_config(tmp_path, "bad.json", {**GOOD, **patch})
        r = run_cli("run", cfg, "--output-dir", os.path.join(tmp_path, "o"))
        assert r.returncode == 2
        assert path in r.stderr
        assert "Traceback" not in r.stderr

    def test_runtime_hypothesis_failure_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, "hyp.json",
                           {**GOOD, "experiment": "contraction",
                            "horizon": 10, "constants": {"sigma": 0.1}})
        r = run_cli("run", cfg, "--output-dir", os.path.join(tmp_path, "o"))
        assert r.returncode == 2
        assert "HypothesisViolated" in r.stderr
        assert sorted(os.listdir(os.path.join(tmp_path, "o"))) == ["run_meta.json"]
        meta = json.load(open(os.path.join(tmp_path, "o", "run_meta.json")))
        assert meta["error"]["type"] == "HypothesisViolated"
        assert "hyperbolic time" in meta["error"]["message"]

    def test_honest_assertion_failure_exits_three(self, tmp_path):
        cfg = write_config(tmp_path, "fail.json",
                           {**GOOD, "experiment": "physical_basin",
                            "horizon": 200,
                            "constants": {"tol": 1e-6, "samples": 100}})
        r = run_cli("run", cfg, "--output-dir", os.path.join(tmp_path, "o"))
        assert r.returncode == 3
        assert any(l.startswith("[FAIL] ") for l in r.stdout.splitlines())
        line, = assertion_lines(r.stdout, os.path.join(tmp_path, "o"))
        assert line.startswith("[FAIL] basin-fraction-large: ")
        assert float(line.split("(headroom ")[1][:-1]) < 0.0

    def test_uncreatable_output_dir_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, "ok.json", GOOD)
        blocker = os.path.join(tmp_path, "a_file")
        open(blocker, "w").close()
        out = os.path.join(blocker, "sub")
        r = run_cli("run", cfg, "--output-dir", out)
        assert r.returncode == 2
        assert out in r.stderr
        assert "Traceback" not in r.stderr


class TestIntrospection:
    def test_list_models(self):
        r = run_cli("list-models")
        assert r.returncode == 0
        for name in ("cat", "perturbed_cat", "solenoid", "dfa"):
            assert name + ":" in r.stdout

    def test_list_models_names_the_sheared_coordinate(self):
        # perturbed_cat adds its sine of x0 to the first coordinate
        r = run_cli("list-models")
        line = next(ln for ln in r.stdout.splitlines()
                    if ln.lstrip().startswith("perturbed_cat:"))
        assert "sin(2*pi*x0)" in line
        assert "x1" not in line

    def test_describe_known(self):
        r = run_cli("describe", "pliss_demo")
        assert r.returncode == 0
        assert len(r.stdout) > 20

    def test_describe_unknown(self):
        r = run_cli("describe", "bogus")
        assert r.returncode == 2
        assert "error" in r.stderr


PUBLIC = [
    "CarvingFailed", "ChainInfeasible", "Chart", "ChartOverflow", "CocycleLog",
    "Config", "ConfigInvalid", "ConstantsH", "ConstantsInvalid",
    "ConstructionFailed", "ContractionReport", "ConvergedSplitting",
    "CurvatureConstants", "CurvatureReport", "DefectReport",
    "DegenerateSplitting", "DegenerateTangent", "DimensionMismatch",
    "DistortionConstants", "DistortionReport", "EmbeddedDisk", "EmptyRadius",
    "HyperbolicMassReport", "HyperbolicTimeReport", "HypothesisViolated",
    "MapSystem", "Observable", "OrbitEscaped", "PlissParams",
    "ResolutionExhausted", "SplittingField", "SrbLabError", "Subspace",
    "SystemConstants", "TangencyReport",
    "backward_contraction_check", "build", "charts", "check_avg_domination",
    "cocycle_logs", "cocycle_logs_batch", "cone_width_bound", "cone_width_of",
    "cones", "curvature_constants", "curvature_recursion",
    "default_observables", "density_theta", "describe", "disks", "distortion",
    "distortion_profile", "domination_robustness_radius", "errors",
    "experiments", "holder_curvature", "hyperbolic_component",
    "hyperbolic_mass", "hyperbolic_times", "invariance_defect", "iterate_disk",
    "lambda_fraction", "lambda_membership_batch", "linalg",
    "linear_torus_system", "list_models", "make_disk", "make_graph_disk",
    "measure_constants_h", "measure_distortion_constants", "measure_l1",
    "measures", "models", "oblique_components", "orbit_coords", "parse_config",
    "physical_fraction", "pliss", "pliss_times", "pushforward_integrals",
    "pushforward_step_integrals", "quasi_uniform", "region_sample",
    "run_experiment", "select_disjoint_balls", "splitting_frames_along_orbit",
    "subspace_distance", "systems", "tangency_report", "torus_chart",
    "verify_cone_contraction", "weak_star_distance",
]


def _user_nodes():
    """Every AST node of the package, perfbench and the acceptance criteria;
    the other tests, perfbench's among them, are not users."""
    files = [f for f in glob.glob(os.path.join(ROOT, "src", "srblab", "*.py"))
             if os.path.basename(f) != "__init__.py"]
    files += [f for f in glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
              if os.path.basename(f) != "test_perfbench.py"]
    files.append(os.path.join(ROOT, "tests", "test_acceptance.py"))
    for path in files:
        with open(path) as fh:
            yield from ast.walk(ast.parse(fh.read(), path))


# members kept though no user reads them as an attribute, and why
UNREAD_KEPT = {
    # what distortion returns, and perfbench calls distortion
    ("DistortionReport", "ratio"),
    # part of a chart's == and hash (test_equal_charts_compare_and_hash_equal)
    ("Chart", "chart_id"),
}


class TestImport:
    def test_public_surface_is_pinned(self):
        # a name added to or dropped from the package root shows up here
        assert sorted(srblab.__all__) == PUBLIC

    def test_every_public_function_has_a_caller(self):
        # a public function stays only if the package, perfbench or an
        # acceptance criterion calls it; the other tests do not count
        called = set()
        for node in _user_nodes():
            if isinstance(node, ast.Call):
                fn = node.func
                called.add(fn.id if isinstance(fn, ast.Name)
                           else getattr(fn, "attr", None))
        public = [name for name in srblab.__all__
                  if inspect.isfunction(getattr(srblab, name))]
        assert sorted(set(public) - called) == []

    def test_every_class_member_is_read(self):
        # a field, method or property stays only if a user reads it as an
        # attribute; one that is only filled in costs code on every call
        read = {node.attr for node in _user_nodes()
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)}
        members = set()
        for path in glob.glob(os.path.join(ROOT, "src", "srblab", "*.py")):
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for cls in tree.body:
                if not isinstance(cls, ast.ClassDef):
                    continue
                for node in cls.body:
                    if (isinstance(node, ast.AnnAssign)
                            and isinstance(node.target, ast.Name)):
                        members.add((cls.name, node.target.id))
                    elif (isinstance(node, ast.FunctionDef)
                          and not (node.name.startswith("__")
                                   and node.name.endswith("__"))):
                        members.add((cls.name, node.name))
        unread = {m for m in members if m[1] not in read}
        assert sorted(unread - UNREAD_KEPT) == []
        # an entry whose member is gone or now read leaves the list too
        assert sorted(UNREAD_KEPT - unread) == []

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats alone costs about a second on every import and CLI run
        r = subprocess.run(
            [sys.executable, "-c",
             "import sys, srblab; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False"

    def test_runs_with_scipy_blocked(self, tmp_path):
        # numpy is the only runtime dependency: a 2-D disk's intrinsic
        # metric, and a run that measures one, import nothing from scipy
        script = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
import srblab
from srblab import disks
from srblab.linalg import Subspace
a = np.array([[2.0, 1.0], [1.0, 1.0]])
v_u, v_s = np.array({V_U.tolist()}), np.array({V_S.tolist()})
z = np.zeros(2)
e = np.column_stack([np.r_[v_s, z], np.r_[z, v_s]])
f = np.column_stack([np.r_[v_u, z], np.r_[z, v_u]])
cat4 = srblab.linear_torus_system(np.kron(np.eye(2), a), e, f, name="cat4")
d = disks.make_disk(cat4, np.array([0.15, 0.3, 0.55, 0.8]), Subspace(f),
                    0.02, resolution=41)
carved = disks.hyperbolic_component(cat4, d, 2, 0.02, sigma=0.5)
rep = disks.backward_contraction_check(cat4, carved, 2, 0.5)
print(rep.max_violation, carved.intrinsic_radius() > 0)
cfg = srblab.parse_config({{"model": {{"name": "solenoid"}},
                           "experiment": "disk_iterate", "horizon": 3,
                           "disk": {{"direction": "E", "resolution": 21}}}})
srblab.run_experiment(cfg, {str(tmp_path)!r})
"""
        r = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        violation, positive = r.stdout.split()
        assert float(violation) == pytest.approx((1.0 / LAM_U) / 0.5 ** 0.5,
                                                 rel=1e-9)
        assert positive == "True"
        with open(tmp_path / "summary.json") as fh:
            assert json.load(fh)["pass"] is True
