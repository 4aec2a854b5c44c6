"""Config validation, experiment runs, and output determinism."""

import ast
import inspect
import json
import os

import numpy as np
import pytest

from srblab import disks, experiments, measures, systems
from srblab.errors import ConfigInvalid, SrbLabError
from srblab.models import MODEL_INFO, build, region_sample


def base_config(**over):
    cfg = {"model": {"name": "cat"}, "experiment": "pliss_demo",
           "horizon": 64, "seed": 3}
    cfg.update(over)
    return cfg


class TestParseConfig:
    def test_valid_roundtrip(self):
        cfg = experiments.parse_config(base_config())
        assert cfg.model_name == "cat"
        assert cfg.experiment == "pliss_demo"
        assert cfg.horizon == 64
        assert cfg.seed == 3
        echoed = experiments.config_echo(cfg)
        again = experiments.parse_config(echoed)
        assert again == cfg

    def test_defaults(self):
        cfg = experiments.parse_config({"model": {"name": "dfa"},
                                        "experiment": "hyperbolic_mass"})
        assert cfg.horizon is None
        assert cfg.seed == 7
        assert cfg.model_params == {}

    @pytest.mark.parametrize("raw,fragment", [
        ([1, 2], "mapping"),
        ({**base_config(), "extra": 1}, "unknown field 'extra'"),
        ({"experiment": "pliss_demo"}, "model"),
        (base_config(model={"name": "cat", "oops": 1}),
         "unknown field 'model.oops'"),
        (base_config(model={"name": "unknown"}), "model.name"),
        (base_config(model={"name": "cat", "params": {"bogus": 1}}),
         "model.params.bogus"),
        (base_config(experiment="bogus"), "experiment 'bogus'"),
        (base_config(horizon=0), "horizon"),
        (base_config(horizon=2.5), "horizon"),
        (base_config(disk={"bogus": 1}), "disk.bogus"),
        (base_config(disk={"radius": -0.1}), "disk.radius"),
        (base_config(disk={"resolution": 100}), "disk.resolution"),
        (base_config(disk={"direction": "G"}), "disk.direction"),
        (base_config(constants={"bogus": 1.0}), "constants.bogus"),
        (base_config(constants={"sigma": 1.5}), "constants.sigma"),
        (base_config(constants={"xi": 1.5}), "constants.xi"),
        (base_config(constants={"samples": 10}), "constants.samples"),
        (base_config(seed="x"), "seed"),
    ])
    def test_rejections_name_the_field(self, raw, fragment):
        with pytest.raises(ConfigInvalid, match=None) as err:
            experiments.parse_config(raw)
        assert fragment in str(err.value)

    def test_every_experiment_and_its_limits_parse(self):
        # each experiment has a horizon limit, and a config at every limit
        # parses (the CLI tests check one past each)
        limits = experiments._LIMITS
        assert set(limits["horizon"]) == set(experiments.EXPERIMENTS)
        for exp, top in limits["horizon"].items():
            cfg = experiments.parse_config(base_config(
                experiment=exp, horizon=top,
                disk={"resolution": limits["disk.resolution"]},
                constants={"samples": limits["constants.samples"]}))
            assert cfg.horizon == top

    def test_every_field_has_a_reader(self):
        # a field that parse_config accepts but no experiment reads lets a
        # config change nothing while looking as if it did
        src = inspect.getsource(experiments)
        for path in experiments._FIELDS:
            section, _, key = path.rpartition(".")
            readers = {
                "constants": [f'const("{key}"',
                              f'_carve_radius(sys, cfg, "{path}")'],
                "disk": [f'disk.get("{key}"', f'disk["{key}"]',
                         f'_carve_radius(sys, cfg, "{path}")'],
            }.get(section, [f"cfg.{path.replace('.', '_')}"])
            assert any(r in src for r in readers), path


class TestRegistry:
    def test_all_experiments_described(self):
        for name in experiments.EXPERIMENTS:
            text = experiments.describe(name)
            assert isinstance(text, str) and len(text) > 20
            assert inspect.getdoc(experiments.EXPERIMENTS[name]) in text

    def test_unknown_experiment(self):
        with pytest.raises(SrbLabError):
            experiments.describe("bogus")

    def test_expected_set(self):
        assert set(experiments.EXPERIMENTS) == {
            "pliss_demo", "hyperbolic_times", "cone_check", "contraction",
            "disk_iterate", "distortion", "curvature", "srb_converge",
            "hyperbolic_mass", "physical_basin"}


class TestAssertEntry:
    """passed is derived from (value, relation, bound) in one place."""

    @pytest.mark.parametrize("rel,want", [
        ("<", [False, True, False]), ("<=", [True, True, False]),
        (">", [False, False, True]), (">=", [True, False, True])])
    @pytest.mark.parametrize("bound", [0.3, 0.0, -1e-300, 5e-324])
    def test_relation_at_and_one_ulp_around_the_bound(self, rel, want, bound):
        values = [bound, np.nextafter(bound, -np.inf),
                  np.nextafter(bound, np.inf)]
        for value, passed in zip(values, want):
            rec = experiments._assert_entry("check", value, rel, bound)
            assert rec == {"name": "check", "passed": passed,
                           "value": float(value), "bound": bound}
            assert type(rec["passed"]) is bool

    @pytest.mark.parametrize("rel", sorted(experiments._RELATIONS))
    def test_nan_fails_every_relation(self, rel):
        for value, bound in ((np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan)):
            assert not experiments._assert_entry("c", value, rel,
                                                 bound)["passed"]

    @pytest.mark.parametrize("rel", sorted(experiments._RELATIONS))
    def test_a_bound_that_is_not_finite_fails_every_relation(self, rel):
        # "value 1 vs bound inf" bounds nothing, whichever way it points
        for value in (1.0, 0.0, np.inf, -np.inf):
            for bound in (np.inf, -np.inf, np.nan):
                rec = experiments._assert_entry("c", value, rel, bound)
                assert rec["passed"] is False

    def test_every_call_site_names_a_relation_literal(self):
        # a call site gives its relation as a literal from the table, so no
        # verdict is computed outside _assert_entry
        tree = ast.parse(inspect.getsource(experiments))
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "_assert_entry"]
        assert len(calls) == 22
        for call in calls:
            assert len(call.args) == 4 and not call.keywords
            rel = call.args[2]
            assert isinstance(rel, ast.Constant)
            assert rel.value in experiments._RELATIONS

    def test_domination_inside_the_log_slack_records_fail(self, tmp_path):
        # check_avg_domination forgives 1e-12 in the log-product; a gamma
        # that close below the measured factor runs, and the record fails
        raw = base_config(experiment="cone_check", horizon=20)
        summary = experiments.run_experiment(experiments.parse_config(raw),
                                             out_dir=str(tmp_path / "a"))
        gamma_min = summary["quantities"]["gamma_min"]
        raw["constants"] = {"gamma": gamma_min * (1.0 - 1e-14)}
        summary = experiments.run_experiment(experiments.parse_config(raw),
                                             out_dir=str(tmp_path / "b"))
        rec = summary["assertions"][0]
        assert rec["name"] == "domination-certified"
        assert rec["value"] == gamma_min and rec["bound"] < gamma_min
        assert rec["passed"] is False and summary["pass"] is False

    def test_both_fractions_zero_fail_through_positivity(self, tmp_path):
        # no sample meets lambda1 = 0.29 at either horizon: the doubling
        # record (0 <= 0) holds, and the run fails on the positive fraction
        # and on the time density, which measured nothing
        raw = {"model": {"name": "dfa"}, "experiment": "hyperbolic_mass",
               "horizon": 30, "constants": {"lambda1": 0.29}}
        summary = experiments.run_experiment(experiments.parse_config(raw),
                                             out_dir=str(tmp_path))
        got = {a["name"]: (a["passed"], a["value"], a["bound"])
               for a in summary["assertions"]}
        assert got["lambda-fraction-positive"] == (False, 0.0, 0.0)
        assert got["fraction-stable-under-doubling"] == (True, 0.0, 0.0)
        # no orbit's time density was measured: NaN, written as null, fails
        passed, value, bound = got["time-density-meets-theta"]
        assert passed is False and np.isnan(value) and bound == 0.9
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert {"name": "time-density-meets-theta", "passed": False,
                "value": None, "bound": 0.9} in on_disk["assertions"]
        assert summary["pass"] is False


class TestRunExperiment:
    def test_summary_written_and_returned(self, tmp_path):
        cfg = experiments.parse_config(base_config())
        out = os.path.join(tmp_path, "run")
        summary = experiments.run_experiment(cfg, out_dir=out)
        assert sorted(summary) == ["assertions", "config", "experiment",
                                   "pass", "quantities"]
        assert summary["experiment"] == "pliss_demo"
        assert summary["pass"] is True
        on_disk = json.loads(open(os.path.join(out, "summary.json")).read())
        assert on_disk == summary
        for a in summary["assertions"]:
            assert set(a) == {"name", "passed", "value", "bound"}
            assert a["passed"]

    def test_summary_bytes_deterministic(self, tmp_path):
        cfg = experiments.parse_config(base_config())
        blobs = []
        for tag in ("a", "b"):
            out = os.path.join(tmp_path, tag)
            experiments.run_experiment(cfg, out_dir=out)
            blobs.append(open(os.path.join(out, "summary.json"), "rb").read())
        assert blobs[0] == blobs[1]

    def test_workers_other_than_one_raise_before_writing(self, tmp_path):
        cfg = experiments.parse_config(base_config())
        out = os.path.join(tmp_path, "run")
        with pytest.raises(ValueError, match="workers"):
            experiments.run_experiment(cfg, out_dir=out, workers=2)
        assert not os.path.exists(out)

    def test_wall_time_kept_out_of_summary(self, tmp_path):
        cfg = experiments.parse_config(base_config())
        out = os.path.join(tmp_path, "run")
        experiments.run_experiment(cfg, out_dir=out)
        text = open(os.path.join(out, "summary.json")).read()
        for word in ("time", "wall", "elapsed", "second"):
            assert word not in text.lower()
        meta = json.loads(open(os.path.join(out, "run_meta.json")).read())
        assert set(meta) == {"wall_time_s"}
        assert meta["wall_time_s"] >= 0.0

    def test_csv_sidecar_written(self, tmp_path):
        cfg = experiments.parse_config(base_config())
        out = os.path.join(tmp_path, "run")
        experiments.run_experiment(cfg, out_dir=out)
        assert os.path.exists(os.path.join(out, "pliss.csv"))

    def test_honest_failure_reported_not_raised(self, tmp_path):
        cfg = experiments.parse_config(base_config(
            experiment="physical_basin", horizon=200,
            constants={"tol": 1e-6, "samples": 100}))
        out = os.path.join(tmp_path, "run")
        summary = experiments.run_experiment(cfg, out_dir=out)
        assert summary["pass"] is False
        failed = [a for a in summary["assertions"] if not a["passed"]]
        assert failed and failed[0]["name"] == "basin-fraction-large"

    def test_rerun_replaces_files_instead_of_truncating(self, tmp_path):
        # a rerun unlinks each file and creates a new one, so a hard link to
        # the old file keeps the first run's bytes
        cfg = experiments.parse_config(base_config())
        out = os.path.join(tmp_path, "run")
        names = ("summary.json", "run_meta.json", "pliss.csv")
        experiments.run_experiment(cfg, out_dir=out)
        first = {}
        for name in names:
            path = os.path.join(out, name)
            first[name] = (open(path, "rb").read(), os.stat(path).st_ino)
            os.link(path, os.path.join(tmp_path, name))
        experiments.run_experiment(cfg, out_dir=out)
        for name in names:
            path = os.path.join(out, name)
            kept = open(os.path.join(tmp_path, name), "rb").read()
            assert kept == first[name][0]
            assert os.stat(path).st_ino != first[name][1]
            if name != "run_meta.json":
                assert open(path, "rb").read() == kept

    def test_failed_rerun_leaves_no_stale_summary(self, tmp_path):
        out = os.path.join(tmp_path, "run")
        ok = experiments.parse_config(base_config(experiment="contraction",
                                                  horizon=10))
        assert experiments.run_experiment(ok, out_dir=out)["pass"] is True
        csv_path = os.path.join(out, "contraction.csv")
        csv_bytes = open(csv_path, "rb").read()
        bad = experiments.parse_config(base_config(
            experiment="contraction", horizon=10, constants={"sigma": 0.1}))
        with pytest.raises(SrbLabError):
            experiments.run_experiment(bad, out_dir=out)
        assert not os.path.exists(os.path.join(out, "summary.json"))
        # the first run's CSV is left as it was; run_meta.json is the error
        assert open(csv_path, "rb").read() == csv_bytes
        meta = json.loads(open(os.path.join(out, "run_meta.json")).read())
        assert set(meta) == {"wall_time_s", "error"}
        assert meta["error"]["type"] == "HypothesisViolated"

    @pytest.mark.parametrize("model", ["cat", "dfa"])
    def test_srb_converge_reference(self, tmp_path, model):
        # Lebesgue on the linear cat, a second disk at a seed + 1 region
        # point elsewhere; the summary names which
        cfg = experiments.parse_config(base_config(
            model={"name": model}, experiment="srb_converge", horizon=64,
            disk={"resolution": 21}))
        summary = experiments.run_experiment(cfg, out_dir=str(tmp_path))
        q = summary["quantities"]
        sys = build(model)
        tests = measures.default_observables(sys.chart)

        def integrals(center):
            f = sys.splitting.at(center)[1]
            d = disks.make_disk(sys, center, f, 0.2, resolution=21)
            return measures.pushforward_integrals(sys, d, 64, tests)

        first = integrals(np.asarray(MODEL_INFO[model]["center"], float))
        if model == "cat":
            assert "reference_center" not in q
            ref = {t.name: t.reference_integral for t in tests}
            check = "final-weak-star-small"
        else:
            second = region_sample(sys, 1, seed=4, burn_in=12)[0]
            assert q["reference_center"] == second.tolist()
            ref = integrals(second)
            check = "second-disk-weak-star-small"
        assert summary["assertions"][0]["name"] == check
        assert q["final_distance"] == measures.weak_star_distance(
            first, ref, tests)

    def test_default_config_digest(self, tmp_path):
        from .default_configs import run_one
        digests = [run_one("cat", "pliss_demo", os.path.join(tmp_path, tag))
                   for tag in ("a", "b")]
        outcome, files = digests[0]
        assert outcome == 0
        assert sorted(files) == ["pliss.csv", "summary.json"]
        assert digests[0] == digests[1]

    def test_default_config_diff_lists_each_moved_leaf(self, tmp_path):
        from .default_configs import main, run_one, summary_diffs
        dirs = [os.path.join(tmp_path, tag) for tag in ("a", "b")]
        for out in dirs:
            run_one("cat", "pliss_demo", out)
        assert summary_diffs(*dirs) == []
        assert main(["--diff", *dirs]) == 0
        path = os.path.join(dirs[1], "cat-pliss_demo", "summary.json")
        with open(path) as fh:
            summary = json.load(fh)
        c0 = summary["quantities"]["c0"]
        summary["quantities"]["c0"] = c0 * (1 + 1e-9)
        with open(path, "w") as fh:
            json.dump(summary, fh)
        drift = abs(c0 - c0 * (1 + 1e-9)) / (c0 * (1 + 1e-9))
        assert summary_diffs(*dirs) == [
            f"cat-pliss_demo: quantities.c0: {json.dumps(c0)} -> "
            f"{json.dumps(c0 * (1 + 1e-9))} (rel drift {drift:.3g})"]
        assert main(["--diff", *dirs]) == 1

    def test_default_outcome_table_covers_every_config(self):
        from .default_configs import disagreements
        path = os.path.join(os.path.dirname(__file__), "default_outcomes.json")
        with open(path) as fh:
            expected = json.load(fh)
        assert sorted(expected) == sorted(f"{m}-{e}" for m in MODEL_INFO
                                          for e in experiments.EXPERIMENTS)
        digest = {key: [outcome, {}] for key, outcome in expected.items()}
        assert disagreements(digest, expected) == []
        digest["cat-pliss_demo"][0] = 3
        del digest["dfa-cone_check"]
        assert disagreements(digest, expected) == [
            "cat-pliss_demo: expected 0, got 3",
            "dfa-cone_check: expected EmptyRadius, got no run"]

    def test_readme_outcome_table_matches(self):
        here = os.path.dirname(__file__)
        with open(os.path.join(here, "default_outcomes.json")) as fh:
            expected = json.load(fh)
        with open(os.path.join(here, os.pardir, "README.md")) as fh:
            lines = fh.read().splitlines()
        head = lines.index("| experiment | `cat` | `perturbed_cat` | "
                           "`solenoid` | `dfa` |")
        models = [c.strip(" `") for c in lines[head].split("|")[2:-1]]
        table = {}
        for line in lines[head + 2:head + 2 + len(experiments.EXPERIMENTS)]:
            exp, *cells = [c.strip(" `") for c in line.split("|")[1:-1]]
            for model, cell in zip(models, cells):
                table[f"{model}-{exp}"] = int(cell) if cell.isdigit() else cell
        assert table == expected
        # the entries that are not 0, and only those, have a reason line
        reasons = {line.split("`")[1] for line in lines
                   if line.startswith("- `") and "`:" in line}
        assert reasons & set(expected) == {k for k, v in expected.items()
                                           if v != 0}


class TestCurvature:
    def test_dfa_queries_the_splitting_once_at_its_center(self, monkeypatch):
        # the flat disk and the graph disk are built from one (E, F) pair
        points = {"e": [], "f": []}
        for which in points:
            frames = getattr(systems.SplittingField, f"{which}_frames")

            def counted(self, coords, frames=frames, seen=points[which]):
                seen.append(np.array(coords, float))
                return frames(self, coords)

            monkeypatch.setattr(systems.SplittingField, f"{which}_frames",
                                counted)
        sys = build("dfa")
        cfg = experiments.parse_config(base_config(
            model={"name": "dfa"}, experiment="curvature", horizon=6))
        experiments._exp_curvature(sys, cfg)
        center = experiments._default_center(sys, cfg)
        for seen in points.values():
            assert sum(np.array_equal(p, center) for p in seen) == 1


class TestDistortion:
    @pytest.mark.parametrize("constants, calls", [({}, 1), ({"a": 0.1}, 0)])
    def test_tangency_report_runs_only_for_a_default_a(self, monkeypatch,
                                                       constants, calls):
        report = disks.tangency_report
        seen = []

        def counted(*args, **kwargs):
            seen.append(1)
            return report(*args, **kwargs)

        monkeypatch.setattr(disks, "tangency_report", counted)
        cfg = experiments.parse_config(base_config(
            experiment="distortion", horizon=6, constants=constants))
        quantities, _, _ = experiments._exp_distortion(build("cat"), cfg)
        assert len(seen) == calls
        if constants:
            assert quantities["a"] == constants["a"]


def _strict(name):
    raise ValueError(f"{name} is not JSON")


class TestDiskIterate:
    # the solenoid E-disk config that CI runs through the installed script
    E_DISK = {"model": {"name": "solenoid"}, "experiment": "disk_iterate",
              "horizon": 3, "disk": {"direction": "E", "resolution": 21}}

    def test_e_disk_summary_is_strict_json(self, tmp_path):
        cfg = experiments.parse_config(self.E_DISK)
        experiments.run_experiment(cfg, out_dir=str(tmp_path))
        with open(os.path.join(tmp_path, "summary.json")) as fh:
            summary = json.loads(fh.read(), parse_constant=_strict)
        assert summary["quantities"]["final_max_width"] is None
        (check,) = summary["assertions"]
        assert check["name"] == "tangents-stay-near-E" and check["passed"]
        assert summary["quantities"]["final_e_distance"] == check["value"]

    def test_tilted_e_disk_fails(self, monkeypatch):
        # an E-disk tilted 1e-3 toward F: forward steps pull it onto F
        make_disk = disks.make_disk

        def tilted(sys, x, direction, radius, resolution):
            v = direction.frame[:, 0] + 1e-3 * sys.splitting.f_frames(x)[:, 0]
            return make_disk(sys, x, v / np.linalg.norm(v), radius,
                             resolution=resolution)

        monkeypatch.setattr(disks, "make_disk", tilted)
        cfg = experiments.parse_config(base_config(
            experiment="disk_iterate", horizon=6, disk={"direction": "E"}))
        _, (check,), _ = experiments._exp_disk_iterate(build("cat"), cfg)
        assert check["name"] == "tangents-stay-near-E"
        assert not check["passed"] and check["value"] > 100 * check["bound"]
