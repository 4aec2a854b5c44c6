"""Generated configs: valid ones parse, malformed ones exit 2 with the path.

Configs are built from the field table `experiments._FIELDS`, so a field
added there is fuzzed without touching this file; a size field must also
stay within its limit in `experiments._LIMITS`, and an E-disk is valid only
outside `experiments._F_DISKS_ONLY`.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from srblab import cli
from srblab.experiments import (_F_DISKS_ONLY, _FIELDS, _LIMITS, EXPERIMENTS,
                                parse_config)

# leaf values tried against every _FIELDS entry; each field's check splits
# them into the values it accepts and the values it rejects
POOL = [None, True, False, -1, 0, 1, 2, 3, 5, 64, 99, 100, 101, 250,
        -0.5, 0.0, 1e-3, 0.5, 0.99, 1.0, 1.5, 1e6, "", "E", "F", "G",
        "cat", "out", [0.1, 0.2], {"k": 1},
        float("nan"), float("inf"), float("-inf"), 10 ** 400,
        # the size limits and one past each (1003: the next odd resolution)
        1000, 1001, 1003, 5000, 5001, 10 ** 4, 10 ** 4 + 1,
        10 ** 5, 10 ** 5 + 1, 10 ** 6, 10 ** 6 + 1, 10 ** 30]
SPLIT = {path: ([v for v in POOL if accepts(v)],
                [v for v in POOL if not accepts(v)])
         for path, (accepts, _what) in _FIELDS.items()}
LEAVES = st.one_of(st.sampled_from(POOL), st.integers(-10, 1000),
                   st.floats(-3.0, 3.0, allow_nan=False),
                   st.text(max_size=4))
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                database=None)


def parses(path, experiment, value):
    """Whether parse_config takes value at path in a run of experiment."""
    top = _LIMITS.get(path)
    top = top[experiment] if isinstance(top, dict) else top
    e_disk = (path == "disk.direction" and value == "E"
              and experiment in _F_DISKS_ONLY)
    return bool(_FIELDS[path][0](value)) and not e_disk and (
        top is None or value is None or value <= top)


def nest(leaves):
    """The config mapping whose dotted leaf paths are the given keys."""
    cfg = {}
    for path, value in leaves.items():
        *head, last = path.split(".")
        node = cfg
        for key in head:
            node = node.setdefault(key, {})
        node[last] = value
    return cfg


@st.composite
def valid_leaves(draw):
    """Dotted path -> value for model, experiment and a few _FIELDS entries."""
    exp = draw(st.sampled_from(sorted(EXPERIMENTS)))
    leaves = {"experiment": exp}
    for path in draw(st.lists(st.sampled_from(sorted(_FIELDS)), unique=True,
                              max_size=8)):
        value = draw(LEAVES)
        if not parses(path, exp, value):
            value = draw(st.sampled_from([v for v in SPLIT[path][0]
                                          if parses(path, exp, v)]))
        leaves[path] = value
    if "model.name" not in leaves:
        leaves["model.name"] = draw(st.sampled_from(SPLIT["model.name"][0]))
    return leaves


class TestConfigFuzz:
    def test_pool_covers_both_sides_of_every_field(self):
        assert all(ok and bad for ok, bad in SPLIT.values())

    @FUZZ
    @given(valid_leaves())
    def test_valid_configs_parse(self, leaves):
        cfg = parse_config(nest(leaves))
        assert cfg.model_name == leaves["model.name"]
        assert cfg.experiment == leaves["experiment"]
        for path, value in leaves.items():
            section, _, key = path.partition(".")
            if section in ("disk", "constants"):
                assert getattr(cfg, section)[key] == value
            elif not key and path != "experiment":
                assert getattr(cfg, path) == value

    @FUZZ
    @given(valid_leaves(), st.data())
    def test_malformed_configs_exit_two(self, leaves, data):
        kind = data.draw(st.sampled_from(["value", "unknown", "section",
                                          "dotted"]))
        if kind == "value":
            path = data.draw(st.sampled_from(sorted(_FIELDS)))
            value = data.draw(LEAVES)
            if parses(path, leaves["experiment"], value):
                value = data.draw(st.sampled_from(
                    [v for v in POOL
                     if not parses(path, leaves["experiment"], v)]))
            leaves[path] = value
            raw = nest(leaves)
        elif kind == "unknown":
            prefix = data.draw(st.sampled_from(["", "model.", "disk.",
                                                "constants."]))
            path = prefix + "zz" + data.draw(st.text("abc_", max_size=4))
            leaves[path] = data.draw(LEAVES)
            raw = nest(leaves)
        elif kind == "dotted":
            # a known path spelled as one top-level key, with a value its
            # field accepts: only the spelling is wrong
            path = data.draw(st.sampled_from([p for p in sorted(_FIELDS)
                                              if "." in p]))
            raw = nest(leaves)
            raw[path] = data.draw(st.sampled_from(SPLIT[path][0]))
        else:
            path = data.draw(st.sampled_from(["disk", "constants"]))
            raw = nest({k: v for k, v in leaves.items()
                        if not k.startswith(path + ".")})
            raw[path] = data.draw(LEAVES)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "fuzz.json")
            with open(cfg, "w") as fh:
                json.dump(raw, fh)
            with contextlib.redirect_stderr(err):
                code = cli.main(["run", cfg, "--output-dir",
                                 os.path.join(tmp, "out")])
            assert not os.path.exists(os.path.join(tmp, "out"))
        assert code == 2
        assert err.getvalue().startswith("error: ConfigInvalid: ")
        assert path in err.getvalue()
