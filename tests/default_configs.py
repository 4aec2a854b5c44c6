"""Run the 40 default configs (every experiment on every zoo model, seed 7)
and print a digest of what they write.

    python3 tests/default_configs.py OUT_DIR [--check OUTCOMES_JSON]
    python3 tests/default_configs.py --diff OUT_A OUT_B

Prints JSON mapping "model-experiment" to [outcome, {file: sha256}]: the
outcome is 0 when every assertion passes, 3 when one fails (the CLI's exit
codes), or the SrbLabError class name for a run the CLI ends with exit 2.
run_meta.json holds wall time, so it is left out.  Two checkouts that print
the same digest give byte-identical results.  srblab is imported from the
src/ next to this file.

With --check, the outcomes are also compared with a {"model-experiment":
outcome} file (tests/default_outcomes.json holds the expected table; the
sha256s are left out because they depend on the numpy/BLAS build).  Every
entry that disagrees is named on stderr and the exit code is 1.

With --diff, nothing runs: the summary.json files of two earlier runs'
OUT_DIRs are compared leaf by leaf (the digest holds only hashes), every
leaf that differs is printed with its relative drift, and the exit code is
1 if any leaf differs.
"""

import hashlib
import json
import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))

from srblab.errors import SrbLabError  # noqa: E402
from srblab.experiments import EXPERIMENTS, parse_config, run_experiment  # noqa: E402
from srblab.models import MODEL_INFO  # noqa: E402


def run_one(model, experiment, out_dir):
    """(outcome, {file: sha256}) of one default config run into out_dir."""
    out = os.path.join(out_dir, f"{model}-{experiment}")
    cfg = parse_config({"model": {"name": model}, "experiment": experiment})
    try:
        outcome = 0 if run_experiment(cfg, out_dir=out)["pass"] else 3
    except SrbLabError as exc:
        outcome = type(exc).__name__
    files = {}
    for name in sorted(os.listdir(out)):
        if name != "run_meta.json":
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = hashlib.sha256(fh.read()).hexdigest()
    return outcome, files


def disagreements(digest, expected):
    """One line per entry whose outcome differs from the expected table."""
    return [f"{key}: expected {expected.get(key, 'no entry')}, "
            f"got {digest[key][0] if key in digest else 'no run'}"
            for key in sorted(set(digest) | set(expected))
            if key not in digest or digest[key][0] != expected.get(key)]


def leaves(node, path=""):
    """{dotted path: value} of every leaf of a parsed JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {path: node}
    out = {}
    for key, child in items:
        out.update(leaves(child, f"{path}.{key}" if path else str(key)))
    return out


def summary_leaves(run_dir):
    """leaves() of run_dir's summary.json, or None when it has none."""
    path = os.path.join(run_dir, "summary.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return leaves(json.load(fh))


def summary_diffs(dir_a, dir_b):
    """One line per summary.json leaf that differs between two OUT_DIRs,
    with its relative drift |a - b| / max(|a|, |b|) when both are numbers."""
    lines = []
    for run in sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b))):
        a, b = (summary_leaves(os.path.join(top, run)) for top in (dir_a, dir_b))
        if (a is None) != (b is None):
            lines.append(f"{run}: summary.json in one run only")
        if a is None or b is None:
            continue
        for key in sorted(set(a) | set(b)):
            va, vb = (json.dumps(x[key]) if key in x else "absent"
                      for x in (a, b))
            if va == vb:
                continue
            line = f"{run}: {key}: {va} -> {vb}"
            if all(type(x.get(key)) in (int, float) for x in (a, b)):
                drift = abs(a[key] - b[key]) / max(abs(a[key]), abs(b[key]))
                line += f" (rel drift {drift:.3g})"
            lines.append(line)
    return lines


def main(argv):
    if len(argv) == 3 and argv[0] == "--diff":
        bad = summary_diffs(argv[1], argv[2])
        for line in bad:
            print(line)
        return 1 if bad else 0
    if len(argv) not in (1, 3) or (len(argv) == 3 and argv[1] != "--check"):
        print(__doc__, file=sys.stderr)
        return 2
    digest = {f"{m}-{e}": list(run_one(m, e, argv[0]))
              for m in sorted(MODEL_INFO) for e in EXPERIMENTS}
    print(json.dumps(digest, indent=1, sort_keys=True))
    if len(argv) == 3:
        with open(argv[2]) as fh:
            bad = disagreements(digest, json.load(fh))
        for line in bad:
            print(line, file=sys.stderr)
        return 1 if bad else 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
