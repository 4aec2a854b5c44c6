"""Run the 40 default configs (every experiment on every zoo model, seed 7)
and print a digest of what they write.

    python3 tests/default_configs.py OUT_DIR

Prints JSON mapping "model-experiment" to [outcome, {file: sha256}]: the
outcome is 0 when every assertion passes, 3 when one fails (the CLI's exit
codes), or the SrbLabError class name for a run the CLI ends with exit 2.
run_meta.json holds wall time, so it is left out.  Two checkouts that print
the same digest give byte-identical results.  srblab is imported from the
src/ next to this file.
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


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    digest = {f"{m}-{e}": list(run_one(m, e, argv[0]))
              for m in sorted(MODEL_INFO) for e in EXPERIMENTS}
    print(json.dumps(digest, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
