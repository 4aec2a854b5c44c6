"""Command-line harness: run experiments from JSON configs.

    srblab run <config.json> [--output-dir DIR] [-v]
    srblab list-models
    srblab describe <experiment>
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _stdsys

from .errors import SrbLabError
from .experiments import describe, list_models, parse_config, run_experiment


def _cmd_run(args):
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=_stdsys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=_stdsys.stderr)
        return 2
    try:
        cfg = parse_config(raw)
        summary = run_experiment(cfg, out_dir=args.output_dir)
    except SrbLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_stdsys.stderr)
        return 2
    out = args.output_dir or cfg.output_dir
    for a in summary["assertions"]:
        status = "PASS" if a["passed"] else "FAIL"
        room = abs(a["value"] - a["bound"]) * (1 if a["passed"] else -1)
        print(f"[{status}] {a['name']}: value {a['value']:.6g} "
              f"vs bound {a['bound']:.6g} (headroom {room:.6g})")
    if args.verbose:
        for k in sorted(summary["quantities"]):
            print(f"  {k} = {summary['quantities'][k]}")
    print(f"summary: {os.path.join(out, 'summary.json')}")
    return 0 if summary["pass"] else 3


def _cmd_list_models(_args):
    print(list_models(), end="")
    return 0


def _cmd_describe(args):
    try:
        print(describe(args.experiment), end="")
    except SrbLabError as exc:
        print(f"error: {exc}", file=_stdsys.stderr)
        return 2
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="srblab",
        description="Finite-horizon hyperbolicity and empirical-measure "
                    "experiments on invertible model maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the config JSON file")
    p_run.add_argument("--output-dir", default=None,
                       help="override the config's output directory")
    p_run.add_argument("-v", "--verbose", action="store_true",
                       help="also print measured quantities")
    p_run.set_defaults(fn=_cmd_run)

    p_list = sub.add_parser("list-models", help="list available models")
    p_list.set_defaults(fn=_cmd_list_models)

    p_desc = sub.add_parser("describe", help="describe an experiment")
    p_desc.add_argument("experiment")
    p_desc.set_defaults(fn=_cmd_describe)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
