"""Command-line entry point: ``sheetcharge <subcommand> --config config.json``.

The config file is a JSON object with the ExperimentConfig fields (see
README for the schema); a previously written manifest.json is accepted
too, which makes every report reproducible from its own output directory.
``--seed`` replaces the seed list with a single seed and ``--out``
overrides the output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiment import ConfigError, ExperimentConfig, SUBCOMMANDS, run
from .sampler import SamplerError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheetcharge",
        description="Dyadic-grid sheet sampling and chargeability diagnostics",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config or manifest file")
        p.add_argument("--seed", type=int, default=None, help="replace the seed list")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or a file not in UTF-8
        print(f"sheetcharge: cannot read config: {exc}", file=sys.stderr)
        return 2
    if isinstance(obj, dict) and "config" in obj:
        obj = obj["config"]
    if isinstance(obj, dict):  # from_json_obj rejects anything else
        obj["subcommand"] = args.subcommand
        if args.seed is not None:
            obj["seeds"] = [args.seed]
        if args.out is not None:
            obj["out"] = args.out
    try:
        cfg = ExperimentConfig.from_json_obj(obj)
    except ConfigError as exc:
        print(f"sheetcharge: invalid config: {exc}", file=sys.stderr)
        return 2
    try:
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        print(f"sheetcharge: cannot write output: {exc}", file=sys.stderr)
        return 2
    try:
        paths = run(cfg)
    except SamplerError as exc:
        print(f"sheetcharge: sampler failure: {exc}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
