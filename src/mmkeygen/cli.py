"""Command-line entry point.

Subcommands::

    mmkeygen run --config fig2.cfg [--out results/fig2.csv] [--seed N] [--trials N]
    mmkeygen scenarios
    mmkeygen validate --config fig2.cfg

Exit codes: 0 success, 1 usage/validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiments import (
    ConfigError,
    load_config,
    run_scenario,
    scenario_summaries,
    write_csv,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the CLI contract wants usage + 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mmkeygen", description="mmWave massive-MIMO key generation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write its CSV table")
    run.add_argument("--config", required=True, help="path to a key=value config file")
    run.add_argument("--out", default=None, help="output CSV path (default results/<scenario>.csv)")
    run.add_argument("--seed", type=int, default=None, help="override master_seed")
    run.add_argument("--trials", type=int, default=None, help="override trials")

    sub.add_parser("scenarios", help="list scenario presets")

    val = sub.add_parser("validate", help="parse and validate a config file")
    val.add_argument("--config", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "scenarios":
        for name, summary in scenario_summaries():
            print(f"{name:14s} {summary}")
        return 0

    try:
        cfg = load_config(args.config)
    except OSError as exc:
        print(f"error: cannot read config file {args.config}: {exc.strerror}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"ok: {args.config} ({cfg.scenario}, seed {cfg.master_seed}, trials {cfg.trials})")
        return 0

    if args.command == "run":
        if args.seed is not None:
            cfg = replace(cfg, master_seed=args.seed)
        if args.trials is not None:
            cfg = replace(cfg, trials=args.trials)
        try:
            cfg.validate()
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        out = args.out or cfg.output_path or f"results/{cfg.scenario}.csv"
        try:
            table = run_scenario(cfg)
            write_csv(table, out)
        except (RuntimeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(table)} rows to {out}")
        return 0

    return 1


if __name__ == "__main__":
    raise SystemExit(main())
