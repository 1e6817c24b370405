"""Command-line entry point: run sweeps, presets, checks, and spec lints."""

from __future__ import annotations

import argparse
import sys

from .environments import MdpSpecError, load_mdp_spec
from .harness import (ConfigError, builtin_presets, emit_csv, emit_summary,
                      load_experiment_config, override, run_experiment)
from .properties import run_acceptance


def _add_run_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--replications", type=int, default=None,
                        help="replication count override")
    parser.add_argument("--out", default=None, help="output CSV path")
    parser.add_argument("--workers", type=int, default=None,
                        help="replication worker processes")


def _execute(cfg, args) -> int:
    cfg = override(cfg, master_seed=args.seed, replications=args.replications,
                   out=args.out, workers=args.workers)
    rows = run_experiment(cfg)
    print(emit_summary(rows))
    if cfg.out:
        emit_csv(rows, cfg.out)
        print(f"wrote {cfg.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mdpreg",
        description="Batch-RL regularization experiments over tabular MDPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config or preset")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", help="experiment config path")
    src.add_argument("--preset", dest="preset_name", help="builtin preset name")
    _add_run_overrides(p_run)

    p_preset = sub.add_parser("preset", help="run a named builtin experiment")
    p_preset.add_argument("name", nargs="?", help="preset name (omit with --list)")
    p_preset.add_argument("--list", action="store_true", help="list preset names")
    _add_run_overrides(p_preset)

    p_check = sub.add_parser("check", help="run the property/acceptance suites")
    p_check.add_argument("--quick", action="store_true",
                         help="smaller Monte-Carlo sizes for a fast signal")
    p_check.add_argument("--workers", type=int, default=None)

    p_mdp = sub.add_parser("mdp", help="MDP spec-file utilities")
    mdp_sub = p_mdp.add_subparsers(dest="mdp_command", required=True)
    p_validate = mdp_sub.add_parser("validate", help="lint an MDP spec file")
    p_validate.add_argument("path")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            if args.config:
                return _execute(load_experiment_config(args.config), args)
            presets = builtin_presets()
            if args.preset_name not in presets:
                print(f"error: unknown preset {args.preset_name!r}; try"
                      f" `mdpreg preset --list`", file=sys.stderr)
                return 2
            return _execute(presets[args.preset_name], args)
        if args.command == "preset":
            presets = builtin_presets()
            if args.list or args.name is None:
                for name in presets:
                    print(name)
                return 0
            if args.name not in presets:
                print(f"error: unknown preset {args.name!r}; try --list", file=sys.stderr)
                return 2
            return _execute(presets[args.name], args)
        if args.command == "check":
            if args.workers is not None and args.workers < 1:
                print("error: workers must be >= 1", file=sys.stderr)
                return 2
            results = run_acceptance(quick=args.quick, workers=args.workers)
            for result in results:
                print(result.line())
            return 0 if all(r.passed for r in results) else 1
        if args.command == "mdp":
            mdp = load_mdp_spec(args.path)
            print(f"OK: {mdp.name}: {mdp.n_states} states, {mdp.n_actions} actions,"
                  f" gamma={mdp.gamma}")
            return 0
    except (ConfigError, MdpSpecError) as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
