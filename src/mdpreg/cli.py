"""Command-line entry point: run sweeps, presets, checks, and spec lints."""

from __future__ import annotations

import argparse
import os
import sys

from .data import ConfigError, check
from .environments import MdpSpecError, load_mdp_spec
from .harness import (ExperimentConfig, ReplicationError, builtin_presets, emit_csv,
                      emit_summary, load_experiment_config, override, run_experiment)
from .properties import run_acceptance


def _add_run_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--replications", type=int, default=None,
                        help="replication count override")
    parser.add_argument("--workers", type=int, default=None,
                        help="replication worker processes")


def _override(cfg, args):
    return override(cfg, master_seed=args.seed, replications=args.replications,
                    workers=args.workers)


def _presets(names, args) -> dict[str, ExperimentConfig]:
    """The named builtin presets (all, in order, for None) with the overrides
    applied; one ConfigError lists every unknown or repeated name before
    anything runs."""
    presets = builtin_presets()
    names = list(presets) if names is None else names
    problems = []
    for name in dict.fromkeys(names):
        if name not in presets:
            problems.append(f"unknown preset {name!r}; try `mdpreg preset --list`")
        if names.count(name) > 1:
            problems.append(f"preset {name!r} is listed {names.count(name)} times")
    if problems:
        raise ConfigError(problems)
    return {name: _override(presets[name], args) for name in names}


def _check_writable(paths) -> None:
    """Raise one ConfigError naming each path that is a directory or whose
    directory does not exist, so that no run starts whose CSV cannot be written."""
    check(rule for path in paths for rule in (
        (os.path.isdir(path), f"cannot write {path!r}: it is a directory"),
        (not os.path.isdir(os.path.dirname(path) or "."),
         f"cannot write {path!r}: its directory does not exist")))


def _execute(cfg, out) -> int:
    cfg = override(cfg, out=out)
    _check_writable([cfg.out] if cfg.out else [])
    rows = run_experiment(cfg)
    print(emit_summary(rows))
    if cfg.out:
        emit_csv(rows, cfg.out)
        print(f"wrote {cfg.out}")
    return 0


def _sweep(args) -> int:
    """Run the named presets (all by default) in one process, so that pooled
    runs share its process pool; write <out-dir>/<preset>.csv for each."""
    cfgs = _presets(None if args.presets is None else args.presets.split(","), args)
    outs = {name: os.path.join(args.out_dir, f"{name}.csv") for name in cfgs}
    # made only where it is missing, and then no CSV path in it is a directory
    os.makedirs(args.out_dir, exist_ok=True)
    _check_writable(outs.values())
    for name, cfg in cfgs.items():
        emit_csv(run_experiment(cfg), outs[name])
        print(f"wrote {outs[name]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mdpreg",
        description="Batch-RL regularization experiments over tabular MDPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True, help="experiment config path")
    p_run.add_argument("--out", default=None, help="output CSV path")
    _add_run_overrides(p_run)

    p_preset = sub.add_parser("preset", help="run a named builtin experiment")
    p_preset.add_argument("name", nargs="?", help="preset name (omit with --list)")
    p_preset.add_argument("--list", action="store_true", help="list preset names")
    p_preset.add_argument("--out", default=None, help="output CSV path")
    _add_run_overrides(p_preset)

    p_sweep = sub.add_parser("sweep", help="run several presets, one CSV each")
    p_sweep.add_argument("--out-dir", required=True, help="directory for <preset>.csv")
    p_sweep.add_argument("--presets", default=None,
                         help="comma-separated preset names (default: all, in --list order)")
    _add_run_overrides(p_sweep)

    p_check = sub.add_parser("check", help="run the property/acceptance suites")
    p_check.add_argument("--quick", action="store_true",
                         help="smaller Monte-Carlo sizes for a fast signal")
    p_check.add_argument("--workers", type=int, default=8,
                         help="worker processes of the loss-curve check (default 8)")

    p_mdp = sub.add_parser("mdp", help="MDP spec-file utilities")
    mdp_sub = p_mdp.add_subparsers(dest="mdp_command", required=True)
    p_validate = mdp_sub.add_parser("validate", help="lint an MDP spec file")
    p_validate.add_argument("path")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _execute(_override(load_experiment_config(args.config), args), args.out)
        if args.command == "preset":
            if args.list or args.name is None:
                for name in builtin_presets():
                    print(name)
                return 0
            return _execute(_presets([args.name], args)[args.name], args.out)
        if args.command == "sweep":
            return _sweep(args)
        if args.command == "check":
            if args.workers < 1:
                raise ConfigError(["workers must be >= 1"])
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
    except ReplicationError as exc:  # a failed run, not a rejected input
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
