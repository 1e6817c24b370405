"""The benchmark's workloads: each maps a seed to the experiment configs of one job.

A job is the unit the benchmark times: ``run_experiment`` on every config of
the workload, in order, at the workload's fixed replication count. The seed
becomes every config's ``master_seed``; the program sees only the configs.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from mdpreg.harness import (ExperimentConfig, builtin_presets,
                            load_experiment_config, override)

HERE = Path(__file__).resolve().parent

CLIFF_SWEEP_REPLICATIONS = 20
PAPER_MIX_REPLICATIONS = 20  # per preset
PAPER_MIX_WORKERS = 2

WHY = {
    # The largest shipped state space (N = 48, A = 4) with random-behaviour
    # data: the 53-cell regularize/plan/evaluate/MSE loop is ~80 % of a
    # replication, so batching the blend or policy iteration shows here.
    "cliff-sweep": "largest state space (cliff, N=48) with random data: the 53-cell"
                   " regularize/plan/evaluate/MSE loop dominates, the data path is ~20 %",
    # The data-size axis users sweep to study overfitting: 200 x 50 steps make
    # dataset generation and counting ~80 % of a replication, and the per-cell
    # loop only ~16 %.
    "big-batch": "data-size axis: 200 trajectories x 50 steps on cliff make generate"
                 " and count ~80 % of a replication; the cell loop is ~16 %",
    # The paper sweep scaled down: all 15 presets in order on 2 workers. It
    # mixes N = 10/12/48 and every start mode (fixed starts leave pairs
    # unvisited), is dominated by per-call overhead on small N, and is the only
    # workload through the process pool, chunking, pickling and aggregation.
    "paper-mix": "the paper sweep scaled down: all 15 presets in order on 2 workers;"
                 " small-N per-call overhead, unvisited pairs, the process pool",
}
NAMES = tuple(WHY)


def configs(name: str, seed: int) -> list[ExperimentConfig]:
    """The configs one job of workload ``name`` runs, in order."""
    if name == "cliff-sweep":
        cfg = builtin_presets()["cliff-random"]
        return [override(cfg, master_seed=seed, replications=CLIFF_SWEEP_REPLICATIONS,
                         workers=1)]
    if name == "big-batch":
        return [override(load_experiment_config(HERE / "big-batch.json"),
                         master_seed=seed)]
    if name == "paper-mix":
        return [override(cfg, master_seed=seed, replications=PAPER_MIX_REPLICATIONS,
                         workers=PAPER_MIX_WORKERS)
                for cfg in builtin_presets().values()]
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def config_labels(name: str) -> list[str]:
    """A label per config of ``configs(name, ...)``, for reports."""
    if name == "paper-mix":
        return list(builtin_presets())
    return [name]


def setup_probe_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg`` cut to one replication of one cell on a one-step dataset.

    Set-up (MDP build, true-MDP solve, process-pool start) does not depend on
    the data size or the sweep, so a run of this config costs set-up plus well
    under a millisecond of replication work.
    """
    return replace(cfg, replications=1, methods=("discount",), eps_grid=(0.0,),
                   collection=replace(cfg.collection, n_trajectories=1,
                                      trajectory_length=1))
