"""The benchmark's tracer (``perfbench/tracer.py``) wraps harness names by
string and reads ``Dataset.n_steps`` and ``CountsTensor.visit_count``. This
test runs it on a tiny config, so that renaming what it wraps fails here
rather than only in the benchmark."""

import time
from pathlib import Path

from mdpreg import CollectionConfig, ExperimentConfig, StartMode, run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
N_TRAJ, LENGTH = 4, 6


def test_tracer_counts_steps_and_replications_without_changing_rows(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    cfg = ExperimentConfig(mdp="grid",
                           collection=CollectionConfig(N_TRAJ, LENGTH, 0.5, StartMode.uniform()),
                           methods=("dirichlet", "discount", "eps_greedy"),
                           eps_grid=(0.0, 0.5), magnitude_grid=(0.0, 10.0),
                           replications=2, master_seed=31, workers=1)
    untraced = run_experiment(cfg)
    t = tracer.Tracer()
    start = time.perf_counter()
    with t:
        traced = run_experiment(cfg)
    wall_s = time.perf_counter() - start
    counts = t.counts()
    assert counts["replications"] == 2
    assert counts["data.steps"] == 2 * N_TRAJ * LENGTH
    assert len(counts["estimation.unvisited_frac"]) == 2
    assert counts["planning.lu_solves"] > 0
    assert traced == untraced
    metrics = tracer.summary([t], wall_s, 1)["metrics"]
    assert metrics["data.steps"] == N_TRAJ * LENGTH
