"""The benchmark's output checks (``perfbench/checks.py``) rebuild replication 0
from the public layer functions and call ``regularize`` positionally with one
cell. These tests run both checks on a tiny config, so that an API change which
breaks the benchmark's reference replication fails here rather than only in
the benchmark. The reference plans every cell, so it also checks each
strength-0 cell the harness copies from the first one instead of planning it."""

from mdpreg import (CollectionConfig, ExperimentConfig, StartMode, emit_csv,
                    run_experiment)

from tests.test_trace_contract import PERFBENCH


def check_tiny_config(monkeypatch, tmp_path, methods):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    cfg = ExperimentConfig(mdp="two_goals",
                           collection=CollectionConfig(4, 6, 0.5, StartMode.uniform()),
                           methods=methods, eps_grid=(0.0, 0.5), magnitude_grid=(0.0, 10.0),
                           replications=3, master_seed=17, workers=1)
    assert checks.check_reference(cfg) == []
    rows = run_experiment(cfg)
    emit_csv(rows, tmp_path / "rows.csv")
    assert checks.check_rows(cfg, rows, (tmp_path / "rows.csv").read_text()) == []


def test_reference_and_row_checks_pass_on_a_tiny_config(monkeypatch, tmp_path):
    check_tiny_config(monkeypatch, tmp_path, ("dirichlet", "discount", "eps_greedy", "none"))


def test_reference_and_row_checks_pass_with_discount_first(monkeypatch, tmp_path):
    # discount 0 is then the planned strength-0 cell: the copies' absorbing MSE
    # must be their plain MSE, not its absorbing MSE
    check_tiny_config(monkeypatch, tmp_path, ("discount", "none", "eps_greedy", "dirichlet"))
