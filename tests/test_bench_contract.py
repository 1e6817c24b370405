"""The benchmark's output checks (``perfbench/checks.py``) rebuild replication 0
from the public layer functions and call ``regularize`` positionally with one
cell. This test runs both checks on a tiny config, so that an API change which
breaks the benchmark's reference replication fails here rather than only in
the benchmark."""

from mdpreg import (CollectionConfig, ExperimentConfig, StartMode, emit_csv,
                    run_experiment)

from tests.test_trace_contract import PERFBENCH


def test_reference_and_row_checks_pass_on_a_tiny_config(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks

    cfg = ExperimentConfig(mdp="two_goals",
                           collection=CollectionConfig(4, 6, 0.5, StartMode.uniform()),
                           methods=("dirichlet", "discount", "eps_greedy", "none"),
                           eps_grid=(0.0, 0.5), magnitude_grid=(0.0, 10.0),
                           replications=3, master_seed=17, workers=1)
    assert checks.check_reference(cfg) == []
    rows = run_experiment(cfg)
    emit_csv(rows, tmp_path / "rows.csv")
    assert checks.check_rows(cfg, rows, (tmp_path / "rows.csv").read_text()) == []
