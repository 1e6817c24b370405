"""Golden CSVs: batching and other performance work must not move a byte.

Each file is the output of ``mdpreg preset <name> --replications 3 --seed 1729
--out tests/golden/<name>.csv``, regenerated when the sampled data changed on
purpose: for the lockstep generator ("dataset stream v2") and for the two
spawned row-major streams per dataset ("dataset stream v3"); the wave planner
and the array-native ``Dataset`` left them byte-identical. ``cliff-random``
covers the largest state space with unvisited pairs, ``grid-start-single`` a
fixed start state, and ``twogoals-mixed`` the optimal-action branch
(``p_optimal = 0.5``) with absorbing goals; all sweep 53 cells. Regenerate them only for a deliberate
change to the sampled data or the metrics, and say so in the change log.
"""

from pathlib import Path

import pytest

from mdpreg import builtin_presets, emit_csv, run_experiment
from mdpreg.harness import override

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("preset", ["cliff-random", "grid-start-single", "twogoals-mixed"])
def test_csv_bytes_match_golden(preset, tmp_path):
    cfg = override(builtin_presets()[preset], master_seed=1729, replications=3)
    out = tmp_path / f"{preset}.csv"
    emit_csv(run_experiment(cfg), out)
    assert out.read_bytes() == (GOLDEN / f"{preset}.csv").read_bytes()
