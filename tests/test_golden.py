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

``presets.sha256`` pins all 15 presets: one ``<preset> <sha256 of its CSV>``
line each, for ``emit_csv`` of the preset at seed 1729, 5 replications and
``workers=1``. It was written before the waves were sized by bytes, so it
also pins that the wave layout does not move a byte; checked again at
``workers=2``, it pins the pool's blocks of one worker's share of the run.

``paper_sweep.sha256`` holds, in the same form, the digests of the paper sweep
itself, ``mdpreg sweep --replications 5000 --workers 2``, as recorded in
BENCH_22.json. Tier-1 does not run that sweep: ``scripts/check_paper_sweep.py``
does, from a CI job run on demand, once a week and on each pull request that
touches the engine, the script, the digests, ``pyproject.toml`` or the workflow.
"""

import hashlib
import importlib.util
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


@pytest.mark.parametrize("workers", [1, 2])
def test_every_preset_matches_its_digest(workers, tmp_path):
    want = dict(line.split() for line in (GOLDEN / "presets.sha256").read_text().splitlines())
    presets = builtin_presets()
    assert sorted(want) == sorted(presets)
    differ = []
    for name, cfg in presets.items():
        out = tmp_path / f"{name}.csv"
        emit_csv(run_experiment(override(cfg, master_seed=1729, replications=5,
                                        workers=workers)), out)
        if hashlib.sha256(out.read_bytes()).hexdigest() != want[name]:
            differ.append(name)
    assert differ == [], f"presets whose CSV bytes changed: {differ}"


def test_paper_sweep_digests_name_every_preset_in_sweep_order(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "check_paper_sweep", GOLDEN.parent.parent / "scripts" / "check_paper_sweep.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    lines = [line.split() for line in check.GOLDEN.read_text().splitlines()]
    assert [name for name, _ in lines] == list(builtin_presets())
    assert all(len(digest) == 64 for _, digest in lines)
    # a missing CSV and one with other bytes both differ
    (tmp_path / "grid-random.csv").write_text("method\n")
    assert check.differing(tmp_path) == list(builtin_presets())
