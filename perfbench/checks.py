"""Output checks on a job's results, and the reference-replication check.

Every function returns a list of problems; an empty list means the output
passed. Checks run outside the timed region.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import replace

import numpy as np

from mdpreg.data import generate_dataset
from mdpreg.estimation import count, mle_model
from mdpreg.evaluation import transition_mse
from mdpreg.harness import (ExperimentConfig, ResultRow, config_hash, resolve_mdp,
                            run_experiment)
from mdpreg.planning import PlanningProblem, policy_evaluation, policy_iteration
from mdpreg.regularizers import regularize
from mdpreg.seeding import child_seed

MEAN_LOSS_FLOOR = -1e-9
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12  # for losses that are 0 up to round-off
# At strength 0 all three blends are the MLE model, so their rows must agree
# to the bit. mean_mse_absorbing differs for discount by construction.
MLE_EQUIVALENT_METHODS = ("dirichlet", "discount", "eps_greedy")
MLE_EQUIVALENT_FIELDS = ("mean_loss", "stderr_loss", "mean_mse_plain")


def check_rows(cfg: ExperimentConfig, rows: list[ResultRow], csv_text: str) -> list[str]:
    """Finite values, non-negative loss, matching columns, and MLE-equal rows."""
    problems = []
    records = list(csv.DictReader(io.StringIO(csv_text)))
    if len(records) != len(rows):
        problems.append(f"CSV has {len(records)} rows, run returned {len(rows)}")
    digest = config_hash(cfg)
    for i, rec in enumerate(records):
        where = f"row {i} ({rec.get('method')}, {rec.get('strength')})"
        for key in ("strength", "mean_loss", "stderr_loss", "mean_mse_plain",
                    "mean_mse_absorbing"):
            try:
                value = float(rec[key])
            except (KeyError, TypeError, ValueError):
                problems.append(f"{where}: {key} is not a number")
                continue
            if not math.isfinite(value):
                problems.append(f"{where}: {key} = {value} is not finite")
            elif key == "mean_loss" and value < MEAN_LOSS_FLOOR:
                problems.append(f"{where}: mean_loss {value} < {MEAN_LOSS_FLOOR}")
        if rec.get("replications") != str(cfg.replications):
            problems.append(f"{where}: replications {rec.get('replications')}"
                            f" != {cfg.replications}")
        if rec.get("config_hash") != digest:
            problems.append(f"{where}: config_hash {rec.get('config_hash')} != {digest}")

    at_zero = {r.method: r for r in rows
               if r.method in MLE_EQUIVALENT_METHODS and r.strength == 0.0}
    if len(at_zero) > 1:
        first, *others = at_zero.values()
        for other in others:
            for field in MLE_EQUIVALENT_FIELDS:
                a, b = getattr(first, field), getattr(other, field)
                if a.hex() != b.hex():
                    problems.append(f"strength-0 {field} differs: {first.method} {a!r}"
                                    f" vs {other.method} {b!r}")
    return problems


def _cells(cfg: ExperimentConfig) -> list[tuple[str, float]]:
    """(method, strength) in output order, kept apart from harness.sweep_cells
    so that the reference shares none of the harness's own sweep logic."""
    cells = []
    for method in cfg.methods:
        if method == "dirichlet":
            grid = cfg.magnitude_grid
        elif method == "none":
            grid = (0.0,)
        else:
            grid = cfg.eps_grid
        cells.extend((method, float(s)) for s in grid)
    return cells


def reference_replication(cfg: ExperimentConfig) -> np.ndarray:
    """Replication 0 of ``cfg`` through the public layer functions.

    Returns a (cells, 3) array of loss, plain MSE and absorbing MSE. Each
    method's policy iteration is warm-started from that method's previous
    cell, as the harness does.
    """
    mdp = resolve_mdp(cfg)
    true_problem = PlanningProblem.from_mdp(mdp)
    pi_opt, _ = policy_iteration(true_problem)
    v_opt = policy_evaluation(true_problem, pi_opt)
    start = cfg.collection.start_mode.distribution(mdp.n_states)
    dataset = generate_dataset(mdp, pi_opt, cfg.collection, child_seed(cfg.master_seed, 0))
    counts = count(dataset, mdp.n_states, mdp.n_actions)
    est = mle_model(counts)
    warm: dict[str, np.ndarray] = {}
    out = []
    for method, strength in _cells(cfg):
        reg = regularize(est, counts, method, strength, mdp.gamma)
        policy, _ = policy_iteration(PlanningProblem(reg.t_reg, reg.r_hat, mdp.gamma),
                                     initial_policy=warm.get(method))
        warm[method] = policy
        v_reg = policy_evaluation(true_problem, policy)
        mse = transition_mse(mdp.transition, reg)
        out.append((float(np.dot(start, v_opt - v_reg)), mse.mse_plain, mse.mse_absorbing))
    return np.array(out)


def check_reference(cfg: ExperimentConfig) -> list[str]:
    """Compare ``run_experiment`` at one replication with the reference."""
    one = replace(cfg, replications=1, workers=1)
    rows = run_experiment(one)
    got = np.array([(r.mean_loss, r.mean_mse_plain, r.mean_mse_absorbing) for r in rows])
    want = reference_replication(one)
    if got.shape != want.shape:
        return [f"reference: {want.shape[0]} cells expected, run returned {got.shape[0]}"]
    bad = ~np.isclose(got, want, rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL)
    problems = []
    for i, j in zip(*np.nonzero(bad)):
        field = ("loss", "mse_plain", "mse_absorbing")[j]
        problems.append(f"reference: cell {i} {rows[i].method} {rows[i].strength:g}"
                        f" {field} {got[i, j]!r} != {want[i, j]!r}")
    return problems
