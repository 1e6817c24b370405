"""The two experiment metrics: policy loss and transition-matrix MSE."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import TabularMdp
from .planning import PlanningProblem, policy_evaluation
from .regularizers import RegularizedModel


@dataclass(frozen=True)
class LossResult:
    loss: float
    v_opt: np.ndarray
    v_reg: np.ndarray


@dataclass(frozen=True)
class MseResult:
    mse_plain: float
    mse_absorbing: float


def policy_loss(true_mdp: TabularMdp, pi_reg: np.ndarray, pi_opt: np.ndarray,
                start_dist: np.ndarray, v_opt: np.ndarray | None = None) -> LossResult:
    """Start-weighted value gap between two policies, both evaluated in the true MDP.

    ``v_opt`` may be passed in when the optimal policy's values were already
    computed (they are constant across replications and strengths).
    """
    problem = PlanningProblem.from_mdp(true_mdp)
    if v_opt is None:
        v_opt = policy_evaluation(problem, pi_opt)
    v_reg = policy_evaluation(problem, pi_reg)
    loss = float(np.dot(start_dist, v_opt - v_reg))
    return LossResult(loss, v_opt, v_reg)


def transition_mse(t_true: np.ndarray, reg: RegularizedModel) -> MseResult:
    """Mean squared entrywise difference between true and regularized matrices,
    one value per cell for a batch.

    For the discount method the rows are substochastic; the missing mass is
    an implicit absorbing state entered with probability eps each step.
    ``mse_absorbing`` therefore compares the matrices augmented with that
    state: only the exit column differs, so it is the plain squared error
    plus sum((1 - rowsum)^2), over (N+1)^2 entries per action. For the other
    methods it equals ``mse_plain``.
    """
    t_reg = reg.t_reg
    if t_true.shape != t_reg.shape[-3:]:
        raise ValueError(f"shape mismatch: true {t_true.shape} vs regularized {t_reg.shape}")
    n_actions, n, _ = t_true.shape
    sq = t_true - t_reg
    sq *= sq
    total = sq.sum(axis=(-3, -2, -1))
    exit_sq = ((1.0 - t_reg @ np.ones(n)) ** 2).sum(axis=(-2, -1))
    mse_plain = total / t_true.size
    mse_absorbing = np.where(np.asarray(reg.method) == "discount",
                             (total + exit_sq) / (n_actions * (n + 1) ** 2), mse_plain)
    if t_reg.ndim == 3:
        return MseResult(float(mse_plain), float(mse_absorbing))
    return MseResult(mse_plain, mse_absorbing)
