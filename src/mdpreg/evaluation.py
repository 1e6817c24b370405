"""The transition-matrix MSE metric; the harness computes the policy loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regularizers import RegularizedModel


@dataclass(frozen=True)
class MseResult:
    mse_plain: float
    mse_absorbing: float


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
