"""The transition-matrix MSE metric; the harness computes the policy loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regularizers import RegularizedModel

# bytes of squared differences made at once: a stack of many cells (a harness
# block's wave) is taken in slices of whole cells, so that no temporary is as
# large as the stack; each cell's sum is the same for any slice
_SLICE_BYTES = 1 << 18


@dataclass(frozen=True)
class MseResult:
    mse_plain: np.ndarray      # shaped like the batch of cells; a numpy scalar for one cell
    mse_absorbing: np.ndarray  # likewise


def transition_mse(t_true: np.ndarray, reg: RegularizedModel) -> MseResult:
    """Mean squared entrywise difference between true and regularized matrices,
    one value per cell of the batch ``reg.t_reg.shape[:-3]``.

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
    cells = t_reg.reshape((-1,) + t_true.shape)
    total = np.empty(len(cells))
    per = max(1, _SLICE_BYTES // t_true.nbytes)
    for start in range(0, len(cells), per):
        sq = t_true - cells[start:start + per]
        sq *= sq
        total[start:start + per] = sq.sum(axis=(-3, -2, -1))
    total = total.reshape(t_reg.shape[:-3])
    mse_plain = total / t_true.size
    discount = np.asarray(reg.method) == "discount"
    mse_absorbing = np.array(mse_plain)
    if discount.any():  # only a discount cell has an exit column
        exit_sq = ((1.0 - t_reg @ np.ones(n)) ** 2).sum(axis=(-2, -1))
        mse_absorbing = np.where(discount, (total + exit_sq) / (n_actions * (n + 1) ** 2),
                                 mse_plain)
    return MseResult(mse_plain, mse_absorbing[()])  # [()]: a scalar for one cell
