"""The three weighted-average transition-matrix regularizers.

Each method replaces the MLE matrix for action ``a`` with a blend
``(1 - eps) * T_mle(a) + eps * T_other``:

* Dirichlet posterior mean under a uniform prior of mass m per pair:
  T_other is the uniform row 1/N, with a per state-action blend weight
  eps = m / (n_sa + m), n_sa the pair's visit count;
* discount blend: T_other is the zero matrix, leaving substochastic rows
  that sum to 1 - eps (equivalent to planning with the lowered discount
  (1 - eps) * gamma);
* stochastic-policy blend: T_other is the average of all actions'
  matrices, the transitions seen when every policy executes a uniform
  random action with probability eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import CountsTensor, EstimatedModel

METHODS = ("dirichlet", "discount", "eps_greedy", "none")


@dataclass(frozen=True)
class RegularizedModel:
    """Blended per-action matrices with leading batch axes ``...``: the batch of
    the model they blend, then the batch of cells (see ``regularize``). Each
    cell's method (read by ``transition_mse``) is shaped like the cell batch,
    and the reward estimate like the model's, with a 1 per cell axis, so both
    broadcast against the whole batch; ``gamma`` is the true discount every
    method plans with.
    """

    t_reg: np.ndarray   # (..., n_actions, n_states, n_states)
    r_hat: np.ndarray   # (model batch, 1 per cell axis, n_states, n_actions)
    method: np.ndarray  # (cell batch) of str
    gamma: float


def blend(t_mle: np.ndarray, t_other, eps, out: np.ndarray | None = None) -> np.ndarray:
    """The one kernel of every method, ``(1 - eps) * t_mle + eps * t_other``;
    ``eps`` is a scalar or one weight per row, ``(..., n_actions, n_states, 1)``."""
    out = np.multiply(1.0 - eps, t_mle, out=out)
    out += eps * t_other
    return out


def _blend_terms(visits: np.ndarray | None, action_mean: np.ndarray | None,
                 method: str, strength: float):
    """One cell's ``blend`` arguments for every model of a batch: T_other, a
    scalar or (..., 1, n_states, n_states) shared by every action, and eps, a
    scalar or one per row (..., n_actions, n_states, 1). ``visits`` is each
    row's visit count, (..., n_actions, n_states, 1), and ``action_mean`` the
    MLE's mean over actions, eps_greedy's T_other."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "dirichlet" and 0 <= strength < np.inf:
        # uniform prior of mass m per pair: eps = m / (n_sa + m), and 0 for pairs
        # with neither counts nor mass, which keep the MLE's uniform row
        totals = visits + strength
        eps = np.divide(strength, totals, out=np.zeros(totals.shape), where=totals > 0)
        return 1.0 / visits.shape[-2], eps
    if method in ("discount", "eps_greedy") and 0.0 <= strength <= 1.0:
        return (0.0 if method == "discount" else action_mean), float(strength)
    if method == "none" and strength == 0.0:
        return 0.0, 0.0
    raise ValueError(f"strength {strength} is out of range for method {method!r}: eps is"
                     " in [0, 1], a prior magnitude >= 0 and finite, and 'none' takes"
                     " strength 0 only")


def regularize(model: EstimatedModel, counts: CountsTensor | np.ndarray | None, method,
               strength, gamma: float) -> RegularizedModel:
    """Blend one cell; or, given equal-length sequences of methods and
    strengths, a batch of cells stacked in order along the batch axes
    ``np.shape(method)``. ``strength`` is eps, or the uniform prior magnitude
    of ``dirichlet``, the one method reading ``counts``: the counts the model
    was fitted from, or just their visit counts (..., n_states, n_actions),
    which is all it reads. A model and counts with leading batch axes blend
    every cell for each of their models: the output batch is the model batch
    followed by the cell batch.
    """
    methods, strengths = np.asarray(method, dtype=str), np.asarray(strength, dtype=float)
    if methods.shape != strengths.shape:
        raise ValueError(f"{methods.shape} methods but {strengths.shape} strengths")
    names = methods.ravel().tolist()
    if counts is None and "dirichlet" in names:
        raise ValueError("dirichlet cells need counts: their blend weight is each"
                         " pair's visit count, and counts is None")
    t_hat = model.t_hat
    batch, matrices = t_hat.shape[:-3], t_hat.shape[-3:]
    visit_count = counts.visit_count if isinstance(counts, CountsTensor) else counts
    visits = visit_count.swapaxes(-1, -2)[..., None] if "dirichlet" in names else None
    action_mean = t_hat.mean(axis=-3, keepdims=True) if "eps_greedy" in names else None
    # cell by cell into the stack: whole-stack temporaries cost more than the loop
    t_reg = np.empty(batch + methods.shape + matrices)
    cells = t_reg.reshape(batch + (len(names),) + matrices)  # a view of the new stack
    for j, (m, s) in enumerate(zip(names, strengths.ravel().tolist())):
        blend(t_hat, *_blend_terms(visits, action_mean, m, s), out=cells[..., j, :, :, :])
    r_hat = model.r_hat.reshape(batch + (1,) * methods.ndim + model.r_hat.shape[-2:])
    return RegularizedModel(t_reg, r_hat, methods, gamma)


def implied_prior_magnitude(gamma: float, gamma_l: float, count_sum: float,
                            n_states: int) -> float:
    """Per-entry uniform Dirichlet parameter matching discount regularization.

    Lowering the discount from gamma to gamma_l acts like a uniform prior
    with every parameter equal to ((gamma - gamma_l) / gamma_l) * (sum c / N);
    note the implied prior grows with the visit count of the pair.
    """
    if gamma_l <= 0.0:
        raise ValueError("gamma_l must be positive (formula is singular at 0)")
    if not gamma_l <= gamma < 1.0:
        raise ValueError(f"need 0 < gamma_l <= gamma < 1, got gamma={gamma}, gamma_l={gamma_l}")
    if count_sum < 0:
        raise ValueError("count_sum must be nonnegative")
    return (gamma - gamma_l) / gamma_l * (count_sum / n_states)
