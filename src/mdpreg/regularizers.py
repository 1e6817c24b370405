"""The three weighted-average transition-matrix regularizers.

Each method replaces the MLE matrix for action ``a`` with a blend
``(1 - eps) * T_mle(a) + eps * T_other``:

* Dirichlet posterior mean: T_other is the prior-mean row, with a per
  state-action blend weight eps = sum(alpha) / (sum(c) + sum(alpha));
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

from .estimation import CountsTensor, EstimatedModel, mle_model

METHODS = ("dirichlet", "discount", "eps_greedy", "none")


@dataclass(frozen=True)
class DirichletPrior:
    """Per state-action Dirichlet parameters over successor states."""

    alpha: np.ndarray  # (n_states, n_actions, n_states), nonnegative

    def __post_init__(self):
        if np.any(self.alpha < 0):
            raise ValueError("Dirichlet parameters must be nonnegative")


@dataclass(frozen=True)
class RegularizedModel:
    """Blended per-action matrices plus the blend metadata.

    ``eps_per_pair`` is the realized blend weight of each state-action pair;
    ``gamma_l`` the equivalent lowered discount of a single discount cell. A
    batch of cells (see ``regularize``) has tuples for ``method`` and
    ``strength`` and a leading cell axis on ``t_reg`` and ``eps_per_pair``.
    """

    t_reg: np.ndarray   # (n_actions, n_states, n_states), or (cells, ...) for a batch
    r_hat: np.ndarray   # (n_states, n_actions)
    method: str | tuple[str, ...]
    strength: float | tuple[float, ...]
    effective_gamma: float
    eps_per_pair: np.ndarray | None = None  # (n_states, n_actions), or (cells, ...)
    gamma_l: float | None = None


def blend(t_mle: np.ndarray, t_other, eps, out: np.ndarray | None = None) -> np.ndarray:
    """The one kernel of every method, ``(1 - eps) * t_mle + eps * t_other``;
    ``eps`` is a scalar or one weight per row, ``(n_actions, n_states, 1)``."""
    out = np.multiply(1.0 - eps, t_mle, out=out)
    out += eps * t_other
    return out


def uniform_prior(magnitude: float, n_states: int, n_actions: int) -> DirichletPrior:
    """Uniform Dirichlet prior with total parameter mass ``magnitude`` per pair."""
    if magnitude < 0:
        raise ValueError(f"prior magnitude must be nonnegative, got {magnitude}")
    alpha = np.full((n_states, n_actions, n_states), magnitude / n_states)
    return DirichletPrior(alpha)


def dirichlet_posterior_mean(counts: CountsTensor, prior: DirichletPrior,
                             gamma: float) -> RegularizedModel:
    """Posterior-mean rows (c + alpha) / (sum c + sum alpha): the MLE row blended
    with the prior-mean row at eps = sum(alpha) / (sum(c) + sum(alpha))."""
    if prior.alpha.shape != counts.c.shape:
        raise ValueError(
            f"prior shape {prior.alpha.shape} does not match counts shape {counts.c.shape}"
        )
    est = mle_model(counts)
    alpha_sums = prior.alpha.sum(axis=2)                  # (n_states, n_actions)
    prior_mean, eps = _posterior_terms(counts, alpha_sums, prior.alpha)
    return RegularizedModel(blend(est.t_hat, prior_mean, eps.T[:, :, None]), est.r_hat,
                            "dirichlet", float(alpha_sums.mean()), gamma, eps)


def _posterior_terms(counts: CountsTensor, alpha_sums, alpha: np.ndarray | None = None):
    """The posterior mean's T_other, the prior-mean rows (n_actions, n_states,
    n_states) or 1/N for a uniform prior (``alpha`` None), and its per-pair
    eps = sum(alpha) / (sum(c) + sum(alpha)). Pairs with neither counts nor
    prior mass get eps = 0, keeping the MLE's uniform row."""
    totals = counts.visit_count + alpha_sums
    eps = np.divide(alpha_sums, totals, out=np.zeros(totals.shape), where=totals > 0)
    if alpha is None:
        return 1.0 / counts.n_states, eps
    prior_mean = np.divide(alpha, alpha_sums[:, :, None], where=alpha_sums[:, :, None] > 0,
                           out=np.full(alpha.shape, 1.0 / counts.n_states))
    return np.moveaxis(prior_mean, 1, 0), eps


def discount_blend(model: EstimatedModel, eps: float, gamma: float) -> RegularizedModel:
    """Blend each matrix with zeros: rows sum to 1 - eps, planned with true gamma."""
    return regularize(model, None, "discount", eps, gamma)


def eps_greedy_blend(model: EstimatedModel, eps: float, gamma: float) -> RegularizedModel:
    """Blend each matrix with the average over all actions' matrices."""
    return regularize(model, None, "eps_greedy", eps, gamma)


def _blend_terms(model: EstimatedModel, counts: CountsTensor | None, method: str,
                 strength: float):
    """One cell's T_other, a scalar or (n_states, n_states) shared by every
    action, and its blend weight, a scalar or per pair (n_states, n_actions)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "dirichlet" and strength >= 0:
        return _posterior_terms(counts, strength)  # uniform prior of mass m per pair
    if method in ("discount", "eps_greedy") and 0.0 <= strength <= 1.0:
        return (0.0 if method == "discount" else model.t_hat.mean(axis=0)), float(strength)
    if method == "none" and strength == 0.0:
        return 0.0, 0.0
    raise ValueError(f"strength {strength} is out of range for method {method!r}: eps is"
                     " in [0, 1], a prior magnitude >= 0, and 'none' takes strength 0 only")


def regularize(model: EstimatedModel, counts: CountsTensor | None, method,
               strength, gamma: float) -> RegularizedModel:
    """Blend one cell; or, given equal-length sequences of methods and
    strengths, a batch of cells stacked in order. ``strength`` is eps, or the
    uniform prior magnitude of ``dirichlet``, the one method reading ``counts``.
    """
    single = isinstance(method, str)
    methods = (method,) if single else tuple(method)
    strengths = (strength,) if single else tuple(float(s) for s in strength)
    if len(methods) != len(strengths):
        raise ValueError(f"{len(methods)} methods but {len(strengths)} strengths")
    # cell by cell into the stack: whole-stack temporaries cost more than the loop
    t_reg = np.empty((len(methods),) + model.t_hat.shape)
    eps_per_pair = np.empty((len(methods),) + model.r_hat.shape)
    for i, (m, s) in enumerate(zip(methods, strengths)):
        t_other, eps = _blend_terms(model, counts, m, s)
        eps_per_pair[i] = eps  # a scalar eps keeps numpy's fast scalar loop
        blend(model.t_hat, t_other, eps if np.ndim(eps) == 0 else eps.T[:, :, None],
              out=t_reg[i])
    if not single:
        return RegularizedModel(t_reg, model.r_hat, methods, strengths, gamma, eps_per_pair)
    gamma_l = (1.0 - strength) * gamma if method == "discount" else None
    return RegularizedModel(t_reg[0], model.r_hat, method, float(strength), gamma,
                            eps_per_pair[0], gamma_l)


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


def eps_from_gammas(gamma: float, gamma_l: float) -> float:
    """Blend weight equivalent to lowering the discount: (gamma - gamma_l) / gamma."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if not 0.0 <= gamma_l <= gamma:
        raise ValueError(f"need 0 <= gamma_l <= gamma, got gamma={gamma}, gamma_l={gamma_l}")
    return (gamma - gamma_l) / gamma


def gamma_l_from_eps(gamma: float, eps: float) -> float:
    """Inverse of eps_from_gammas."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    return (1.0 - eps) * gamma


def eps_from_prior(alpha_sum: float, count_sum: float) -> float:
    """Blend weight of the posterior mean: sum(alpha) / (sum(c) + sum(alpha))."""
    denom = count_sum + alpha_sum
    if denom <= 0.0:
        raise ValueError("count_sum + alpha_sum must be positive")
    return alpha_sum / denom


def alpha_sum_from_eps(eps: float, count_sum: float) -> float:
    """Inverse of eps_from_prior: the prior mass realizing a given blend weight."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    return eps / (1.0 - eps) * count_sum
