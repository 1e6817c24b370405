"""Sufficient statistics and the maximum-likelihood model of a dataset.

Unvisited state-action pairs fall back to a uniform transition row and a
mean reward of 0.50. The fallback is applied verbatim in every
environment, including those whose true rewards are negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset

UNVISITED_REWARD = 0.50


@dataclass(frozen=True)
class CountsTensor:
    """Transition counts and reward sums, the sufficient statistics, with
    leading batch axes ``...``: one dataset's for the empty batch shape, or a
    stack of datasets', whose batch axes come from stacking, not from ``count``."""

    c: np.ndarray            # (..., n_states, n_actions, n_states) int64
    reward_sum: np.ndarray   # (..., n_states, n_actions)
    visit_count: np.ndarray  # (..., n_states, n_actions) int64

    @property
    def n_states(self) -> int:
        return self.c.shape[-1]


@dataclass(frozen=True)
class EstimatedModel:
    """MLE transition matrices and mean rewards with the leading batch axes
    ``...`` of the counts they were fitted from."""

    t_hat: np.ndarray  # (..., n_actions, n_states, n_states)
    r_hat: np.ndarray  # (..., n_states, n_actions)

    @cached_property
    def action_mean(self) -> np.ndarray:
        """The mean of the matrices over actions, (..., 1, n_states, n_states):
        eps_greedy's T_other, made once however many cells blend it."""
        return self.t_hat.mean(axis=-3, keepdims=True)


def count(dataset: Dataset, n_states: int, n_actions: int) -> CountsTensor:
    """One dataset's transition counts and reward sums, added in trajectory-then-step order."""
    s, a, s_next = dataset.states, dataset.actions, dataset.next_states
    if s.ndim != 2:
        raise ValueError(f"count takes one dataset, got arrays of shape {s.shape}")
    bad = ((s < 0) | (s >= n_states) | (a < 0) | (a >= n_actions)
           | (s_next < 0) | (s_next >= n_states))
    if bad.any():
        ti, si = np.argwhere(bad)[0]
        step = tuple(int(x[ti, si]) for x in (s, a, s_next))
        raise ValueError(f"trajectory {ti} step {si}: indices {step} out of range"
                         f" for {n_states} states x {n_actions} actions")
    sa = (s * n_actions + a).ravel()
    c = np.bincount(sa * n_states + s_next.ravel(), minlength=n_states * n_actions * n_states
                    ).reshape(n_states, n_actions, n_states)
    reward_sum = np.bincount(sa, dataset.rewards.ravel(), minlength=n_states * n_actions)
    return CountsTensor(c, reward_sum.reshape(n_states, n_actions), c.sum(axis=2))


def mle_model(counts: CountsTensor) -> EstimatedModel:
    """Empirical frequencies per visited pair; uniform rows and reward 0.50
    elsewhere; one model per dataset of the counts' batch."""
    n = counts.n_states
    visits = counts.visit_count
    visited = visits > 0
    denom = np.maximum(visits, 1)[..., None]
    rows = np.where(visited[..., None], counts.c / denom, 1.0 / n)
    r_hat = np.where(visited, counts.reward_sum / np.maximum(visits, 1), UNVISITED_REWARD)
    t_hat = np.ascontiguousarray(np.moveaxis(rows, -2, -3))
    return EstimatedModel(t_hat, r_hat)
