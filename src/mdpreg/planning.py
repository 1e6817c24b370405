"""Exact policy evaluation and policy iteration over tabular models.

Matrices may be substochastic (rows summing to at most 1, as produced by
the discount blend); gamma < 1 together with row sums <= 1 keeps the
evaluation system nonsingular. Evaluation is a direct LU solve, so all
equivalence properties can be tested at solver precision.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass

import numpy as np

from .mdp import TIE_TOL, TabularMdp
from .regularizers import RegularizedModel

_MAX_SWEEPS = 10_000
# an action must beat the incumbent by more than this times the problem's
# largest |Q| to replace it: far above a solve's round-off (~1e-16 relative
# per unit of condition number), far below the presets' smallest real gains
# (~1e-7 relative)
_ROUNDOFF = 1e-12


class PolicyIterationError(RuntimeError):
    """Policy iteration hit the sweep limit; ``problems`` indexes the stack."""

    def __init__(self, problems: list[int]):
        super().__init__(f"policy iteration did not converge in {_MAX_SWEEPS} sweeps"
                         f" (stacked problems {problems})")
        self.problems = problems


@dataclass(frozen=True)
class PlanningProblem:
    """One problem, or a stack of problems sharing r and gamma."""

    t: np.ndarray      # ([cells,] n_actions, n_states, n_states), rows sum to <= 1
    r: np.ndarray      # (n_states, n_actions)
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        # "not all ok" rather than "any bad": NaN fails every comparison
        if not (self.t >= -1e-12).all():
            raise ValueError("transition matrices must be finite and nonnegative")
        if not (self.t @ np.ones(self.n_states) <= 1.0 + 1e-9).all():  # row sums
            raise ValueError("transition rows must sum to at most 1")
        if not np.isfinite(self.r).all():
            raise ValueError("rewards must be finite")

    @property
    def n_states(self) -> int:
        return self.t.shape[-1]

    @property
    def n_actions(self) -> int:
        return self.t.shape[-3]

    @classmethod
    def from_mdp(cls, mdp: TabularMdp) -> "PlanningProblem":
        return cls(mdp.transition, mdp.reward_mean, mdp.gamma)

    @classmethod
    def from_regularized(cls, reg: RegularizedModel) -> "PlanningProblem":
        return cls(reg.t_reg, reg.r_hat, reg.gamma)


def policy_evaluation(problem: PlanningProblem, policy: np.ndarray) -> np.ndarray:
    """Solve V = R_pi + gamma * T_pi V directly, one LU per policy. Policies
    may stack, (..., n_states): over one problem, or one per stacked problem."""
    n = problem.n_states
    idx = np.arange(n)
    cell = (np.arange(len(problem.t))[:, None],) if problem.t.ndim == 4 else ()
    t_pi = problem.t[cell + (policy, idx)]
    r_pi = problem.r[idx, policy]
    # I - gamma * T_pi, built in the gathered copy: no second stack-sized array
    system = np.subtract(np.eye(n), np.multiply(problem.gamma, t_pi, out=t_pi), out=t_pi)
    return np.linalg.solve(system, r_pi[..., None])[..., 0]


def q_from_values(problem: PlanningProblem, v: np.ndarray) -> np.ndarray:
    """One-step lookahead: Q[..., s, a] = r[s, a] + gamma * t[..., a, s, :] @ v,
    a view of memory laid out (..., a, s)."""
    tv = (problem.t @ v[..., None, :, None])[..., 0]
    return np.swapaxes(problem.r.T + problem.gamma * tv, -1, -2)


def greedy_from_q(q: np.ndarray) -> np.ndarray:
    """Lowest action index within TIE_TOL of each row's maximum."""
    cutoff = q.max(axis=-1, keepdims=True) - TIE_TOL
    return (q >= cutoff).argmax(axis=-1)


def q_gaps(q: np.ndarray) -> np.ndarray:
    """Per-state gap between the best and second-best action values."""
    if q.shape[1] < 2:
        return np.full(q.shape[0], np.inf)
    top2 = np.partition(q, q.shape[1] - 2, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0]


def policy_iteration(problem: PlanningProblem, initial_policy: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Howard policy iteration; returns the optimal policy and its Q-function.

    Improvement keeps the incumbent action whenever it is maximal within
    round-off (_ROUNDOFF times the problem's largest |Q|): two equal-valued
    actions reached through different LU solves differ in their last bits,
    and switching on that noise can cycle forever. So every policy change
    increases the value by more than round-off and the sweep cannot cycle.
    The returned policy is re-canonicalized through greedy_from_q,
    breaking all ties toward the lowest action index within TIE_TOL.

    A stack returns (cells, n_states) policies and (cells, n_states,
    n_actions) Q-functions, with ``initial_policy`` shared or one per problem.
    Each problem takes exactly the sweeps it would alone; a sweep solves the
    problems not yet converged in one batched solve.
    """
    t = problem.t if problem.t.ndim == 4 else problem.t[None]
    k, n_actions, n = t.shape[:3]
    policy = np.empty((k, n), dtype=np.int64)
    policy[...] = 0 if initial_policy is None else initial_policy
    q_final, active, states = np.empty((k, n_actions, n)), np.arange(k), np.arange(n)
    sub = problem  # the problems still active
    for _ in range(_MAX_SWEEPS):
        current = policy[active]
        # (k, a, s): reductions over actions run along contiguous states
        q = np.swapaxes(q_from_values(sub, policy_evaluation(sub, current)), 1, 2)
        slack = _ROUNDOFF * np.abs(q).max(axis=(1, 2))[:, None]  # per problem
        kept = q[np.arange(len(active))[:, None], current, states] >= q.max(axis=1) - slack
        policy[active] = np.where(kept, current, q.argmax(axis=1))
        stable = kept.all(axis=1)  # a state not kept moves to a better action
        if stable.any():
            q_final[active[stable]] = q[stable]
            active = active[~stable]
            if active.size == 0:
                q = np.swapaxes(q_final, 1, 2)
                pi = greedy_from_q(q)
                return (pi, q) if problem.t.ndim == 4 else (pi[0], q[0])
            # a slice of the checked stack: copy() skips __post_init__'s checks
            sub = copy(problem)
            object.__setattr__(sub, "t", t[active])
    raise PolicyIterationError(active.tolist())

