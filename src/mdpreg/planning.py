"""Exact policy evaluation and policy iteration over tabular models.

Matrices may be substochastic (rows summing to at most 1, as produced by
the discount blend); gamma < 1 together with row sums <= 1 keeps the
evaluation system nonsingular. Evaluation is a direct LU solve, so all
equivalence properties can be tested at solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .mdp import PROB_TOL, TIE_TOL, TabularMdp, check_policy

_MAX_SWEEPS = 10_000
# an action must beat the incumbent by more than this times the problem's
# largest |Q| to replace it: far above a solve's round-off (~1e-16 relative
# per unit of condition number), far below the presets' smallest real gains
# (~1e-7 relative)
_ROUNDOFF = 1e-12


class PolicyIterationError(RuntimeError):
    """Policy iteration hit the sweep limit; ``problems`` indexes the flattened stack."""

    def __init__(self, problems: list[int]):
        super().__init__(f"policy iteration did not converge in {_MAX_SWEEPS} sweeps"
                         f" (stacked problems {problems})")
        self.problems = problems


@dataclass(frozen=True)
class PlanningProblem:
    """A stack of problems with leading batch axes ``...``, one problem for the
    empty batch shape, each with its own reward table."""

    t: np.ndarray      # (..., n_actions, n_states, n_states), rows sum to <= 1
    r: np.ndarray      # (..., n_states, n_actions), given in any shape that broadcasts
    gamma: float

    def __post_init__(self):
        # contiguous, so that policy_evaluation's flat view of the stack is a view
        t, r = np.ascontiguousarray(self.t, dtype=float), np.asarray(self.r, dtype=float)
        object.__setattr__(self, "t", t)
        if t.ndim < 3 or t.shape[-1] != t.shape[-2]:
            raise ValueError(f"transition matrices must be (..., A, N, N), got shape {t.shape}")
        if not self.n_states or not self.n_actions:
            raise ValueError("a problem needs at least one state and one action,"
                             f" got {self.n_states} state(s) and {self.n_actions} action(s)")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        # "not min ok" rather than "min bad": a NaN makes min NaN, failing every comparison
        if not t.min(initial=0.0) >= -1e-12:
            raise ValueError("transition matrices must be finite and nonnegative")
        if not (t @ np.ones(self.n_states)).max(initial=0.0) <= 1.0 + PROB_TOL:  # row sums
            raise ValueError("transition rows must sum to at most 1")
        if not np.isfinite(r).all():
            raise ValueError("rewards must be finite")
        # one table per problem, a ValueError unless r broadcasts; a copy, as
        # np.broadcast_to's view costs more to make than N * A floats to copy
        object.__setattr__(self, "r", np.empty(t.shape[:-3] + (self.n_states, self.n_actions)))
        self.r[...] = r

    @property
    def n_states(self) -> int:
        return self.t.shape[-1]

    @property
    def n_actions(self) -> int:
        return self.t.shape[-3]

    @classmethod
    def from_mdp(cls, mdp: TabularMdp) -> "PlanningProblem":
        return cls(mdp.transition, mdp.reward_mean, mdp.gamma)


def policy_evaluation(problem: PlanningProblem, policy: np.ndarray,
                      problems: np.ndarray | None = None) -> np.ndarray:
    """Solve V = R_pi + gamma * T_pi V directly, one LU per policy. Policies
    (..., n_states) broadcast against the problem's batch axes: one problem
    under many policies, or one per stacked problem. ``problems``, flat indices
    into the problem's stack, solves only those, one policy (k', n_states) each,
    gathers no row of the others and leaves the policies unchecked; a broadcast
    call solves the flat indices ``np.arange(k).reshape(batch)``."""
    batch, n, n_actions = problem.t.shape[:-3], problem.n_states, problem.n_actions
    k = prod(batch)  # the stack as a view of (k,) problems
    t, r = problem.t.reshape(k, n_actions, n, n), problem.r.reshape(k, n, n_actions)
    if problems is None:
        policy = check_policy(policy, n_actions)
        if policy.shape[-1:] != (n,):
            raise ValueError(f"policy must be (..., {n}) for {n} states, got shape {policy.shape}")
        problems = np.arange(k).reshape(batch)
    idx, cells = np.arange(n), problems[..., None]
    t_pi = t[cells, policy, idx]
    r_pi = r[cells, idx, policy]
    # I - gamma * T_pi in the gathered copy; 1 + (-x) on the diagonal has 1 - x's bits
    system = np.multiply(-problem.gamma, t_pi, out=t_pi)
    system.reshape(system.shape[:-2] + (n * n,))[..., ::n + 1] += 1.0
    return np.linalg.solve(system, r_pi[..., None])[..., 0]


def q_from_values(problem: PlanningProblem, v: np.ndarray) -> np.ndarray:
    """One-step lookahead: Q[..., s, a] = r[..., s, a] + gamma * t[..., a, s, :] @ v,
    a view of memory laid out (..., a, s)."""
    tv = (problem.t @ v[..., None, :, None])[..., 0]
    tv *= problem.gamma  # in place: gamma * tv + r has the bits of r + gamma * tv
    tv += problem.r.swapaxes(-1, -2)
    return tv.swapaxes(-1, -2)


def greedy_from_q(q: np.ndarray) -> np.ndarray:
    """Lowest action index within TIE_TOL of each row's maximum."""
    cutoff = q.max(axis=-1, keepdims=True) - TIE_TOL
    return (q >= cutoff).argmax(axis=-1)


def q_gaps(q: np.ndarray) -> np.ndarray:
    """Per-state gap between the best and second-best of the last axis' values."""
    if q.shape[-1] < 2:
        return np.full(q.shape[:-1], np.inf)
    top2 = np.partition(q, q.shape[-1] - 2, axis=-1)[..., -2:]
    return top2[..., 1] - top2[..., 0]


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

    A stack of batch shape ``...`` returns (..., n_states) policies and
    (..., n_states, n_actions) Q-functions, with ``initial_policy`` shared or
    one per problem. Each problem takes exactly the sweeps it would alone; a
    sweep solves the problems not yet converged in one batched solve.
    """
    batch, (n_actions, n) = problem.t.shape[:-3], problem.t.shape[-3:-1]
    policy = np.empty(batch + (n,), dtype=np.int64)
    # checked once, here; a ValueError unless it broadcasts
    policy[...] = check_policy(0 if initial_policy is None else initial_policy, n_actions,
                               "initial_policy")
    # a sweep solves the active problems by flat index and takes the lookahead
    # of all, stale values and all, so that no problem's matrices are copied
    policy = policy.reshape(-1, n)
    active, states = np.arange(len(policy)), np.arange(n)
    v, q_final = np.empty((len(active), n)), np.empty((len(active), n_actions, n))
    for _ in range(_MAX_SWEEPS if active.size else 0):  # an empty stack takes no sweep
        current = policy[active]
        v[active] = policy_evaluation(problem, current, active)
        # (k, a, s): reductions over actions run along contiguous states
        q = q_from_values(problem, v.reshape(batch + (n,))).swapaxes(-1, -2).reshape(
            -1, n_actions, n)[active]
        slack = _ROUNDOFF * np.abs(q).max(axis=(1, 2))[:, None]  # per problem
        kept = q[np.arange(len(active))[:, None], current, states] >= q.max(axis=1) - slack
        policy[active] = np.where(kept, current, q.argmax(axis=1))
        stable = kept.all(axis=1)  # a state not kept moves to a better action
        if stable.any():
            q_final[active[stable]] = q[stable]
            active = active[~stable]
            if active.size == 0:
                break
    if active.size:
        raise PolicyIterationError(active.tolist())
    q = q_final.swapaxes(1, 2).reshape(batch + (n, n_actions))
    return greedy_from_q(q), q

