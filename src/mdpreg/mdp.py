"""Tabular MDP representation and the value objects shared by all modules.

Conventions used throughout the package:

* transition matrices are stacked per action: ``transition[a, s, s']``;
* rewards are Gaussian per state-action pair: ``reward_mean[s, a]``,
  ``reward_std[s, a]``;
* a deterministic policy is an integer array of shape ``(n_states,)``;
* a value function is a float array ``(n_states,)`` and a Q-function a
  float array ``(n_states, n_actions)``.

Everything is immutable after construction (arrays are marked read-only),
so models can be shared freely across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

PROB_TOL = 1e-9  # tolerance on row sums and distribution sums
TIE_TOL = 1e-6   # default tolerance for Q-value tie detection
DEFAULT_GAMMA = 0.95


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP with per-action transition matrices and Gaussian rewards.

    ``transition[a, s, s']`` is the probability of landing in ``s'`` when
    taking action ``a`` in state ``s``. Absorbing states self-loop under
    every action and pay zero reward forever.
    """

    transition: np.ndarray   # (n_actions, n_states, n_states)
    reward_mean: np.ndarray  # (n_states, n_actions)
    reward_std: np.ndarray   # (n_states, n_actions)
    gamma: float
    start_dist: np.ndarray   # (n_states,)
    absorbing: frozenset[int] = frozenset()
    name: str = "mdp"

    def __post_init__(self):
        object.__setattr__(self, "transition", _freeze(self.transition))
        object.__setattr__(self, "reward_mean", _freeze(self.reward_mean))
        object.__setattr__(self, "reward_std", _freeze(self.reward_std))
        object.__setattr__(self, "start_dist", _freeze(self.start_dist))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "absorbing", frozenset(int(s) for s in self.absorbing))

    @property
    def n_states(self) -> int:
        return self.transition.shape[1]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[0]


def validate_mdp(mdp: TabularMdp) -> list[str]:
    """Check every structural invariant, returning one message per violation.

    An empty list means the MDP is well-formed. Reports rather than raises
    so callers (the spec-file linter in particular) can show all defects at
    once.
    """
    report: list[str] = []
    t = mdp.transition
    if t.ndim != 3 or t.shape[1] != t.shape[2]:
        report.append(f"transition must be (n_actions, N, N), got shape {t.shape}")
        return report
    n_actions, n = t.shape[0], t.shape[1]
    if mdp.reward_mean.shape != (n, n_actions):
        report.append(
            f"reward_mean must have shape ({n}, {n_actions}), got {mdp.reward_mean.shape}"
        )
    if mdp.reward_std.shape != (n, n_actions):
        report.append(
            f"reward_std must have shape ({n}, {n_actions}), got {mdp.reward_std.shape}"
        )
    elif np.any(mdp.reward_std < 0):
        report.append("reward_std has negative entries")

    for field in ("transition", "reward_mean", "reward_std", "start_dist"):
        bad = np.argwhere(~np.isfinite(getattr(mdp, field)))
        if len(bad):
            report.append(f"{field} has a non-finite entry at index {tuple(bad[0].tolist())}")
    if np.any(t < 0):
        a, s, _ = np.argwhere(t < 0)[0]
        report.append(f"transition action {a} row {s} has a negative entry")
    row_sums = t.sum(axis=2)
    bad = np.argwhere(np.abs(row_sums - 1.0) > PROB_TOL)
    for a, s in bad:
        report.append(f"transition action {a} row {s} sums to {row_sums[a, s]:.6g}")

    if mdp.start_dist.shape != (n,):
        report.append(f"start_dist must have length {n}, got shape {mdp.start_dist.shape}")
    else:
        if np.any(mdp.start_dist < 0):
            report.append("start_dist has negative entries")
        total = mdp.start_dist.sum()
        if abs(total - 1.0) > PROB_TOL:
            report.append(f"start_dist sums to {total:.6g}")

    if not 0.0 <= mdp.gamma < 1.0:
        report.append(f"gamma out of range [0, 1): got {mdp.gamma:.6g}")

    for s in sorted(mdp.absorbing):
        if not 0 <= s < n:
            report.append(f"absorbing state {s} out of range [0, {n})")
            continue
        for a in range(n_actions):
            row = t[a, s]
            expected = np.zeros(n)
            expected[s] = 1.0
            if np.abs(row - expected).max() > PROB_TOL:
                report.append(f"absorbing state {s} is not a self-loop under action {a}")
            if mdp.reward_mean.shape == (n, n_actions) and mdp.reward_mean[s, a] != 0.0:
                report.append(
                    f"absorbing state {s} has nonzero reward_mean {mdp.reward_mean[s, a]:.6g}"
                    f" under action {a}"
                )
    return report


def apply_reward_shift(mdp: TabularMdp, x: float) -> TabularMdp:
    """Return a copy with all non-absorbing reward means increased by ``x``.

    Absorbing states keep reward zero so the shifted MDP stays valid; on
    absorbing-free MDPs the shift moves every Q entry by x/(1-gamma) and
    leaves the optimal policy unchanged.
    """
    shifted = mdp.reward_mean.copy()
    mask = np.ones(mdp.n_states, dtype=bool)
    if mdp.absorbing:
        mask[list(mdp.absorbing)] = False
    shifted[mask] += x
    return replace(mdp, reward_mean=shifted)
