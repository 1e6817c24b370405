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


class MdpSpecError(ValueError):
    """An invalid MDP: a TabularMdp that breaks an invariant, or a spec file
    that cannot be parsed into one; ``problems`` holds one message per problem."""

    def __init__(self, problems: str | list[str]):
        self.problems = [problems] if isinstance(problems, str) else problems
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP with per-action transition matrices and Gaussian rewards.

    ``transition[a, s, s']`` is the probability of landing in ``s'`` when
    taking action ``a`` in state ``s``. Absorbing states self-loop under
    every action and pay zero reward forever. Building one, ``replace``
    included, checks every invariant: it raises one MdpSpecError listing
    every violation.
    """

    transition: np.ndarray   # (n_actions, n_states, n_states)
    reward_mean: np.ndarray  # (n_states, n_actions)
    reward_std: np.ndarray   # (n_states, n_actions)
    gamma: float
    absorbing: frozenset[int] = frozenset()
    name: str = "mdp"

    def __post_init__(self):
        for field in ("transition", "reward_mean", "reward_std"):
            object.__setattr__(self, field, _freeze(getattr(self, field)))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "absorbing", frozenset(int(s) for s in self.absorbing))
        if problems := self._violations():
            raise MdpSpecError(problems)

    @property
    def n_states(self) -> int:
        return self.transition.shape[1]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[0]

    def _violations(self) -> list[str]:
        """One message per violated invariant; none if the MDP is well-formed."""
        t, r_mean, r_std = self.transition, self.reward_mean, self.reward_std
        if t.ndim != 3 or t.shape[1] != t.shape[2]:
            return [f"transition must be (n_actions, N, N), got shape {t.shape}"]
        n_actions, n = t.shape[:2]
        report = []
        if r_mean.shape != (n, n_actions):
            report.append(f"reward_mean must have shape ({n}, {n_actions}), got {r_mean.shape}")
        if r_std.shape != (n, n_actions):
            report.append(f"reward_std must have shape ({n}, {n_actions}), got {r_std.shape}")
        elif np.any(r_std < 0):
            report.append("reward_std has negative entries")

        for field, arr in (("transition", t), ("reward_mean", r_mean), ("reward_std", r_std)):
            bad = np.argwhere(~np.isfinite(arr))
            if len(bad):
                report.append(f"{field} has a non-finite entry at index {tuple(bad[0].tolist())}")
        if np.any(t < 0):
            a, s, _ = np.argwhere(t < 0)[0]
            report.append(f"transition action {a} row {s} has a negative entry")
        row_sums = t.sum(axis=2)
        for a, s in np.argwhere(np.abs(row_sums - 1.0) > PROB_TOL):
            report.append(f"transition action {a} row {s} sums to {row_sums[a, s]:.6g}")

        if not 0.0 <= self.gamma < 1.0:
            report.append(f"gamma out of range [0, 1): got {self.gamma:.6g}")

        for s in sorted(self.absorbing):
            if not 0 <= s < n:
                report.append(f"absorbing state {s} out of range [0, {n})")
                continue
            for a in range(n_actions):
                if np.abs(t[a, s] - np.eye(n)[s]).max() > PROB_TOL:
                    report.append(f"absorbing state {s} is not a self-loop under action {a}")
                if r_mean.shape == (n, n_actions) and r_mean[s, a] != 0.0:
                    report.append(f"absorbing state {s} has nonzero reward_mean"
                                  f" {r_mean[s, a]:.6g} under action {a}")
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
