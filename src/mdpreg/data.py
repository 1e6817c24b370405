"""Batch dataset generation from a true MDP under a mixed behavior policy.

The behavior policy mixes per step: with probability ``p_optimal`` the
recorded action is the optimal one, otherwise it is drawn uniformly over
all actions. Datasets are a pure function of (mdp, optimal policy, config,
master seed); trajectory ``i`` draws from ``child_seed(master_seed, i)``,
so trajectories can be regenerated independently and in any order.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mdp import TabularMdp
from .seeding import child_seed


@dataclass(frozen=True, eq=False)
class Dataset:
    """A batch as four ``(n_trajectories, trajectory_length)`` arrays: row i is
    trajectory i and column j its step j; rewards are float64, the rest int64."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.states.size


@dataclass(frozen=True)
class StartMode:
    """Start-state rule for trajectories: uniform, a fixed state, or a set."""

    kind: str
    states: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("uniform", "fixed", "set"):
            raise ValueError(f"unknown start mode {self.kind!r}")
        if self.kind == "fixed" and len(self.states) != 1:
            raise ValueError("fixed start mode takes exactly one state")
        if self.kind == "set" and len(self.states) == 0:
            raise ValueError("set start mode requires a non-empty state list")
        object.__setattr__(self, "states", tuple(int(s) for s in self.states))

    @classmethod
    def uniform(cls) -> "StartMode":
        return cls("uniform")

    @classmethod
    def fixed(cls, state: int) -> "StartMode":
        return cls("fixed", (state,))

    @classmethod
    def subset(cls, states: Sequence[int]) -> "StartMode":
        return cls("set", tuple(states))

    def distribution(self, n_states: int) -> np.ndarray:
        """Probability vector over start states; also the loss weighting."""
        dist = np.zeros(n_states)
        if self.kind == "uniform":
            dist[:] = 1.0 / n_states
        else:
            for s in self.states:
                if not 0 <= s < n_states:
                    raise ValueError(f"start state {s} out of range [0, {n_states})")
            dist[list(self.states)] = 1.0 / len(self.states)
        return dist


@dataclass(frozen=True)
class CollectionConfig:
    """How a batch is collected: size, behavior mixture, and starts."""

    n_trajectories: int
    trajectory_length: int
    p_optimal: float = 0.0
    start_mode: StartMode = StartMode.uniform()

    def __post_init__(self):
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be positive")
        if self.trajectory_length < 1:
            raise ValueError("trajectory_length must be positive")
        if not 0.0 <= self.p_optimal <= 1.0:
            raise ValueError(f"p_optimal must be in [0, 1], got {self.p_optimal}")


def _trajectory_sampler(mdp: TabularMdp, optimal: np.ndarray, cfg: CollectionConfig):
    """The trajectory sampler, its start and transition CDFs built once:
    ``sample(rng)`` returns one trajectory's (states, actions, rewards, next_states)."""
    n, n_actions = mdp.n_states, mdp.n_actions
    start_cdf = np.cumsum(cfg.start_mode.distribution(n)).tolist()
    cum_rows = np.cumsum(mdp.transition, axis=2).tolist()
    optimal, mean, std = optimal.tolist(), mdp.reward_mean.tolist(), mdp.reward_std.tolist()

    def sample(rng: np.random.Generator):
        steps = []
        state = min(bisect_right(start_cdf, rng.random()), n - 1)
        for _ in range(cfg.trajectory_length):
            if rng.random() < cfg.p_optimal:
                action = optimal[state]
            else:
                action = int(rng.integers(n_actions))
            if state in mdp.absorbing:
                reward, next_state = 0.0, state
            else:
                next_state = min(bisect_right(cum_rows[action][state], rng.random()), n - 1)
                reward = float(rng.normal(mean[state][action], std[state][action]))
            steps.append((state, action, reward, next_state))
            state = next_state
        return tuple(zip(*steps))

    return sample


def generate_dataset(mdp: TabularMdp, optimal: np.ndarray, cfg: CollectionConfig,
                     master_seed: int) -> Dataset:
    """Generate cfg.n_trajectories trajectories; row i draws from child_seed(master_seed, i)."""
    sample = _trajectory_sampler(mdp, optimal, cfg)
    rows = [sample(np.random.default_rng(child_seed(master_seed, i)))
            for i in range(cfg.n_trajectories)]
    return Dataset(*map(np.array, zip(*rows)))


def write_dataset_csv(path, datasets: Sequence[Dataset]) -> None:
    """Dump datasets as one CSV row per step, indexed by replication."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replication", "trajectory", "step", "state", "action",
                         "reward", "next_state"])
        for rep, dataset in enumerate(datasets):
            columns = (dataset.states.tolist(), dataset.actions.tolist(),
                       dataset.rewards.tolist(), dataset.next_states.tolist())
            for ti, traj in enumerate(zip(*columns)):
                for si, step in enumerate(zip(*traj)):
                    writer.writerow([rep, ti, si, *step])
