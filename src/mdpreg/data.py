"""Batch dataset generation from a true MDP under a mixed behavior policy.

With probability ``p_optimal`` a step records the optimal action, otherwise
a uniformly drawn one. Trajectory ``i`` draws two fixed blocks from its own
stream ``default_rng(child_seed(master_seed, i))`` ("dataset stream v2"):
``random(1 + 3L)``, laid out ``u_start | (coin, action, next) x L``, then
``standard_normal(L)``. All trajectories then advance in lockstep, one
vectorised step at a time, so each row depends on its own stream only.
"""

from __future__ import annotations

import csv
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
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"start states {list(self.states)} have duplicates")
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


def generate_dataset(mdp: TabularMdp, optimal: np.ndarray, cfg: CollectionConfig,
                     master_seed: int) -> Dataset:
    """cfg.n_trajectories rows of read-only arrays; see the module docstring for the draws."""
    n, n_actions, rows, length = (mdp.n_states, mdp.n_actions, cfg.n_trajectories,
                                  cfg.trajectory_length)
    u, z = np.empty((rows, 1 + 3 * length)), np.empty((rows, length))
    for i in range(rows):
        # the stream of default_rng(seed), without its argument dispatch (~10 µs)
        rng = np.random.Generator(np.random.PCG64(child_seed(master_seed, i)))
        rng.random(out=u[i])
        rng.standard_normal(out=z[i])
    # absorbing states step to themselves (a step CDF) and pay exactly 0.0
    cum = np.cumsum(mdp.transition, axis=2)
    mean, std = mdp.reward_mean.copy(), mdp.reward_std.copy()
    for s in mdp.absorbing:
        cum[:, s] = np.arange(n) >= s
        mean[s] = std[s] = 0.0
    cum = cum.reshape(n_actions * n, n)
    coin, u_action, u_next = u[:, 1:].reshape(rows, length, 3).transpose(2, 0, 1)
    random_action = np.minimum((u_action * n_actions).astype(np.int64), n_actions - 1)
    start_cdf = np.cumsum(cfg.start_mode.distribution(n))
    states = np.empty((rows, length + 1), dtype=np.int64)
    states[:, 0] = np.minimum(np.searchsorted(start_cdf, u[:, 0], side="right"), n - 1)
    actions = np.empty((rows, length), dtype=np.int64)
    for j in range(length):
        s = states[:, j]
        a = actions[:, j] = np.where(coin[:, j] < cfg.p_optimal, optimal[s], random_action[:, j])
        states[:, j + 1] = np.minimum((cum[a * n + s] <= u_next[:, j, None]).sum(1), n - 1)
    idx = states[:, :-1], actions
    arrays = (*idx, mean[idx] + std[idx] * z, states[:, 1:])
    for arr in arrays:
        arr.setflags(write=False)
    return Dataset(*arrays)


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
