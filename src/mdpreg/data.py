"""Batch dataset generation from a true MDP under a mixed behavior policy.

With probability ``p_optimal`` a step records the optimal action, otherwise
a uniformly drawn one. A dataset draws its variates from two streams spawned
from ``SeedSequence(master_seed)`` ("dataset stream v3"): ``random((rows,
1 + 3L))``, each row laid out ``u_start | (coin, action, next) x L``, and
``standard_normal((rows, L))``. Both blocks are row-major, so row i depends
only on (master_seed, i) and the first k rows of a dataset are the k-row
dataset. All trajectories then advance in lockstep, one vectorised step at a
time.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mdp import TabularMdp


def is_real(value) -> bool:
    """A real number a float can hold, NaN and infinities included; no bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and not (isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max))


# (check, expected type) of an integer config field; numpy integers pass, bool does not
INTEGER = (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer")


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the full problem list."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid experiment config: " + "; ".join(problems))


def check(rules) -> None:
    """Raise one ConfigError with the message of every broken rule, a
    (broken, message) pair; return if none is broken."""
    if problems := [message for broken, message in rules if broken]:
        raise ConfigError(problems)


def check_types(config, kinds: dict) -> None:
    """``check`` that each field of ``config`` passes its (check, expected type) in ``kinds``."""
    check((not ok(value), f"{name} must be {expected}, got {value!r}")
          for name, (ok, expected) in kinds.items() for value in [getattr(config, name)])


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
        kind, states = self.kind, self.states
        check([(not isinstance(states, (tuple, list)) or not all(map(INTEGER[0], states)),
                f"start states must be a tuple or list of integers, got {states!r}")])
        check((
            (kind not in ("uniform", "fixed", "set"), f"unknown start mode {kind!r}"),
            (kind == "fixed" and len(states) != 1, "fixed start mode takes exactly one state"),
            (kind == "set" and len(states) == 0, "set start mode requires a non-empty state list"),
            (len(set(states)) != len(states), f"start states {list(states)} have duplicates"),
        ))
        object.__setattr__(self, "states", tuple(int(s) for s in states))

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
        check_types(self, {"n_trajectories": INTEGER, "trajectory_length": INTEGER,
                           "p_optimal": (is_real, "a real number"),
                           "start_mode": (lambda v: isinstance(v, StartMode), "a StartMode")})
        object.__setattr__(self, "n_trajectories", int(self.n_trajectories))
        object.__setattr__(self, "trajectory_length", int(self.trajectory_length))
        # -0.0 == 0.0 draws the same data, so it must hash as 0.0 (x + 0.0 is never -0.0)
        object.__setattr__(self, "p_optimal", float(self.p_optimal) + 0.0)
        check((
            (self.n_trajectories < 1, "n_trajectories must be positive"),
            (self.trajectory_length < 1, "trajectory_length must be positive"),
            (not 0.0 <= self.p_optimal <= 1.0,
             f"p_optimal must be in [0, 1], got {self.p_optimal}"),
        ))


def generate_dataset(mdp: TabularMdp, optimal: np.ndarray, cfg: CollectionConfig,
                     master_seed: int) -> Dataset:
    """cfg.n_trajectories rows of read-only arrays; see the module docstring for the draws."""
    n, n_actions, rows, length = (mdp.n_states, mdp.n_actions, cfg.n_trajectories,
                                  cfg.trajectory_length)
    u_rng, z_rng = map(np.random.default_rng, np.random.SeedSequence(master_seed).spawn(2))
    u, z = u_rng.random((rows, 1 + 3 * length)), z_rng.standard_normal((rows, length))
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
