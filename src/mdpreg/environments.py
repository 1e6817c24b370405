"""The three benchmark MDPs plus JSON load/save for arbitrary tabular MDPs.

Rewards in all builders follow the on-arrival convention: the mean reward
at (s, a) is the expectation over next states of the reward paid for
landing there. For state-only reward landscapes this convention yields the
same optimal policies as paying the reward at the occupied state.

Movement noise is a slip: with probability ``slip_prob`` the executed move
is drawn uniformly at random over all moves (including the intended one).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .mdp import DEFAULT_GAMMA, TabularMdp, validate_mdp

CLIFF_WIDTH = 12
CLIFF_HEIGHT = 4
CLIFF_N_STATES = CLIFF_WIDTH * CLIFF_HEIGHT
CLIFF_START = (CLIFF_HEIGHT - 1) * CLIFF_WIDTH            # bottom-left, state 36
CLIFF_GOAL = CLIFF_HEIGHT * CLIFF_WIDTH - 1               # bottom-right, state 47
CLIFF_CELLS = frozenset(range(CLIFF_START + 1, CLIFF_GOAL))  # bottom row between S and G

CLIFF_REWARD = -100.0
STEP_REWARD = -1.0

TWO_GOALS_N_STATES = 12
TWO_GOALS_SMALL = 0.10   # arrival reward at state 0
TWO_GOALS_LARGE = 1.0    # arrival reward at state 11


class MdpSpecError(ValueError):
    """Raised when an MDP spec file cannot be parsed into a TabularMdp;
    ``problems`` holds one message per problem."""

    def __init__(self, problems: str | list[str]):
        self.problems = [problems] if isinstance(problems, str) else problems
        super().__init__("; ".join(self.problems))


class MdpValidationError(MdpSpecError):
    """Raised when a parsed MDP spec violates structural invariants."""


@dataclass(frozen=True)
class GridNoiseConfig:
    """Slip noise and reward noise shared by the grid builders."""

    slip_prob: float = 0.1
    reward_std: float = 0.25

    def __post_init__(self):
        if not 0.0 <= self.slip_prob < 1.0:
            raise ValueError(f"slip_prob must be in [0, 1), got {self.slip_prob}")
        if self.reward_std < 0.0:
            raise ValueError(f"reward_std must be nonnegative, got {self.reward_std}")


@dataclass(frozen=True)
class TopologyConfig:
    """Hand-specified dense topology: out-neighbor sets and state rewards.

    ``out_neighbors[s][a]`` lists the states reachable from s under action
    a; each transition row is uniform over that set.
    """

    out_neighbors: tuple[tuple[tuple[int, ...], ...], ...]
    reward_means: tuple[float, ...]
    reward_std: float = 0.25


# Stand-in for the dense 10-state example whose exact arrow diagram is not
# machine-readable; generated once (seeded) and frozen here so results are
# reproducible and the topology is swappable via TopologyConfig.
DEFAULT_GRID_TOPOLOGY = TopologyConfig(
    out_neighbors=(
        ((5, 6, 7), (2, 6, 7), (2, 7, 9)),
        ((1, 6, 7), (2, 3, 6), (2, 4, 8)),
        ((4, 5, 8), (6, 8, 9), (1, 3, 8)),
        ((0, 1, 4), (1, 4, 9), (6, 7, 8)),
        ((2, 3, 4), (0, 1, 8), (1, 7, 9)),
        ((0, 5, 8), (2, 4, 9), (4, 8, 9)),
        ((0, 4, 6), (4, 5, 6), (3, 5, 6)),
        ((0, 3, 5), (1, 3, 8), (3, 5, 9)),
        ((3, 4, 5), (1, 5, 8), (0, 2, 8)),
        ((0, 3, 9), (0, 6, 9), (0, 6, 9)),
    ),
    reward_means=(0.85, 0.94, 0.9, 0.57, 0.15, 0.19, 0.93, 0.55, 0.18, 0.88),
    reward_std=0.25,
)


def _cliff_destination(state: int, direction: int) -> int:
    """Clamped grid move; off-grid moves keep the agent in place."""
    row, col = divmod(state, CLIFF_WIDTH)
    if direction == 0:
        col = max(col - 1, 0)
    elif direction == 1:
        col = min(col + 1, CLIFF_WIDTH - 1)
    elif direction == 2:
        row = max(row - 1, 0)
    else:
        row = min(row + 1, CLIFF_HEIGHT - 1)
    return row * CLIFF_WIDTH + col


def build_cliff_walk(noise: GridNoiseConfig = GridNoiseConfig(),
                     gamma: float = DEFAULT_GAMMA) -> TabularMdp:
    """4x12 cliff-walking grid: catastrophic -100 cells along the bottom row.

    Actions are left/right/up/down. Any move whose destination is a cliff
    cell pays mean reward -100 and teleports to the start; every other move
    pays mean -1. The goal at bottom-right is absorbing and pays nothing.
    """
    n, n_actions = CLIFF_N_STATES, 4
    t = np.zeros((n_actions, n, n))
    r_mean = np.zeros((n, n_actions))
    r_std = np.full((n, n_actions), noise.reward_std)

    for a in range(n_actions):
        weights = np.full(n_actions, noise.slip_prob / n_actions)
        weights[a] += 1.0 - noise.slip_prob
        for s in range(n):
            if s == CLIFF_GOAL:
                t[a, s, s] = 1.0
                r_std[s, a] = 0.0
                continue
            for d in range(n_actions):
                dest = _cliff_destination(s, d)
                if dest in CLIFF_CELLS:
                    t[a, s, CLIFF_START] += weights[d]
                    r_mean[s, a] += weights[d] * CLIFF_REWARD
                else:
                    t[a, s, dest] += weights[d]
                    r_mean[s, a] += weights[d] * STEP_REWARD

    start = np.zeros(n)
    start[CLIFF_START] = 1.0
    return TabularMdp(t, r_mean, r_std, gamma, start, absorbing={CLIFF_GOAL},
                      name="cliff_walk")


def cliff_near_goal_states(radius: int = 2) -> tuple[int, ...]:
    """States within Manhattan distance ``radius`` of the goal, minus cliff cells."""
    goal_row, goal_col = divmod(CLIFF_GOAL, CLIFF_WIDTH)
    states = []
    for s in range(CLIFF_N_STATES):
        if s in CLIFF_CELLS:
            continue
        row, col = divmod(s, CLIFF_WIDTH)
        if abs(row - goal_row) + abs(col - goal_col) <= radius:
            states.append(s)
    return tuple(states)


def build_two_goals(noise: GridNoiseConfig = GridNoiseConfig(),
                    gamma: float = DEFAULT_GAMMA) -> TabularMdp:
    """12-state line with a small reward (0.10) at one end, a large (1) at the other.

    Actions are left/right/up; "up" keeps the agent in place. Both goal
    states are absorbing. All rewards are paid on arrival.
    """
    n, n_actions = TWO_GOALS_N_STATES, 3
    arrival = np.zeros(n)
    arrival[0] = TWO_GOALS_SMALL
    arrival[n - 1] = TWO_GOALS_LARGE
    absorbing = {0, n - 1}

    def destination(state: int, direction: int) -> int:
        if direction == 0:
            return max(state - 1, 0)
        if direction == 1:
            return min(state + 1, n - 1)
        return state

    t = np.zeros((n_actions, n, n))
    r_mean = np.zeros((n, n_actions))
    r_std = np.full((n, n_actions), noise.reward_std)
    for a in range(n_actions):
        weights = np.full(n_actions, noise.slip_prob / n_actions)
        weights[a] += 1.0 - noise.slip_prob
        for s in range(n):
            if s in absorbing:
                t[a, s, s] = 1.0
                r_std[s, a] = 0.0
                continue
            for d in range(n_actions):
                dest = destination(s, d)
                t[a, s, dest] += weights[d]
                r_mean[s, a] += weights[d] * arrival[dest]

    start = np.zeros(n)
    start[1:n - 1] = 1.0 / (n - 2)
    return TabularMdp(t, r_mean, r_std, gamma, start, absorbing=absorbing,
                      name="two_goals")


def build_interconnected_grid(topology: TopologyConfig = DEFAULT_GRID_TOPOLOGY,
                              gamma: float = DEFAULT_GAMMA) -> TabularMdp:
    """Densely connected MDP: each row is uniform over its out-neighbor set."""
    n = len(topology.reward_means)
    n_actions = len(topology.out_neighbors[0])
    if len(topology.out_neighbors) != n:
        raise ValueError(
            f"out_neighbors has {len(topology.out_neighbors)} states, expected {n}"
        )
    arrival = np.asarray(topology.reward_means, dtype=float)

    t = np.zeros((n_actions, n, n))
    r_mean = np.zeros((n, n_actions))
    for s, per_action in enumerate(topology.out_neighbors):
        if len(per_action) != n_actions:
            raise ValueError(f"state {s} defines {len(per_action)} actions, expected {n_actions}")
        for a, dests in enumerate(per_action):
            if len(dests) == 0:
                raise ValueError(f"state {s} action {a} has an empty out-neighbor set")
            p = 1.0 / len(dests)
            for dest in dests:
                t[a, s, dest] += p
                r_mean[s, a] += p * arrival[dest]

    r_std = np.full((n, n_actions), topology.reward_std)
    start = np.full(n, 1.0 / n)
    return TabularMdp(t, r_mean, r_std, gamma, start, name="interconnected_grid")


_SPEC_FIELDS = ("name", "n_states", "n_actions", "transition", "reward_mean",
                "reward_std", "gamma", "start_dist", "absorbing")


def save_mdp_spec(mdp: TabularMdp, path) -> None:
    """Write an MDP to a UTF-8 JSON spec file (schema documented in README)."""
    doc = {
        "name": mdp.name,
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "transition": mdp.transition.tolist(),
        "reward_mean": mdp.reward_mean.tolist(),
        "reward_std": mdp.reward_std.tolist(),
        "gamma": mdp.gamma,
        "start_dist": mdp.start_dist.tolist(),
        "absorbing": sorted(mdp.absorbing),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_mdp_spec(path) -> TabularMdp:
    """Load and validate a JSON MDP spec; round-trips save_mdp_spec exactly.

    Raises MdpSpecError naming the offending field on schema problems and
    MdpValidationError listing all violated invariants on semantic ones.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MdpSpecError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})")
    if not isinstance(doc, dict):
        raise MdpSpecError(f"{path}: top level must be a JSON object")
    missing = [f for f in _SPEC_FIELDS if f not in doc]
    if missing:
        raise MdpSpecError(f"{path}: missing field(s): {', '.join(missing)}")

    # `type(x) is int` keeps JSON booleans out; `not 0 <= x < 1` catches NaN
    n, n_actions, gamma, absorbing = (doc[f] for f in ("n_states", "n_actions", "gamma",
                                                        "absorbing"))
    problems = [f"{path}: field '{f}' must be a positive integer, got {doc[f]!r}"
                for f in ("n_states", "n_actions") if type(doc[f]) is not int or doc[f] < 1]
    if type(gamma) not in (int, float) or not 0 <= gamma < 1:
        problems.append(f"{path}: field 'gamma' must be a number in [0, 1), got {gamma!r}")
    if type(absorbing) is not list or any(type(s) is not int for s in absorbing):
        problems.append(f"{path}: field 'absorbing' must be a list of integer states,"
                        f" got {absorbing!r}")
    if problems:
        raise MdpSpecError(problems)
    try:
        transition = np.asarray(doc["transition"], dtype=float)
        reward_mean = np.asarray(doc["reward_mean"], dtype=float)
        reward_std = np.asarray(doc["reward_std"], dtype=float)
        start_dist = np.asarray(doc["start_dist"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise MdpSpecError(f"{path}: malformed numeric table ({exc})")
    if transition.shape != (n_actions, n, n):
        raise MdpSpecError(
            f"{path}: field 'transition' must have shape ({n_actions}, {n}, {n}),"
            f" got {transition.shape}"
        )
    for field, arr, shape in (("reward_mean", reward_mean, (n, n_actions)),
                              ("reward_std", reward_std, (n, n_actions)),
                              ("start_dist", start_dist, (n,))):
        if arr.shape != shape:
            raise MdpSpecError(f"{path}: field '{field}' must have shape {shape}, got {arr.shape}")

    mdp = TabularMdp(transition, reward_mean, reward_std, doc["gamma"], start_dist,
                     absorbing=set(doc["absorbing"]), name=str(doc["name"]))
    violations = validate_mdp(mdp)
    if violations:
        raise MdpValidationError(violations)
    return mdp
