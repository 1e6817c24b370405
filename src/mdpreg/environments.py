"""The three benchmark MDPs plus JSON load/save for arbitrary tabular MDPs,
and the JSON reading the experiment-config loader shares.

Rewards in all builders follow the on-arrival convention: the mean reward
at (s, a) is the expectation over next states of the reward paid for
landing there. For state-only reward landscapes this convention yields the
same optimal policies as paying the reward at the occupied state.

Movement noise is a slip: with probability ``slip_prob`` the executed move
is drawn uniformly at random over all moves (including the intended one).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .mdp import DEFAULT_GAMMA, MdpSpecError, TabularMdp, is_integer, is_real

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


@dataclass(frozen=True)
class GridNoiseConfig:
    """Slip noise and reward noise shared by the grid builders."""

    slip_prob: float = 0.1
    reward_std: float = 0.25

    def __post_init__(self):
        if not (is_real(self.slip_prob) and 0.0 <= self.slip_prob < 1.0):
            raise ValueError(f"slip_prob must be a real number in [0, 1), got {self.slip_prob!r}")
        if not (is_real(self.reward_std) and self.reward_std >= 0.0):
            raise ValueError(f"reward_std must be a real number >= 0, got {self.reward_std!r}")


# Stand-in for the dense 10-state example whose exact arrow diagram is not
# machine-readable; generated once (seeded) and frozen here so results are
# reproducible. GRID_OUT_NEIGHBORS[s][a] lists the states reachable from s
# under a; each transition row is uniform over that set.
GRID_OUT_NEIGHBORS = (
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
)
GRID_REWARD_MEANS = (0.85, 0.94, 0.9, 0.57, 0.15, 0.19, 0.93, 0.55, 0.18, 0.88)
GRID_REWARD_STD = 0.25


def _slip_grid(noise: GridNoiseConfig, n: int, n_actions: int, move, absorbing: set[int],
               name: str) -> TabularMdp:
    """The MDP in which action ``a`` executes move ``d`` with probability
    ``slip_prob / n_actions``, plus ``1 - slip_prob`` when ``d == a``;
    ``move(s, d)`` gives the destination and arrival reward of move ``d``
    from ``s``. Absorbing states self-loop with zero reward and noise."""
    weights = np.full((n_actions, n_actions), noise.slip_prob / n_actions)  # [a, d]
    weights[np.diag_indices(n_actions)] += 1.0 - noise.slip_prob
    t = np.zeros((n_actions, n, n))
    r_mean = np.zeros((n, n_actions))
    r_std = np.full((n, n_actions), noise.reward_std)
    for s in range(n):
        if s in absorbing:
            t[:, s, s] = 1.0
            r_std[s] = 0.0
            continue
        for d in range(n_actions):
            dest, reward = move(s, d)
            t[:, s, dest] += weights[:, d]
            r_mean[s] += weights[:, d] * reward
    return TabularMdp(t, r_mean, r_std, DEFAULT_GAMMA, absorbing=absorbing, name=name)


def _cliff_move(state: int, direction: int) -> tuple[int, float]:
    """Clamped grid move (off-grid moves keep the agent in place); entering a
    cliff cell teleports to the start."""
    row, col = divmod(state, CLIFF_WIDTH)
    d_row, d_col = ((0, -1), (0, 1), (-1, 0), (1, 0))[direction]
    dest = (min(max(row + d_row, 0), CLIFF_HEIGHT - 1) * CLIFF_WIDTH
            + min(max(col + d_col, 0), CLIFF_WIDTH - 1))
    return (CLIFF_START, CLIFF_REWARD) if dest in CLIFF_CELLS else (dest, STEP_REWARD)


def build_cliff_walk(noise: GridNoiseConfig = GridNoiseConfig()) -> TabularMdp:
    """4x12 cliff-walking grid: catastrophic -100 cells along the bottom row.

    Actions are left/right/up/down. Any move whose destination is a cliff
    cell pays mean reward -100 and teleports to the start; every other move
    pays mean -1. The goal at bottom-right is absorbing and pays nothing.
    """
    return _slip_grid(noise, CLIFF_N_STATES, 4, _cliff_move, {CLIFF_GOAL}, "cliff_walk")


def cliff_near_goal_states() -> tuple[int, ...]:
    """States within Manhattan distance 2 of the goal, minus cliff cells."""
    goal_row, goal_col = divmod(CLIFF_GOAL, CLIFF_WIDTH)
    states = []
    for s in range(CLIFF_N_STATES):
        if s in CLIFF_CELLS:
            continue
        row, col = divmod(s, CLIFF_WIDTH)
        if abs(row - goal_row) + abs(col - goal_col) <= 2:
            states.append(s)
    return tuple(states)


def build_two_goals(noise: GridNoiseConfig = GridNoiseConfig()) -> TabularMdp:
    """12-state line with a small reward (0.10) at one end, a large (1) at the other.

    Actions are left/right/up; "up" keeps the agent in place. Both goal
    states are absorbing. All rewards are paid on arrival.
    """
    n = TWO_GOALS_N_STATES
    arrival = np.zeros(n)
    arrival[0] = TWO_GOALS_SMALL
    arrival[n - 1] = TWO_GOALS_LARGE

    def move(state: int, direction: int) -> tuple[int, float]:
        dest = min(max(state + (-1, 1, 0)[direction], 0), n - 1)
        return dest, arrival[dest]

    return _slip_grid(noise, n, 3, move, {0, n - 1}, "two_goals")


def build_interconnected_grid() -> TabularMdp:
    """Densely connected MDP: each row is uniform over its out-neighbor set."""
    n, n_actions = len(GRID_REWARD_MEANS), len(GRID_OUT_NEIGHBORS[0])
    arrival = np.asarray(GRID_REWARD_MEANS)
    t = np.zeros((n_actions, n, n))
    r_mean = np.zeros((n, n_actions))
    for s, per_action in enumerate(GRID_OUT_NEIGHBORS):
        for a, dests in enumerate(per_action):
            p = 1.0 / len(dests)
            for dest in dests:
                t[a, s, dest] += p
                r_mean[s, a] += p * arrival[dest]
    r_std = np.full((n, n_actions), GRID_REWARD_STD)
    return TabularMdp(t, r_mean, r_std, DEFAULT_GAMMA, name="interconnected_grid")


_SPEC_FIELDS = ("name", "n_states", "n_actions", "transition", "reward_mean",
                "reward_std", "gamma", "absorbing")


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
        "absorbing": sorted(mdp.absorbing),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_json_object(path, error) -> dict:
    """The JSON object in the UTF-8 file ``path``; other content raises
    ``error([message])``. OSError (a missing file) propagates."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise error([f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"]) from None
    except json.JSONDecodeError as exc:
        raise error([f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})"]) from None
    if not isinstance(doc, dict):
        raise error([f"{path}: top level must be a JSON object"])
    return doc


def _is_json_number(value) -> bool:
    """A JSON int or float that converts to a finite float."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _is_number_table(value) -> bool:
    """A JSON int or float, NaN and infinities included (TabularMdp locates
    them), or a list of such tables (a bool or a string is no number)."""
    return type(value) in (int, float) or (type(value) is list
                                           and all(map(_is_number_table, value)))


def load_mdp_spec(path) -> TabularMdp:
    """Load a JSON MDP spec; round-trips save_mdp_spec exactly. Keys that are
    no spec field are ignored.

    Checks only what JSON adds: missing fields, JSON types, and table shapes
    against the declared sizes; raises MdpSpecError listing every such
    problem, or else the one TabularMdp raises for the MDP's invariants.
    """
    doc = read_json_object(path, MdpSpecError)
    missing = [f for f in _SPEC_FIELDS if f not in doc]
    if missing:
        raise MdpSpecError(f"{path}: missing field(s): {', '.join(missing)}")

    n, n_actions, gamma, absorbing = (doc[f] for f in ("n_states", "n_actions", "gamma",
                                                        "absorbing"))
    problems = [f"{path}: field '{f}' must be a positive integer, got {doc[f]!r}"
                for f in ("n_states", "n_actions") if not is_integer(doc[f]) or doc[f] < 1]
    sized = not problems  # table shapes are checked only against valid sizes
    if type(doc["name"]) is not str:
        problems.append(f"{path}: field 'name' must be a string, got {doc['name']!r}")
    if not _is_json_number(gamma):
        problems.append(f"{path}: field 'gamma' must be a finite number, got {gamma!r}")
    if type(absorbing) is not list or not all(map(is_integer, absorbing)):
        problems.append(f"{path}: field 'absorbing' must be a list of integer states,"
                        f" got {absorbing!r}")
    tables = {}
    for field, shape in (("transition", (n_actions, n, n)), ("reward_mean", (n, n_actions)),
                         ("reward_std", (n, n_actions))):
        try:  # a ragged list or an int too large for a float fails the conversion
            arr = np.asarray(doc[field], dtype=float) if _is_number_table(doc[field]) else None
        except (ValueError, OverflowError):
            arr = None
        if arr is None:
            problems.append(f"{path}: field '{field}' must be nested lists of JSON numbers"
                            f" (no strings, booleans or ragged rows)")
        elif sized and arr.shape != shape:
            problems.append(f"{path}: field '{field}' must have shape {shape}, got {arr.shape}")
        tables[field] = arr
    if problems:
        raise MdpSpecError(problems)
    return TabularMdp(tables["transition"], tables["reward_mean"], tables["reward_std"],
                      gamma, absorbing=set(absorbing), name=doc["name"])
