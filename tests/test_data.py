from bisect import bisect_right
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpreg import (CollectionConfig, ConfigError, StartMode, TabularMdp, child_seed,
                    generate_dataset)

FIELDS = ("states", "actions", "rewards", "next_states")


def make_mdp(n=3, n_actions=2, gamma=0.9, seed=5, absorbing=()):
    rng = np.random.default_rng(seed)
    t = rng.dirichlet(np.ones(n), size=(n_actions, n))
    t = np.array(t)
    for s in absorbing:
        t[:, s, :] = 0.0
        t[:, s, s] = 1.0
    r = rng.uniform(-1, 1, (n, n_actions))
    for s in absorbing:
        r[s, :] = 0.0
    return TabularMdp(t, r, np.full((n, n_actions), 0.1), gamma, absorbing=set(absorbing))


def greedy_zero(mdp):
    return np.zeros(mdp.n_states, dtype=int)


def test_trajectory_has_configured_length_and_chains():
    mdp = make_mdp()
    cfg = CollectionConfig(n_trajectories=1, trajectory_length=50)
    ds = generate_dataset(mdp, greedy_zero(mdp), cfg, 0)
    assert ds.states.shape == ds.actions.shape == ds.rewards.shape == \
        ds.next_states.shape == (1, 50)
    np.testing.assert_array_equal(ds.next_states[:, :-1], ds.states[:, 1:])


def test_same_seed_reproduces_trajectory():
    # the same seed gives the same rows, and the first k rows of an n-row
    # dataset are the k-row dataset: a row never depends on how many follow
    mdp = make_mdp()
    full, again = (generate_dataset(mdp, greedy_zero(mdp), CollectionConfig(5, 30), 7)
                   for _ in range(2))
    head = generate_dataset(mdp, greedy_zero(mdp), CollectionConfig(2, 30), 7)
    for field in FIELDS:
        assert np.array_equal(getattr(full, field), getattr(again, field))
        assert np.array_equal(getattr(full, field)[:2], getattr(head, field))


def test_fully_optimal_behavior_records_only_optimal_actions():
    mdp = make_mdp()
    optimal = np.array([1, 0, 1])
    cfg = CollectionConfig(1, 200, p_optimal=1.0)
    ds = generate_dataset(mdp, optimal, cfg, 3)
    np.testing.assert_array_equal(ds.actions, optimal[ds.states])


def test_random_behavior_action_frequencies_are_uniform():
    # 10^4 uniform coin flips over 2 actions concentrate within 0.02
    mdp = make_mdp(n_actions=2)
    cfg = CollectionConfig(1, 10_000, p_optimal=0.0)
    ds = generate_dataset(mdp, greedy_zero(mdp), cfg, 11)
    assert abs(ds.actions.mean() - 0.5) < 0.02


def test_absorbing_states_self_loop_with_zero_reward():
    mdp = make_mdp(absorbing=(1,))
    cfg = CollectionConfig(1, 25, start_mode=StartMode.fixed(1))
    ds = generate_dataset(mdp, greedy_zero(mdp), cfg, 2)
    assert np.all(ds.states == 1) and np.all(ds.next_states == 1)
    assert np.all(ds.rewards == 0.0)


@pytest.mark.parametrize("n,length", [(15, 10), (25, 20)])
def test_dataset_step_totals_match_caption_sizes(n, length):
    mdp = make_mdp()
    cfg = CollectionConfig(n, length)
    ds = generate_dataset(mdp, greedy_zero(mdp), cfg, 99)
    assert ds.states.shape == (n, length)
    assert ds.n_steps == n * length


def test_dataset_is_pure_function_of_seed():
    mdp = make_mdp()
    cfg = CollectionConfig(10, 10)
    a, b, c = (generate_dataset(mdp, greedy_zero(mdp), cfg, seed) for seed in (42, 42, 43))
    for field in FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.rewards, c.rewards)


def test_dataset_arrays_are_read_only():
    mdp = make_mdp()
    ds = generate_dataset(mdp, greedy_zero(mdp), CollectionConfig(3, 4), 0)
    for field in FIELDS:
        arr = getattr(ds, field)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0


def test_fixed_start_mode():
    mdp = make_mdp()
    cfg = CollectionConfig(20, 5, start_mode=StartMode.fixed(2))
    ds = generate_dataset(mdp, greedy_zero(mdp), cfg, 0)
    assert np.all(ds.states[:, 0] == 2)


def test_set_start_mode_stays_within_set():
    mdp = make_mdp(n=5)
    cfg = CollectionConfig(50, 3, start_mode=StartMode.subset([1, 3]))
    ds = generate_dataset(mdp, greedy_zero(mdp), cfg, 0)
    starts = set(ds.states[:, 0].tolist())
    assert starts == {1, 3}


def test_uniform_start_mode_covers_all_states():
    mdp = make_mdp(n=4)
    cfg = CollectionConfig(200, 1)
    ds = generate_dataset(mdp, greedy_zero(mdp), cfg, 0)
    starts = set(ds.states[:, 0].tolist())
    assert starts == {0, 1, 2, 3}


@pytest.mark.parametrize("optimal, problem", [
    (np.full(3, -1), r"optimal must hold integer actions in \[0, 2\), got int64 values \[-1\]"),
    (np.full(3, 2), r"got int64 values \[2\]"),
    (np.full(3, 1.0), r"got float64 values \[1\.\]"),
    (np.ones(3, dtype=bool), r"got bool values \[ True\]"),
    (np.zeros((2, 3), dtype=int), r"one action per state, shape \(3,\), got shape \(2, 3\)"),
])
def test_behavior_policy_is_checked_not_coerced(optimal, problem):
    # -1 would record action -1 and draw next states from the last action's rows
    with pytest.raises(ValueError, match=problem):
        generate_dataset(make_mdp(), optimal, CollectionConfig(50, 10, 1.0), 7)


def test_start_mode_validation():
    with pytest.raises(ConfigError):
        StartMode("typo")
    with pytest.raises(ConfigError):
        StartMode.subset([])
    with pytest.raises(ValueError):
        StartMode.fixed(5).distribution(3)
    with pytest.raises(ConfigError, match="duplicates"):  # its distribution summed to 2/3
        StartMode.subset([0, 0, 1])
    assert StartMode.subset(np.array([2, 0])).states == (2, 0)  # numpy integers pass


@pytest.mark.parametrize("build, got", [
    (lambda: StartMode.fixed(1.5), "(1.5,)"),
    (lambda: StartMode("set", [True, 2]), "[True, 2]"),
    (lambda: StartMode("set", ["a"]), "['a']"),
    (lambda: StartMode("fixed", 3), "3"),
], ids=["float", "bool", "string", "not-a-list"])
def test_start_states_must_be_integers(build, got):
    with pytest.raises(ConfigError) as err:
        build()
    assert err.value.problems == [f"start states must be a tuple or list of integers, got {got}"]


def test_collection_config_validation():
    with pytest.raises(ConfigError):
        CollectionConfig(0, 10)
    with pytest.raises(ConfigError):
        CollectionConfig(10, 0)
    with pytest.raises(ConfigError):
        CollectionConfig(10, 10, p_optimal=1.5)


# --- the lockstep generator against per-trajectory scalar loops -------------

def _scalar_reference(mdp, optimal, cfg, master_seed):
    """One trajectory at a time, drawing its (u, z) rows one after another from
    the two spawned streams, with bisect_right on Python lists: the oracle for
    the lockstep loop and the row-major layout of its blocks."""
    n, n_actions = mdp.n_states, mdp.n_actions
    start_cdf = np.cumsum(cfg.start_mode.distribution(n)).tolist()
    cum_rows = np.cumsum(mdp.transition, axis=2).tolist()
    mean, std = mdp.reward_mean.tolist(), mdp.reward_std.tolist()
    u_rng, z_rng = map(np.random.default_rng, np.random.SeedSequence(master_seed).spawn(2))
    rows = []
    for _ in range(cfg.n_trajectories):
        # row i's blocks are the i-th consecutive draws of the two streams
        u = u_rng.random(1 + 3 * cfg.trajectory_length).tolist()
        z = z_rng.standard_normal(cfg.trajectory_length).tolist()
        steps = []
        state = min(bisect_right(start_cdf, u[0]), n - 1)
        for j in range(cfg.trajectory_length):
            coin, u_action, u_next = u[1 + 3 * j: 4 + 3 * j]
            if coin < cfg.p_optimal:
                action = int(optimal[state])
            else:
                action = min(int(u_action * n_actions), n_actions - 1)
            if state in mdp.absorbing:
                reward, next_state = 0.0, state
            else:
                next_state = min(bisect_right(cum_rows[action][state], u_next), n - 1)
                reward = mean[state][action] + std[state][action] * z[j]
            steps.append((state, action, reward, next_state))
            state = next_state
        rows.append(tuple(zip(*steps)))
    return [np.array(column) for column in zip(*rows)]


@st.composite
def collection_cases(draw):
    """A random MDP (sparse rows, some absorbing states), an optimal policy,
    and a collection config over all p_optimal branches and start modes. In
    some cases the MDP is a stand-in whose non-absorbing rows sum to 0.6, which
    TabularMdp would reject: a CDF then often ends at or below u, where the
    next state clamps to n - 1 as bisect_right's count does."""
    n = draw(st.integers(2, 6))
    n_actions = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t = rng.dirichlet(np.full(n, 0.5), size=(n_actions, n))
    t[rng.random(t.shape) < 0.3] = 0.0
    t[..., 0] += t.sum(axis=2) == 0  # a row emptied by the mask moves to state 0
    t /= t.sum(axis=2, keepdims=True)
    absorbing = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    for s in absorbing:
        t[:, s] = np.eye(n)[s]
    mean = rng.uniform(-1, 1, (n, n_actions))
    mean[list(absorbing)] = 0.0
    mdp = TabularMdp(t, mean, rng.uniform(0, 1, (n, n_actions)), 0.9, absorbing=absorbing)
    if draw(st.booleans()):
        mdp = SimpleNamespace(n_states=n, n_actions=n_actions, transition=0.6 * mdp.transition,
                              reward_mean=mdp.reward_mean, reward_std=mdp.reward_std,
                              absorbing=mdp.absorbing)
    states = st.integers(0, n - 1)
    start = draw(st.one_of(st.just(StartMode.uniform()), states.map(StartMode.fixed),
                           st.lists(states, min_size=1, unique=True).map(StartMode.subset)))
    cfg = CollectionConfig(draw(st.integers(1, 6)), draw(st.integers(1, 8)),
                           draw(st.sampled_from([0.0, 0.5, 1.0])), start)
    optimal = np.array(draw(st.lists(st.integers(0, n_actions - 1), min_size=n, max_size=n)))
    return mdp, optimal, cfg, draw(st.integers(0, 2 ** 64 - 1))


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# a block's seeds: any 64-bit seeds, repeats included
SEED_LISTS = st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(collection_cases(), SEED_LISTS)
def test_lockstep_generator_equals_the_scalar_loop(case, seeds):
    # one seed gives the 2-D dataset; a list of seeds, one lockstep pass, gives
    # seed i's dataset at index i of the leading axis
    mdp, optimal, cfg, master_seed = case
    ds = generate_dataset(mdp, optimal, cfg, master_seed)
    for field, expected in zip(FIELDS, _scalar_reference(mdp, optimal, cfg, master_seed)):
        assert same_bits(getattr(ds, field), expected), field
    block = generate_dataset(mdp, optimal, cfg, seeds)
    assert block.states.shape == (len(seeds), cfg.n_trajectories, cfg.trajectory_length)
    for i, seed in enumerate(seeds):
        for field, expected in zip(FIELDS, _scalar_reference(mdp, optimal, cfg, seed)):
            assert same_bits(getattr(block[i], field), expected), (i, field)


@settings(max_examples=100, deadline=None)
@given(collection_cases(), st.integers(1, 6), SEED_LISTS)
def test_first_rows_are_the_smaller_dataset(case, extra_rows, seeds):
    # a row depends only on (master_seed, row): the first n rows of an m-row
    # dataset (n < m) are the n-row dataset, rewards included, for one seed
    # and for each seed of a block
    mdp, optimal, cfg, master_seed = case
    bigger = replace(cfg, n_trajectories=cfg.n_trajectories + extra_rows)
    for seed in (master_seed, seeds):
        small = generate_dataset(mdp, optimal, cfg, seed)
        big = generate_dataset(mdp, optimal, bigger, seed)
        for field in FIELDS:
            assert same_bits(getattr(big, field)[..., :cfg.n_trajectories, :],
                             getattr(small, field)), field


def _previous_sampler(mdp, optimal, cfg):
    """The per-step sampler the lockstep generator replaced (its draws: a
    start, then per step a coin, an integer action, a next state and a normal)."""
    n, n_actions = mdp.n_states, mdp.n_actions
    start_cdf = np.cumsum(cfg.start_mode.distribution(n)).tolist()
    cum_rows = np.cumsum(mdp.transition, axis=2).tolist()
    optimal, mean, std = optimal.tolist(), mdp.reward_mean.tolist(), mdp.reward_std.tolist()

    def sample(rng):
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


def test_lockstep_generator_matches_the_previous_sampler_in_distribution():
    # 3000 trajectories x 10 steps from each generator on a 4-state MDP whose
    # state 3 is absorbing and entered with probability 0.05 per step. The
    # tolerances are at least 4.5 standard errors of the difference of the two
    # estimates: 0.04 on start and action frequencies (~1/4 and 1/2 of 3000
    # and ~27000 draws), 0.1 on next-state frequencies and 0.2 on the reward
    # mean (std 1) of each non-absorbing pair visited >= 1000 times by both.
    n, n_actions = 4, 2
    rng = np.random.default_rng(3)
    t = np.zeros((n_actions, n, n))
    t[:, :3, :3] = 0.95 * rng.dirichlet(np.ones(3), size=(n_actions, 3))
    t[:, :3, 3] = 0.05
    t[:, 3, 3] = 1.0
    mean = rng.uniform(-1, 1, (n, n_actions))
    mean[3] = 0.0
    mdp = TabularMdp(t, mean, np.ones((n, n_actions)), 0.9, absorbing={3})
    optimal = np.array([1, 0, 1, 0])
    cfg = CollectionConfig(3000, 10, p_optimal=0.5)
    new = generate_dataset(mdp, optimal, cfg, 2024)
    sample = _previous_sampler(mdp, optimal, cfg)
    old = [np.array(column) for column in zip(*(
        sample(np.random.default_rng(child_seed(2024, i))) for i in range(cfg.n_trajectories)))]
    old_states, old_actions, old_rewards, old_next = old

    def freq(values, size):
        return np.bincount(np.ravel(values), minlength=size) / np.size(values)

    assert np.abs(freq(new.states[:, 0], n) - freq(old_states[:, 0], n)).max() < 0.04
    assert np.abs(freq(new.actions, n_actions) - freq(old_actions, n_actions)).max() < 0.04
    compared = 0
    for s in range(3):
        for a in range(n_actions):
            new_at = (new.states == s) & (new.actions == a)
            old_at = (old_states == s) & (old_actions == a)
            if min(new_at.sum(), old_at.sum()) < 1000:
                continue
            compared += 1
            assert np.abs(freq(new.next_states[new_at], n)
                          - freq(old_next[old_at], n)).max() < 0.1
            assert abs(new.rewards[new_at].mean() - old_rewards[old_at].mean()) < 0.2
    assert compared == 5
