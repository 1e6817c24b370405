import numpy as np
import pytest

from mdpreg import (CollectionConfig, StartMode, TabularMdp, child_seed,
                    generate_dataset, write_dataset_csv)
from mdpreg.data import _trajectory_sampler


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
    return TabularMdp(t, r, np.full((n, n_actions), 0.1), gamma,
                      np.full(n, 1.0 / n), absorbing=set(absorbing))


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
    mdp = make_mdp()
    cfg = CollectionConfig(1, 30)
    sample = _trajectory_sampler(mdp, greedy_zero(mdp), cfg)
    t1 = sample(np.random.default_rng(7))
    t2 = sample(np.random.default_rng(7))
    assert t1 == t2


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
    for field in ("states", "actions", "rewards", "next_states"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.rewards, c.rewards)


def test_trajectories_are_independent_child_streams():
    # trajectory i can be regenerated alone from child_seed(master, i)
    mdp = make_mdp()
    cfg = CollectionConfig(6, 12)
    ds = generate_dataset(mdp, greedy_zero(mdp), cfg, 1234)
    solo = _trajectory_sampler(mdp, greedy_zero(mdp), cfg)(
        np.random.default_rng(child_seed(1234, 4)))
    for row, column in zip((ds.states, ds.actions, ds.rewards, ds.next_states), solo):
        assert np.array_equal(row[4], column)


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


def test_start_mode_validation():
    with pytest.raises(ValueError):
        StartMode("typo")
    with pytest.raises(ValueError):
        StartMode.subset([])
    with pytest.raises(ValueError):
        StartMode.fixed(5).distribution(3)


def test_collection_config_validation():
    with pytest.raises(ValueError):
        CollectionConfig(0, 10)
    with pytest.raises(ValueError):
        CollectionConfig(10, 0)
    with pytest.raises(ValueError):
        CollectionConfig(10, 10, p_optimal=1.5)


def test_dataset_csv_dump(tmp_path):
    mdp = make_mdp()
    cfg = CollectionConfig(2, 3)
    datasets = [generate_dataset(mdp, greedy_zero(mdp), cfg, s) for s in (0, 1)]
    path = tmp_path / "steps.csv"
    write_dataset_csv(path, datasets)
    lines = path.read_text().splitlines()
    assert lines[0] == "replication,trajectory,step,state,action,reward,next_state"
    assert len(lines) == 1 + 2 * 2 * 3
    rep, traj, step, state, action, reward, nxt = lines[1].split(",")
    first = datasets[0]
    assert (int(rep), int(traj), int(step)) == (0, 0, 0)
    assert (int(state), int(action), int(nxt)) == (first.states[0, 0], first.actions[0, 0],
                                                   first.next_states[0, 0])
    assert float(reward) == first.rewards[0, 0]
