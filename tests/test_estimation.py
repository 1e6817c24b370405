import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpreg import CollectionConfig, Dataset, count, generate_dataset, mle_model
from tests.test_data import greedy_zero, make_mdp

EMPTY = Dataset(*(np.empty((0, 0), dtype) for dtype in (np.int64, np.int64, float, np.int64)))


def dataset_of(*steps):
    """One trajectory of (state, action, reward, next_state) steps."""
    return Dataset(*(np.array([column]) for column in zip(*steps)))


def test_empty_dataset_counts_to_zero():
    counts = count(EMPTY, 3, 2)
    assert counts.c.sum() == 0
    assert counts.visit_count.sum() == 0
    assert counts.reward_sum.sum() == 0.0


def test_single_step_increments_single_cell():
    counts = count(dataset_of((0, 1, 0.5, 2)), 3, 2)
    assert counts.c[0, 1, 2] == 1
    assert counts.visit_count[0, 1] == 1
    assert counts.reward_sum[0, 1] == 0.5
    assert counts.c.sum() == 1


def test_total_count_equals_dataset_steps():
    mdp = make_mdp()
    ds = generate_dataset(mdp, greedy_zero(mdp), CollectionConfig(15, 10), 7)
    counts = count(ds, mdp.n_states, mdp.n_actions)
    assert counts.c.sum() == 150
    np.testing.assert_array_equal(counts.visit_count, counts.c.sum(axis=2))


def test_out_of_range_step_is_named():
    with pytest.raises(ValueError, match="trajectory 0 step 1"):
        count(dataset_of((0, 0, 0.0, 1), (1, 0, 0.0, 5)), 3, 2)


@pytest.mark.parametrize("bad_step", [False, True])
def test_a_stack_of_datasets_is_refused(bad_step):
    # two datasets drawn in one pass would otherwise count as one pooled
    # dataset, and a bad step in them could not be named
    mdp = make_mdp()
    stack = generate_dataset(mdp, greedy_zero(mdp), CollectionConfig(3, 4), [1, 2])
    if bad_step:
        next_states = stack.next_states.copy()
        next_states[1, 0, 2] = mdp.n_states
        stack = Dataset(stack.states, stack.actions, stack.rewards, next_states)
    with pytest.raises(ValueError, match=r"one dataset, got arrays of shape \(2, 3, 4\)"):
        count(stack, mdp.n_states, mdp.n_actions)


def test_mle_rows_are_empirical_frequencies():
    ds = dataset_of((0, 0, -1.0, 0), (0, 0, -1.0, 0), (0, 0, -1.0, 0), (0, 0, -1.0, 1))
    model = mle_model(count(ds, 2, 1))
    np.testing.assert_allclose(model.t_hat[0, 0], [0.75, 0.25])
    assert model.r_hat[0, 0] == -1.0  # mean of constant rewards


def test_unvisited_pairs_get_uniform_rows_and_half_reward():
    model = mle_model(count(EMPTY, 10, 2))
    np.testing.assert_array_equal(model.t_hat, np.full((2, 10, 10), 0.1))
    np.testing.assert_array_equal(model.r_hat, np.full((10, 2), 0.50))


def test_mle_output_is_row_stochastic():
    mdp = make_mdp(n=4, n_actions=3)
    ds = generate_dataset(mdp, greedy_zero(mdp), CollectionConfig(5, 8), 3)
    model = mle_model(count(ds, 4, 3))
    sums = model.t_hat.sum(axis=2)
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)
    assert np.all(model.t_hat >= 0)


def test_estimates_converge_to_true_rows():
    # law of large numbers: 10^5 uniform-policy steps on a 3-state MDP
    mdp = make_mdp(n=3, n_actions=2, seed=21)
    cfg = CollectionConfig(100, 1000, p_optimal=0.0)
    ds = generate_dataset(mdp, greedy_zero(mdp), cfg, 31)
    model = mle_model(count(ds, 3, 2))
    assert np.abs(model.t_hat - mdp.transition).max() < 0.02


def test_visited_absorbing_pairs_estimate_zero_reward():
    mdp = make_mdp(n=3, absorbing=(2,))
    cfg = CollectionConfig(20, 10, p_optimal=0.0)
    ds = generate_dataset(mdp, greedy_zero(mdp), cfg, 11)
    counts = count(ds, 3, 2)
    model = mle_model(counts)
    visited = counts.visit_count[2] > 0
    assert visited.any()
    np.testing.assert_array_equal(model.r_hat[2][visited], 0.0)


def reference_count(dataset, n_states, n_actions):
    """The per-step loop ``count`` replaced, kept as the oracle for its bincounts."""
    c = np.zeros((n_states, n_actions, n_states), dtype=np.int64)
    reward_sum = np.zeros((n_states, n_actions))
    columns = (dataset.states.tolist(), dataset.actions.tolist(),
               dataset.rewards.tolist(), dataset.next_states.tolist())
    for ti, traj in enumerate(zip(*columns)):
        for si, (s, a, r, s_next) in enumerate(zip(*traj)):
            if not (0 <= s < n_states and 0 <= a < n_actions and 0 <= s_next < n_states):
                raise ValueError(f"trajectory {ti} step {si}: indices {(s, a, s_next)} out of"
                                 f" range for {n_states} states x {n_actions} actions")
            c[s, a, s_next] += 1
            reward_sum[s, a] += r
    return c, reward_sum


def random_dataset(seed, n, n_actions, n_traj, length, p_bad):
    """Random steps; rewards span magnitudes so summation order shows in the bits,
    and each index is out of range with probability ``p_bad``."""
    rng = np.random.default_rng(seed)
    shape = (n_traj, length)

    def index(high):
        return np.where(rng.random(shape) < p_bad, rng.choice([-1, high], shape),
                        rng.integers(0, high, shape))

    rewards = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, shape)
    return Dataset(index(n), index(n_actions), rewards, index(n))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), n_actions=st.integers(1, 4),
       n_traj=st.integers(0, 6), length=st.integers(0, 12),
       p_bad=st.sampled_from([0.0, 0.0, 0.02]))
def test_count_and_mle_match_the_per_step_reference(seed, n, n_actions, n_traj, length,
                                                    p_bad):
    ds = random_dataset(seed, n, n_actions, n_traj, length, p_bad)
    try:
        c, reward_sum = reference_count(ds, n, n_actions)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            count(ds, n, n_actions)
        assert str(raised.value) == str(exc)
        return
    counts = count(ds, n, n_actions)
    np.testing.assert_array_equal(counts.c, c)
    np.testing.assert_array_equal(counts.reward_sum, reward_sum)  # bit for bit
    np.testing.assert_array_equal(counts.visit_count, c.sum(axis=2))

    model = mle_model(counts)
    visits = c.sum(axis=2)
    for s in range(n):
        for a in range(n_actions):
            if visits[s, a]:
                np.testing.assert_array_equal(model.t_hat[a, s], c[s, a] / visits[s, a])
                assert model.r_hat[s, a] == reward_sum[s, a] / visits[s, a]
            else:
                np.testing.assert_array_equal(model.t_hat[a, s], np.full(n, 1.0 / n))
                assert model.r_hat[s, a] == 0.50
    np.testing.assert_allclose(model.t_hat.sum(axis=2), 1.0, rtol=0, atol=1e-12)
    assert np.all(model.t_hat >= 0)
