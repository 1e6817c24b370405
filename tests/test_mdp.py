from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpreg import (CollectionConfig, MdpSpecError, PlanningProblem, TabularMdp,
                    apply_reward_shift, generate_dataset, policy_evaluation, policy_iteration,
                    q_gaps)
from mdpreg.properties import random_mdp


def make_two_state(gamma=0.5):
    """Action 0 stays put, action 1 switches; staying in state 1 pays 1."""
    t = np.array([
        [[1.0, 0.0], [0.0, 1.0]],   # stay
        [[0.0, 1.0], [1.0, 0.0]],   # switch
    ])
    r = np.array([[0.0, 0.0], [1.0, 0.0]])
    return TabularMdp(t, r, np.zeros((2, 2)), gamma)


def problems_of(build) -> list[str]:
    """The problems of the MdpSpecError that ``build()`` raises."""
    with pytest.raises(MdpSpecError) as err:
        build()
    return err.value.problems


def test_well_formed_mdp_has_empty_report():
    mdp = make_two_state()
    assert replace(mdp, gamma=0.9).gamma == 0.9


def test_row_sum_violation_is_reported():
    t = np.array([[[0.6, 0.6], [0.5, 0.5]]])
    report = problems_of(lambda: TabularMdp(t, np.zeros((2, 1)), np.zeros((2, 1)), 0.9))
    assert len(report) == 1
    assert "row 0" in report[0] and "1.2" in report[0]


def test_gamma_out_of_range_is_reported():
    mdp = make_two_state(gamma=0.5)
    assert any("gamma out of range" in msg
               for msg in problems_of(lambda: replace(mdp, gamma=1.0)))


def test_negative_probability_is_reported():
    t = np.array([[[1.5, -0.5], [0.0, 1.0]]])
    report = problems_of(lambda: TabularMdp(t, np.zeros((2, 1)), np.zeros((2, 1)), 0.9))
    assert any("negative" in msg for msg in report)


def test_one_error_lists_every_violation():
    t = np.array([[[0.6, 0.6], [0.5, 0.5]]])
    assert problems_of(lambda: TabularMdp(t, np.zeros((2, 1)), -np.ones((2, 1)), 1.0)) == [
        "reward_std has negative entries", "transition action 0 row 0 sums to 1.2",
        "gamma out of range [0, 1): got 1"]


def test_absorbing_violations_are_reported():
    mdp = make_two_state()
    msgs = problems_of(lambda: replace(mdp, absorbing={0}))
    # action 1 switches away from state 0 and state 0 pays nothing, so only
    # the self-loop invariant trips
    assert any("absorbing state 0 is not a self-loop" in m for m in msgs)
    msgs = problems_of(lambda: replace(mdp, absorbing={1}))
    assert any("nonzero reward_mean" in m for m in msgs)


# in the order they apply: an absorbing state made a true one first, so that no
# later break is undone
BREAKS = ("absorbing-loop", "negative", "nan", "row-sum", "absorbing-range", "gamma")


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), n_actions=st.integers(1, 3),
       breaks=st.lists(st.sampled_from(BREAKS), max_size=3),
       size=st.sampled_from([1e-13, 1e-6, 0.3]))
def test_a_tabular_mdp_that_exists_can_be_planned(seed, n, n_actions, breaks, size):
    """A random valid MDP with some of its tables broken: it either fails to
    build, with a message per problem, or can be planned and sampled."""
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, n, n_actions)
    tables = {"transition": mdp.transition.copy(), "reward_mean": mdp.reward_mean.copy(),
              "reward_std": mdp.reward_std.copy()}
    gamma, absorbing = mdp.gamma, set()
    for kind in sorted(breaks, key=BREAKS.index):
        s = int(rng.integers(n))
        if kind in ("negative", "nan"):
            table = tables[rng.choice(list(tables))]
            table[tuple(rng.integers(table.shape))] = -size if kind == "negative" else np.nan
        elif kind == "row-sum":
            tables["transition"][rng.integers(n_actions), s, rng.integers(n)] += size
        elif kind == "absorbing-range":
            absorbing.add(int(rng.choice([-1, n])))
        elif kind == "absorbing-loop":  # a rewarded or moving state, or a true absorbing one
            if rng.random() < 0.5:
                tables["transition"][:, s] = np.eye(n)[s]
                tables["reward_mean"][s] = 0.0
            absorbing.add(s)
        else:
            gamma = 1.0
    try:
        mdp = TabularMdp(**tables, gamma=gamma, absorbing=absorbing)
    except MdpSpecError as exc:
        assert exc.problems and all(isinstance(p, str) and p for p in exc.problems)
        return
    assert not {"nan", "absorbing-range", "gamma"} & set(breaks)
    pi, _ = policy_iteration(PlanningProblem.from_mdp(mdp))
    data = generate_dataset(mdp, pi, CollectionConfig(3, 4), seed)
    assert np.isfinite(data.rewards).all() and (data.next_states < n).all()


def test_arrays_are_immutable():
    mdp = make_two_state()
    with pytest.raises(ValueError):
        mdp.transition[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        mdp.reward_mean[0, 0] = 1.0


def test_reward_shift_zero_is_identity():
    mdp = make_two_state()
    shifted = apply_reward_shift(mdp, 0.0)
    np.testing.assert_array_equal(shifted.reward_mean, mdp.reward_mean)


def test_reward_shift_raises_value_by_geometric_sum():
    # single absorbing-free self-loop: V = (R + x) / (1 - gamma), so the
    # shift contributes x / (1 - 0.5) = 2
    t = np.ones((1, 1, 1))
    mdp = TabularMdp(t, np.array([[1.0]]), np.zeros((1, 1)), 0.5)
    pi = np.zeros(1, dtype=int)
    v_before = policy_evaluation(PlanningProblem.from_mdp(mdp), pi)
    v_after = policy_evaluation(PlanningProblem.from_mdp(apply_reward_shift(mdp, 1.0)), pi)
    assert v_after[0] - v_before[0] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("x", [-5.0, 1.0, 100.0])
def test_reward_shift_keeps_optimal_policy(x):
    mdp = make_two_state()
    pi0, q0 = policy_iteration(PlanningProblem.from_mdp(mdp))
    pi_x, q_x = policy_iteration(PlanningProblem.from_mdp(apply_reward_shift(mdp, x)))
    assert np.all(q_gaps(q0) > 1e-6) and np.all(q_gaps(q_x) > 1e-6)
    np.testing.assert_array_equal(pi0, pi_x)


def test_reward_shift_skips_absorbing_states():
    t = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    mdp = TabularMdp(t, np.array([[1.0], [0.0]]), np.zeros((2, 1)), 0.9, absorbing={1})
    shifted = apply_reward_shift(mdp, 3.0)
    assert shifted.reward_mean[0, 0] == 4.0
    assert shifted.reward_mean[1, 0] == 0.0  # so replace built a valid MDP
