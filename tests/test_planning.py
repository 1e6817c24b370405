import itertools
import re

import numpy as np
import pytest

from mdpreg import (GridNoiseConfig, PlanningProblem, build_two_goals, greedy_from_q,
                    policy_evaluation, policy_iteration, q_from_values, q_gaps, regularize)
from mdpreg.estimation import EstimatedModel
from mdpreg.mdp import TIE_TOL
from mdpreg.properties import _policies_agree_tie_free, eps_greedy_evaluation, random_mdp


def brute_force_values(problem):
    """Entrywise max value over every deterministic policy (the oracle)."""
    best = np.full(problem.n_states, -np.inf)
    for assignment in itertools.product(range(problem.n_actions),
                                        repeat=problem.n_states):
        v = policy_evaluation(problem, np.array(assignment))
        best = np.maximum(best, v)
    return best


class TestPolicyEvaluation:
    def test_self_loop_geometric_series(self):
        problem = PlanningProblem(np.ones((1, 1, 1)), np.array([[1.0]]), 0.9)
        v = policy_evaluation(problem, np.zeros(1, dtype=int))
        assert v[0] == pytest.approx(10.0, abs=1e-12)

    def test_substochastic_row_shrinks_fixed_point(self):
        # discount-blend row summing to 0.5 at gamma 0.9: V = 1 / (1 - 0.45)
        problem = PlanningProblem(np.full((1, 1, 1), 0.5), np.array([[1.0]]), 0.9)
        v = policy_evaluation(problem, np.zeros(1, dtype=int))
        assert v[0] == pytest.approx(1.0 / 0.55, abs=1e-12)

    def test_zero_rewards_give_zero_values(self):
        rng = np.random.default_rng(0)
        t = rng.dirichlet(np.ones(4), size=(2, 4))
        problem = PlanningProblem(t, np.zeros((4, 2)), 0.95)
        np.testing.assert_array_equal(policy_evaluation(problem, np.zeros(4, dtype=int)),
                                      0.0)

    def test_residual_below_1e9(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mdp = random_mdp(rng, int(rng.integers(2, 9)), int(rng.integers(2, 4)))
            problem = PlanningProblem.from_mdp(mdp)
            pi = rng.integers(0, problem.n_actions, problem.n_states)
            v = policy_evaluation(problem, pi)
            idx = np.arange(problem.n_states)
            r_pi = problem.r[idx, pi]
            t_pi = problem.t[pi, idx, :]
            residual = np.abs(v - (r_pi + problem.gamma * t_pi @ v)).max()
            assert residual < 1e-9


class TestGreedy:
    def test_clear_argmax(self):
        assert greedy_from_q(np.array([[1.0, 3.0]]))[0] == 1

    def test_exact_tie_breaks_low(self):
        assert greedy_from_q(np.array([[2.0, 2.0]]))[0] == 0

    def test_tolerance_absorbs_noise(self):
        assert greedy_from_q(np.array([[2.0, 2.0 + 1e-12]]))[0] == 0


class TestPolicyIteration:
    def test_matches_enumeration_on_small_problems(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            mdp = random_mdp(rng, int(rng.integers(2, 4)), 2)
            problem = PlanningProblem.from_mdp(mdp)
            pi, _ = policy_iteration(problem)
            v_pi = policy_evaluation(problem, pi)
            np.testing.assert_allclose(v_pi, brute_force_values(problem), atol=1e-9)

    def test_identical_actions_return_action_zero(self):
        t = np.repeat(np.array([[[0.5, 0.5], [0.2, 0.8]]]), 2, axis=0)
        r = np.ones((2, 2))
        pi, _ = policy_iteration(PlanningProblem(t, r, 0.9))
        np.testing.assert_array_equal(pi, 0)

    def test_two_goals_picks_large_reward_next_door(self):
        mdp = build_two_goals(GridNoiseConfig(0.0, 0.25))
        pi, _ = policy_iteration(PlanningProblem.from_mdp(mdp))
        assert pi[10] == 1  # right

    def test_value_improves_monotonically(self):
        rng = np.random.default_rng(5)
        mdp = random_mdp(rng, 6, 3)
        problem = PlanningProblem.from_mdp(mdp)
        idx = np.arange(6)
        pi = np.zeros(6, dtype=int)
        prev_v = policy_evaluation(problem, pi)
        for _ in range(50):
            q = q_from_values(problem, prev_v)
            improved = np.where(q[idx, pi] >= q.max(axis=1), pi, q.argmax(axis=1))
            if np.array_equal(improved, pi):
                break
            pi = improved
            v = policy_evaluation(problem, pi)
            assert np.all(v >= prev_v - 1e-10)
            prev_v = v

    def test_warm_start_changes_nothing(self):
        rng = np.random.default_rng(8)
        mdp = random_mdp(rng, 5, 3)
        problem = PlanningProblem.from_mdp(mdp)
        cold, _ = policy_iteration(problem)
        warm, _ = policy_iteration(problem, initial_policy=rng.integers(0, 3, 5))
        np.testing.assert_array_equal(cold, warm)

    @pytest.mark.parametrize("initial_policy, problem", [
        (np.full(5, 1.7), r"integer actions in \[0, 3\), got float64 values \[1.7\]"),
        (np.ones(5, dtype=bool), r"got bool values \[ True\]"),
        (np.full(5, -1, dtype=np.int64), r"got int64 values \[-1\]"),
        (np.full(5, 3, dtype=np.int64), r"got int64 values \[3\]"),
        (np.zeros((2, 5), dtype=int), r"broadcast .*\(2, ?5\)"),
    ])
    def test_initial_policy_is_checked_not_coerced(self, initial_policy, problem):
        # once, at entry: 1.7 would truncate to action 1 and -1 wrap to action 2;
        # policy_evaluation checks the same, and evaluates (2, 5) as two policies
        planning_problem = PlanningProblem.from_mdp(random_mdp(np.random.default_rng(8), 5, 3))
        with pytest.raises(ValueError, match=problem):
            policy_iteration(planning_problem, initial_policy=initial_policy)
        if initial_policy.shape == (5,):
            with pytest.raises(ValueError, match=problem):
                policy_evaluation(planning_problem, initial_policy)


class TestBatchedEvaluation:
    def test_one_problem_under_many_policies(self):
        rng = np.random.default_rng(11)
        problem = PlanningProblem.from_mdp(random_mdp(rng, 5, 3))
        policies = rng.integers(0, 3, (2, 4, 5))
        values = policy_evaluation(problem, policies)
        assert values.shape == (2, 4, 5)
        for i, j in itertools.product(range(2), range(4)):
            np.testing.assert_array_equal(values[i, j], policy_evaluation(problem, policies[i, j]))

    def test_stack_under_shared_and_own_policies(self):
        # each stacked problem has its own rewards, read by its own policy
        rng = np.random.default_rng(12)
        mdps = [random_mdp(rng, 4, 2) for _ in range(3)]
        stack = PlanningProblem(np.stack([m.transition for m in mdps]),
                                np.stack([m.reward_mean for m in mdps]), 0.9)
        # the same matrices behind a reversed batch-axis view, which is not contiguous
        reversed_t = np.stack([m.transition for m in reversed(mdps)])[::-1]
        assert not reversed_t.flags.c_contiguous
        strided = PlanningProblem(reversed_t, stack.r, 0.9)
        assert strided.t.flags.c_contiguous  # so the flat view of the stack copies nothing
        own = rng.integers(0, 2, (3, 4))
        calls = [(stack, own, None), (stack, own[0], None), (strided, own, None),
                 (stack, own, np.arange(3))]  # the last by flat problem index
        for problem, policy, problems in calls:
            values = policy_evaluation(problem, policy, problems)
            for i, m in enumerate(mdps):
                single = PlanningProblem(m.transition, m.reward_mean, 0.9)
                np.testing.assert_array_equal(
                    values[i], policy_evaluation(single, np.broadcast_to(policy, (3, 4))[i]))


class TestPlanningProblemValidation:
    def test_gamma_must_be_below_one(self):
        with pytest.raises(ValueError, match="gamma"):
            PlanningProblem(np.ones((1, 1, 1)), np.zeros((1, 1)), 1.0)

    def test_rows_must_not_exceed_one(self):
        with pytest.raises(ValueError, match="at most 1"):
            PlanningProblem(np.full((1, 2, 2), 0.6), np.zeros((2, 1)), 0.9)

    def test_entries_must_be_nonnegative(self):
        t = np.array([[[1.5, -0.5], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="nonnegative"):
            PlanningProblem(t, np.zeros((2, 1)), 0.9)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_transitions_must_be_finite(self, value):
        # NaN fails every comparison, so a check written as "any bad" lets it through
        t = np.array([[[0.5, 0.5], [0.0, 1.0]]])
        t[0, 0, 1] = value
        with pytest.raises(ValueError, match="nonnegative|at most 1"):
            PlanningProblem(t, np.zeros((2, 1)), 0.9)

    def test_rewards_must_be_finite(self):
        with pytest.raises(ValueError, match="rewards must be finite"):
            PlanningProblem(np.ones((1, 1, 1)), np.array([[np.nan]]), 0.9)

    @pytest.mark.parametrize("t", [np.full((2, 3, 4), 0.25), np.full((3, 3), 0.25)],
                             ids=["not-square", "2-d"])
    def test_transitions_must_be_actions_by_square_matrices(self, t):
        # neither may build: policy iteration would then fail deep inside numpy
        with pytest.raises(ValueError, match=re.escape(f"(..., A, N, N), got shape {t.shape}")):
            PlanningProblem(t, np.zeros((4, 2)), 0.9)

    @pytest.mark.parametrize("n, n_actions", [(0, 2), (3, 0)], ids=["no-states", "no-actions"])
    def test_a_problem_needs_a_state_and_an_action(self, n, n_actions):
        # a stack of such problems too; an empty stack of real ones stays valid
        for batch in ((), (2,)):
            with pytest.raises(ValueError, match=re.escape(
                    f"at least one state and one action, got {n} state(s) and"
                    f" {n_actions} action(s)")):
                PlanningProblem(np.zeros(batch + (n_actions, n, n)), np.zeros((n, n_actions)), 0.9)

    def test_evaluated_policy_must_have_one_action_per_state(self):
        problem = PlanningProblem.from_mdp(random_mdp(np.random.default_rng(8), 5, 3))
        for policy in (np.zeros(4, dtype=int), np.zeros((2, 6), dtype=int)):
            with pytest.raises(ValueError, match=re.escape(f"policy must be (..., 5) for 5"
                                                           f" states, got shape {policy.shape}")):
                policy_evaluation(problem, policy)

    def test_rewards_broadcast_to_one_table_per_problem(self):
        t = np.full((3, 1, 2, 2), 0.5)
        shared = np.array([[1.0], [2.0]])
        problem = PlanningProblem(t, shared, 0.9)
        assert problem.r.shape == (3, 2, 1) and (problem.r == shared).all()
        with pytest.raises(ValueError, match=r"broadcast.*\(2,2,1\).*\(3,2,1\)"):
            PlanningProblem(t, np.zeros((2, 2, 1)), 0.9)


def lowered_and_blended(mdp, eps):
    """(policy, Q) of (T, (1-eps)*gamma) and of ((1-eps)*T + eps*T_unif, gamma)."""
    lowered = PlanningProblem(mdp.transition, mdp.reward_mean, (1.0 - eps) * mdp.gamma)
    blended = PlanningProblem((1.0 - eps) * mdp.transition + eps / mdp.n_states,
                              mdp.reward_mean, mdp.gamma)
    return policy_iteration(lowered) + policy_iteration(blended)


class TestUniformBlendEquivalence:
    def test_zero_eps_is_trivial_agreement(self):
        rng = np.random.default_rng(2)
        pi_low, _, pi_blend, _ = lowered_and_blended(random_mdp(rng, 4, 2), 0.0)
        np.testing.assert_array_equal(pi_low, pi_blend)

    def test_random_instance_agrees(self):
        rng = np.random.default_rng(6)
        pi_low, q_low, pi_blend, q_blend = lowered_and_blended(random_mdp(rng, 5, 3), 0.3)
        assert _policies_agree_tie_free(pi_low, q_low, pi_blend, q_blend)
        assert ((q_gaps(q_low) > TIE_TOL) & (q_gaps(q_blend) > TIE_TOL)).any()

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    def test_agreement_across_random_family(self, eps):
        rng = np.random.default_rng(int(eps * 100))
        for _ in range(20):
            mdp = random_mdp(rng, int(rng.integers(2, 7)), int(rng.integers(2, 4)))
            assert _policies_agree_tie_free(*lowered_and_blended(mdp, eps))

    def test_q_gap_helper(self):
        q = np.array([[1.0, 3.0, 2.5], [0.0, 0.0, -1.0]])
        np.testing.assert_allclose(q_gaps(q), [0.5, 0.0])
        assert q_gaps(np.array([[1.0]]))[0] == np.inf
        # a stack's gaps are each problem's gaps, per state, not across states
        stack = np.random.default_rng(4).normal(size=(2, 5, 3))
        assert q_gaps(stack).shape == (2, 5)
        for i in range(2):
            np.testing.assert_array_equal(q_gaps(stack)[i], q_gaps(stack[i]))
        assert q_gaps(stack[..., :1]).shape == (2, 5)


class TestEpsGreedyPlanning:
    @pytest.mark.parametrize("eps", [0.25, 0.5])
    def test_blended_planning_maximizes_stochastic_execution(self, eps):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            mdp = random_mdp(rng, n, 2, state_rewards=True)
            est = EstimatedModel(mdp.transition.copy(), mdp.reward_mean.copy())
            reg = regularize(est, None, "eps_greedy", eps, mdp.gamma)
            pi_hat, _ = policy_iteration(PlanningProblem(reg.t_reg, reg.r_hat, reg.gamma))
            v_hat = eps_greedy_evaluation(mdp.transition, mdp.reward_mean, mdp.gamma,
                                          pi_hat, eps)
            best = np.full(n, -np.inf)
            for assignment in itertools.product(range(2), repeat=n):
                v = eps_greedy_evaluation(mdp.transition, mdp.reward_mean, mdp.gamma,
                                          np.array(assignment), eps)
                best = np.maximum(best, v)
            np.testing.assert_allclose(v_hat, best, atol=1e-9)
