import numpy as np
import pytest

from mdpreg import (PlanningProblem, RegularizedModel, mle_model, policy_evaluation,
                    policy_iteration, regularize, transition_mse)
from mdpreg.estimation import EstimatedModel
from mdpreg.properties import random_mdp, random_uniform_visit_counts
from tests.test_mdp import make_two_state


def plain_model(t, method="eps_greedy"):
    n = t.shape[1]
    return RegularizedModel(t, np.zeros((n, t.shape[0])), method, 0.95)


class TestPolicyLoss:
    """The policy loss, start weights @ (v_opt - v_reg), from values evaluated
    in the true MDP (the harness computes it this way)."""

    def test_identical_policies_lose_nothing(self):
        problem = PlanningProblem.from_mdp(make_two_state())
        pi = np.array([1, 0])
        v = policy_evaluation(problem, pi)
        assert np.array([0.5, 0.5]) @ (v - policy_evaluation(problem, pi.copy())) == 0.0

    def test_hand_computed_value_gap(self):
        # optimal: switch at 0, stay at 1 -> V = (1, 2); staying at 0 earns 0,
        # so a point mass at state 0 loses exactly 1
        problem = PlanningProblem.from_mdp(make_two_state(gamma=0.5))
        v_opt = policy_evaluation(problem, np.array([1, 0]))
        v_reg = policy_evaluation(problem, np.array([0, 0]))
        np.testing.assert_allclose(v_opt, [1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(v_reg, [0.0, 2.0], atol=1e-12)
        assert np.array([1.0, 0.0]) @ (v_opt - v_reg) == pytest.approx(1.0, abs=1e-12)

    def test_loss_nonnegative_against_true_optimum(self):
        # the optimal values dominate every policy's values state by state
        rng = np.random.default_rng(23)
        for _ in range(20):
            mdp = random_mdp(rng, 5, 3)
            problem = PlanningProblem.from_mdp(mdp)
            v_opt = policy_evaluation(problem, policy_iteration(problem)[0])
            v_reg = policy_evaluation(problem, rng.integers(0, 3, 5))
            assert np.all(v_opt - v_reg >= -1e-9)
            assert np.full(5, 0.2) @ (v_opt - v_reg) >= -1e-9


class TestTransitionMse:
    def test_identical_matrices_have_zero_mse(self):
        t = np.array([[[0.2, 0.8], [0.5, 0.5]]])
        result = transition_mse(t, plain_model(t.copy()))
        assert result.mse_plain == 0.0 and result.mse_absorbing == 0.0

    def test_hand_computed_entrywise_mean(self):
        # one differing row: ((0.5)^2 + (0.5)^2 + 0 + 0) / 4 entries
        t_true = np.array([[[1.0, 0.0], [0.3, 0.7]]])
        t_reg = np.array([[[0.5, 0.5], [0.3, 0.7]]])
        result = transition_mse(t_true, plain_model(t_reg))
        assert result.mse_plain == pytest.approx(0.125, abs=1e-15)
        assert result.mse_absorbing == result.mse_plain

    def test_discount_augmentation_at_full_blend(self):
        # eps = 1 empties every row into the absorbing column; the expected
        # value is recomputed here from explicit block matrices
        t_true = np.array([[[1.0, 0.0], [0.3, 0.7]]])
        model = EstimatedModel(t_true.copy(), np.zeros((2, 1)))
        reg = regularize(model, None, "discount", 1.0, 0.95)
        result = transition_mse(t_true, reg)

        aug_true = np.array([[1.0, 0.0, 0.0], [0.3, 0.7, 0.0], [0.0, 0.0, 1.0]])
        aug_reg = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        expected = ((aug_true - aug_reg) ** 2).mean()
        assert result.mse_absorbing == pytest.approx(expected, abs=1e-15)
        assert result.mse_plain == pytest.approx((t_true ** 2).mean(), abs=1e-15)

    def test_discount_augmented_column_holds_eps(self):
        rng = np.random.default_rng(3)
        t_true = rng.dirichlet(np.ones(3), size=(2, 3))
        model = EstimatedModel(np.array(t_true), np.zeros((3, 2)))
        reg = regularize(model, None, "discount", 0.4, 0.95)
        result = transition_mse(t_true, reg)
        # (N+1)^2 denominator per action: recompute independently
        diff_core = (t_true - reg.t_reg) ** 2
        per_action = diff_core.sum(axis=(1, 2)) + 3 * 0.4 ** 2
        expected = per_action.sum() / (2 * 16)
        assert result.mse_absorbing == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        t = np.ones((1, 2, 2)) * 0.5
        with pytest.raises(ValueError, match="shape mismatch"):
            transition_mse(np.ones((1, 3, 3)) / 3, plain_model(t))

    def test_mse_zero_iff_equal(self):
        t = np.array([[[0.2, 0.8], [0.5, 0.5]]])
        nudged = t.copy()
        nudged[0, 0] = [0.2 + 1e-6, 0.8 - 1e-6]
        assert transition_mse(t, plain_model(nudged)).mse_plain > 0.0

    def test_dirichlet_mse_approaches_uniform_limit(self):
        rng = np.random.default_rng(41)
        counts = random_uniform_visit_counts(rng, 4, 2, row_total=25)
        t_true = rng.dirichlet(np.ones(4), size=(2, 4))
        uniform_mse = float(((t_true - 0.25) ** 2).mean())
        model = mle_model(counts)

        def curve(magnitudes):
            values = []
            for m in magnitudes:
                reg = regularize(model, counts, "dirichlet", float(m), 0.95)
                values.append(transition_mse(np.asarray(t_true), reg).mse_plain)
            return np.asarray(values)

        assert curve([1e12])[0] == pytest.approx(uniform_mse, abs=1e-9)
        # continuity: refining the magnitude grid 10x shrinks the largest jump
        # proportionally
        coarse = np.abs(np.diff(curve(np.linspace(0, 50, 26)))).max()
        fine = np.abs(np.diff(curve(np.linspace(0, 50, 251)))).max()
        assert fine <= 0.15 * coarse
