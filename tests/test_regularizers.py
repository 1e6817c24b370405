import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpreg import (CountsTensor, PlanningProblem, implied_prior_magnitude, mle_model,
                    policy_iteration, regularize)
from mdpreg.estimation import EstimatedModel
from mdpreg.properties import random_mdp, random_uniform_visit_counts
from tests.test_batched import random_counts

GAMMA = 0.95


def counts_from_rows(rows):
    """CountsTensor for a single action from per-state count rows."""
    c = np.asarray(rows, dtype=np.int64)[:, None, :]
    n = c.shape[0]
    return CountsTensor(c, np.zeros((n, 1)), c.sum(axis=2))


def model_from_rows(rows):
    t = np.asarray(rows, dtype=float)[None, :, :]
    return EstimatedModel(t, np.zeros((t.shape[1], 1)))


def dirichlet(counts, magnitude):
    """The posterior mean under a uniform prior of mass ``magnitude`` per pair."""
    return regularize(mle_model(counts), counts, "dirichlet", magnitude, GAMMA)


class TestDirichlet:
    def test_conjugate_update_by_hand(self):
        # c = (2, 0, 2), mass 3, so alpha = (1, 1, 1): row (3/7, 1/7, 3/7), eps = 3/7
        counts = counts_from_rows([[2, 0, 2], [1, 1, 1], [1, 1, 1]])
        reg = dirichlet(counts, 3.0)
        np.testing.assert_allclose(reg.t_reg[0, 0], [3 / 7, 1 / 7, 3 / 7], atol=1e-15)
        # the MLE entry is 0, so the entry is eps / N
        assert 3 * reg.t_reg[0, 0, 1] == pytest.approx(3 / 7, abs=1e-15)

    def test_zero_prior_reproduces_mle(self):
        counts = counts_from_rows([[3, 1], [1, 1]])
        reg = dirichlet(counts, 0.0)
        np.testing.assert_array_equal(reg.t_reg[0, 0], [0.75, 0.25])
        np.testing.assert_array_equal(reg.t_reg, mle_model(counts).t_hat)

    def test_zero_counts_give_prior_mean(self):
        counts = counts_from_rows([[0, 0], [0, 0]])
        reg = dirichlet(counts, 4.0)
        np.testing.assert_allclose(reg.t_reg, 0.5)

    def test_zero_counts_zero_prior_fall_back_to_uniform(self):
        counts = counts_from_rows([[0, 0], [0, 0]])
        reg = dirichlet(counts, 0.0)
        np.testing.assert_array_equal(reg.t_reg, 0.5)
        np.testing.assert_array_equal(reg.t_reg, mle_model(counts).t_hat)

    def test_visit_counts_alone_blend_as_the_counts_do(self):
        # dirichlet reads only the visit counts: a block keeps just those
        counts = random_counts(7, 5, 3, unvisited=0.3)
        model = mle_model(counts)
        cells = (["dirichlet", "discount", "dirichlet"], [0.0, 0.5, 20.0])
        np.testing.assert_array_equal(regularize(model, counts.visit_count, *cells, GAMMA).t_reg,
                                      regularize(model, counts, *cells, GAMMA).t_reg)

    def test_negative_alpha_rejected(self):
        counts = counts_from_rows([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="prior magnitude >= 0"):
            dirichlet(counts, -1.0)

    @pytest.mark.parametrize("m", [np.inf, np.nan])
    def test_non_finite_alpha_rejected(self, m):
        # inf / inf would blend NaN rows into the stack
        counts = counts_from_rows([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="prior magnitude >= 0 and finite"):
            dirichlet(counts, m)

    def test_matrix_form_under_uniform_visits(self):
        # with equal row totals the per-pair blend is the exact matrix blend
        rng = np.random.default_rng(0)
        counts = random_uniform_visit_counts(rng, 5, 2, row_total=30)
        t_mle = mle_model(counts).t_hat
        for m in (1.0, 10.0, 100.0):
            reg = dirichlet(counts, m)
            eps = m / (30 + m)
            expected = (1 - eps) * t_mle + eps / 5
            assert np.abs(reg.t_reg - expected).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7),
           n_actions=st.integers(1, 3), unvisited=st.sampled_from([0.0, 0.5, 1.0]),
           m=st.just(0.0) | st.floats(0.0, 1e6))
    def test_regularize_is_the_uniform_prior_posterior_mean(self, seed, n, n_actions,
                                                            unvisited, m):
        # (c + m/N) / (n_sa + m) entry by entry, as (N c + m) / (N (n_sa + m)) so that
        # a subnormal m does not underflow in m/N; the uniform row where n_sa + m == 0
        counts = random_counts(seed, n, n_actions, unvisited)
        n_sa = counts.visit_count[:, :, None]
        want = np.full(counts.c.shape, 1.0 / n)
        np.divide(n * counts.c + m, n * (n_sa + m), out=want, where=n_sa + m > 0)
        got = dirichlet(counts, m)
        np.testing.assert_allclose(got.t_reg, np.moveaxis(want, 1, 0), rtol=0, atol=1e-15)


class TestUniformPrior:
    """The prior ``regularize`` gives ``dirichlet``: mass m spread as m/N per entry."""

    def test_zero_magnitude_is_zero_prior(self):
        counts = random_counts(5, 6, 3, unvisited=0.5)
        assert (counts.visit_count == 0).any()
        np.testing.assert_array_equal(dirichlet(counts, 0.0).t_reg, mle_model(counts).t_hat)

    def test_entries_are_magnitude_over_n(self):
        # mass 10 over 10 states: one pseudo-count per successor
        row = [3, 0, 1, 0, 0, 0, 2, 0, 0, 0]
        counts = counts_from_rows([row] * 10)
        np.testing.assert_allclose(dirichlet(counts, 10.0).t_reg[0, 0],
                                   (np.array(row) + 1.0) / (6 + 10), rtol=0, atol=1e-15)

    def test_prior_mean_is_uniform(self):
        # a prior that swamps the counts leaves its mean, the uniform row
        counts = random_counts(7, 5, 2, unvisited=0.0)
        np.testing.assert_allclose(dirichlet(counts, 1e15).t_reg, 0.2, rtol=0, atol=1e-12)

    def test_negative_magnitude_rejected(self):
        counts = random_counts(1, 3, 1, unvisited=0.0)
        with pytest.raises(ValueError, match="prior magnitude >= 0"):
            regularize(mle_model(counts), counts, ("dirichlet", "discount"), (-1.0, 0.5),
                       GAMMA)


class TestDiscountBlend:
    def test_zero_eps_is_identity(self):
        model = model_from_rows([[0.4, 0.6], [1.0, 0.0]])
        reg = regularize(model, None, "discount", 0.0, GAMMA)
        np.testing.assert_array_equal(reg.t_reg, model.t_hat)
        assert PlanningProblem(reg.t_reg, reg.r_hat, reg.gamma).gamma == GAMMA

    def test_full_blend_is_zero_matrix(self):
        model = model_from_rows([[0.4, 0.6], [1.0, 0.0]])
        reg = regularize(model, None, "discount", 1.0, GAMMA)
        np.testing.assert_array_equal(reg.t_reg, 0.0)

    def test_quarter_blend_scales_rows(self):
        model = model_from_rows([[0.4, 0.6], [1.0, 0.0]])
        reg = regularize(model, None, "discount", 0.25, GAMMA)
        np.testing.assert_allclose(reg.t_reg[0, 0], [0.3, 0.45], atol=1e-15)
        np.testing.assert_allclose(reg.t_reg.sum(axis=2), 0.75, atol=1e-15)
        # planned at the true gamma; the rows carry the lowered discount 0.75 * gamma
        assert PlanningProblem(reg.t_reg, reg.r_hat, reg.gamma).gamma == GAMMA

    def test_out_of_range_eps_rejected(self):
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            regularize(model, None, "discount", 1.2, GAMMA)


class TestEpsGreedyBlend:
    def test_single_action_is_identity(self):
        model = model_from_rows([[0.4, 0.6], [1.0, 0.0]])
        for eps in (0.0, 0.3, 1.0):
            np.testing.assert_allclose(regularize(model, None, "eps_greedy", eps, GAMMA).t_reg,
                                       model.t_hat, atol=1e-15)

    def test_full_blend_averages_all_actions(self):
        t = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
        model = EstimatedModel(t, np.zeros((2, 2)))
        reg = regularize(model, None, "eps_greedy", 1.0, GAMMA)
        np.testing.assert_allclose(reg.t_reg, 0.5)

    def test_half_blend_of_unit_rows(self):
        t = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])  # two actions, one state
        model = EstimatedModel(t, np.zeros((1, 2)))
        reg = regularize(model, None, "eps_greedy", 0.5, GAMMA)
        np.testing.assert_allclose(reg.t_reg[0, 0], [0.75, 0.25], atol=1e-15)
        np.testing.assert_allclose(reg.t_reg.sum(axis=2), 1.0, atol=1e-15)

    def test_out_of_range_eps_rejected(self):
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            regularize(model, None, "eps_greedy", -0.1, GAMMA)


class TestConversions:
    def test_implied_prior_magnitude_by_hand(self):
        # ((0.9 - 0.45) / 0.45) * (20 / 10) = 2
        assert implied_prior_magnitude(0.9, 0.45, 20, 10) == pytest.approx(2.0)

    def test_no_regularization_implies_no_prior(self):
        assert implied_prior_magnitude(0.9, 0.9, 20, 10) == 0.0

    def test_implied_magnitude_scales_linearly_in_counts(self):
        one = implied_prior_magnitude(0.9, 0.6, 10, 5)
        two = implied_prior_magnitude(0.9, 0.6, 20, 5)
        assert two == pytest.approx(2 * one)

    def test_singular_gamma_l_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            implied_prior_magnitude(0.9, 0.0, 10, 5)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 0.95])
    def test_gamma_round_trip(self, eps):
        # the discount blend at eps has the Q-function of the MLE at (1 - eps) * gamma
        mdp = random_mdp(np.random.default_rng(3), 4, 2, gamma=0.9)
        est = EstimatedModel(mdp.transition, mdp.reward_mean)
        reg = regularize(est, None, "discount", eps, mdp.gamma)
        _, q_blend = policy_iteration(PlanningProblem(reg.t_reg, reg.r_hat, reg.gamma))
        lowered = PlanningProblem(est.t_hat, est.r_hat, (1 - eps) * mdp.gamma)
        np.testing.assert_allclose(q_blend, policy_iteration(lowered)[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.25, 0.6])
    def test_prior_round_trip(self, eps):
        # a uniform prior of mass eps / (1 - eps) * n_sa blends with weight eps
        counts = random_uniform_visit_counts(np.random.default_rng(5), 4, 2, row_total=40)
        want = (1 - eps) * mle_model(counts).t_hat + eps / 4
        np.testing.assert_allclose(dirichlet(counts, eps / (1 - eps) * 40).t_reg, want,
                                   rtol=0, atol=1e-15)


class TestBlendProperties:
    def test_strength_zero_reproduces_mle_for_all_methods(self):
        rng = np.random.default_rng(4)
        counts = random_uniform_visit_counts(rng, 4, 2, row_total=12)
        model = mle_model(counts)
        for method in ("dirichlet", "discount", "eps_greedy", "none"):
            reg = regularize(model, counts, method, 0.0, GAMMA)
            np.testing.assert_array_equal(reg.t_reg, model.t_hat)

    def test_blended_rows_stay_convex(self):
        rng = np.random.default_rng(9)
        counts = random_uniform_visit_counts(rng, 5, 3, row_total=20)
        model = mle_model(counts)
        for method, strength in (("dirichlet", 25.0), ("discount", 0.4),
                                 ("eps_greedy", 0.4)):
            reg = regularize(model, counts, method, strength, GAMMA)
            assert np.all(reg.t_reg >= 0.0)
            assert reg.t_reg.max() <= max(model.t_hat.max(), 1.0 / 5) + 1e-12
            sums = reg.t_reg.sum(axis=2)
            if method == "discount":
                np.testing.assert_allclose(sums, 1.0 - 0.4, atol=1e-9)
            else:
                np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_dispatcher_records_the_method(self):
        rng = np.random.default_rng(1)
        counts = random_uniform_visit_counts(rng, 3, 2, row_total=10)
        model = mle_model(counts)
        reg = regularize(model, counts, "dirichlet", 10.0, GAMMA)
        assert reg.method == "dirichlet"
        # the methods' shape is the batch shape of the blended matrices
        methods = [["dirichlet", "discount"], ["eps_greedy", "none"]]
        cells = regularize(model, counts, methods, [[10.0, 0.4], [0.4, 0.0]], GAMMA)
        assert cells.method.tolist() == methods
        assert cells.t_reg.shape == (2, 2) + model.t_hat.shape
        np.testing.assert_array_equal(cells.t_reg[1, 0],
                                      regularize(model, counts, "eps_greedy", 0.4, GAMMA).t_reg)

    def test_dispatcher_rejects_bad_input(self):
        rng = np.random.default_rng(1)
        counts = random_uniform_visit_counts(rng, 3, 2, row_total=10)
        model = mle_model(counts)
        with pytest.raises(ValueError, match="unknown method"):
            regularize(model, counts, "ridge", 0.5, GAMMA)
        with pytest.raises(ValueError, match="strength 0"):
            regularize(model, counts, "none", 0.5, GAMMA)
        with pytest.raises(ValueError, match=r"\(2,\) methods but \(1,\) strengths"):
            regularize(model, counts, ("dirichlet", "discount"), (1.0,), GAMMA)
        with pytest.raises(ValueError, match="dirichlet cells need counts"):
            regularize(model, None, "dirichlet", 1.0, GAMMA)
