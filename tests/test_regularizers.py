import numpy as np
import pytest

from mdpreg import (CountsTensor, DirichletPrior, alpha_sum_from_eps,
                    dirichlet_posterior_mean, discount_blend, eps_from_gammas,
                    eps_from_prior, eps_greedy_blend, gamma_l_from_eps,
                    implied_prior_magnitude, mle_model, regularize, uniform_prior)
from mdpreg.estimation import EstimatedModel
from mdpreg.properties import random_uniform_visit_counts

GAMMA = 0.95


def counts_from_rows(rows):
    """CountsTensor for a single action from per-state count rows."""
    c = np.asarray(rows, dtype=np.int64)[:, None, :]
    n = c.shape[0]
    return CountsTensor(c, np.zeros((n, 1)), c.sum(axis=2))


def model_from_rows(rows):
    t = np.asarray(rows, dtype=float)[None, :, :]
    n = t.shape[1]
    return EstimatedModel(t, np.zeros((n, 1)), np.ones((n, 1), dtype=np.int64))


class TestDirichlet:
    def test_conjugate_update_by_hand(self):
        # c = (2, 0, 2), alpha = (1, 1, 1): row (3/7, 1/7, 3/7), eps = 3/7
        counts = counts_from_rows([[2, 0, 2], [1, 1, 1], [1, 1, 1]])
        prior = DirichletPrior(np.ones((3, 1, 3)))
        reg = dirichlet_posterior_mean(counts, prior, GAMMA)
        np.testing.assert_allclose(reg.t_reg[0, 0], [3 / 7, 1 / 7, 3 / 7], atol=1e-15)
        assert reg.eps_per_pair[0, 0] == pytest.approx(3 / 7, abs=1e-15)

    def test_zero_prior_reproduces_mle(self):
        counts = counts_from_rows([[3, 1], [1, 1]])
        reg = dirichlet_posterior_mean(counts, uniform_prior(0.0, 2, 1), GAMMA)
        np.testing.assert_array_equal(reg.t_reg[0, 0], [0.75, 0.25])
        np.testing.assert_array_equal(reg.t_reg, mle_model(counts).t_hat)

    def test_zero_counts_give_prior_mean(self):
        counts = counts_from_rows([[0, 0], [0, 0]])
        reg = dirichlet_posterior_mean(counts, uniform_prior(4.0, 2, 1), GAMMA)
        np.testing.assert_allclose(reg.t_reg, 0.5)

    def test_zero_counts_zero_prior_fall_back_to_uniform(self):
        counts = counts_from_rows([[0, 0], [0, 0]])
        reg = dirichlet_posterior_mean(counts, uniform_prior(0.0, 2, 1), GAMMA)
        np.testing.assert_array_equal(reg.t_reg, 0.5)
        np.testing.assert_array_equal(reg.eps_per_pair, 0.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DirichletPrior(-np.ones((2, 1, 2)))

    def test_matrix_form_under_uniform_visits(self):
        # with equal row totals the per-pair blend is the exact matrix blend
        rng = np.random.default_rng(0)
        counts = random_uniform_visit_counts(rng, 5, 2, row_total=30)
        t_mle = mle_model(counts).t_hat
        for m in (1.0, 10.0, 100.0):
            reg = dirichlet_posterior_mean(counts, uniform_prior(m, 5, 2), GAMMA)
            eps = m / (30 + m)
            expected = (1 - eps) * t_mle + eps / 5
            assert np.abs(reg.t_reg - expected).max() <= 1e-12

    def test_regularize_is_the_uniform_prior_posterior_mean(self):
        # regularize takes the prior mass m directly; the posterior mean sums
        # m / N over N entries, so the two agree to rounding, unvisited pairs too
        rng = np.random.default_rng(3)
        c = rng.integers(0, 4, size=(6, 3, 6)) * (rng.random((6, 3, 1)) < 0.6)
        counts = CountsTensor(c, rng.random((6, 3)), c.sum(axis=2))
        assert (counts.visit_count == 0).any()
        model = mle_model(counts)
        for m in (0.0, 0.5, 1.0, 7.0, 1000.0):
            got = regularize(model, counts, "dirichlet", m, GAMMA)
            want = dirichlet_posterior_mean(counts, uniform_prior(m, 6, 3), GAMMA)
            np.testing.assert_allclose(got.t_reg, want.t_reg, rtol=0, atol=1e-15)
            np.testing.assert_allclose(got.eps_per_pair, want.eps_per_pair, rtol=0, atol=1e-15)


class TestUniformPrior:
    def test_zero_magnitude_is_zero_prior(self):
        assert uniform_prior(0.0, 4, 2).alpha.sum() == 0.0

    def test_entries_are_magnitude_over_n(self):
        prior = uniform_prior(10.0, 10, 3)
        np.testing.assert_array_equal(prior.alpha, 1.0)

    def test_prior_mean_is_uniform(self):
        alpha = uniform_prior(7.0, 5, 1).alpha
        mean = alpha / alpha.sum(axis=2, keepdims=True)
        np.testing.assert_allclose(mean, 0.2)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            uniform_prior(-1.0, 3, 1)


class TestDiscountBlend:
    def test_zero_eps_is_identity(self):
        model = model_from_rows([[0.4, 0.6], [1.0, 0.0]])
        reg = discount_blend(model, 0.0, GAMMA)
        np.testing.assert_array_equal(reg.t_reg, model.t_hat)
        assert reg.gamma_l == GAMMA

    def test_full_blend_is_zero_matrix(self):
        model = model_from_rows([[0.4, 0.6], [1.0, 0.0]])
        np.testing.assert_array_equal(discount_blend(model, 1.0, GAMMA).t_reg, 0.0)

    def test_quarter_blend_scales_rows(self):
        model = model_from_rows([[0.4, 0.6], [1.0, 0.0]])
        reg = discount_blend(model, 0.25, GAMMA)
        np.testing.assert_allclose(reg.t_reg[0, 0], [0.3, 0.45], atol=1e-15)
        np.testing.assert_allclose(reg.t_reg.sum(axis=2), 0.75, atol=1e-15)
        assert reg.effective_gamma == GAMMA
        assert reg.gamma_l == pytest.approx(0.75 * GAMMA, abs=1e-15)

    def test_out_of_range_eps_rejected(self):
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            discount_blend(model, 1.2, GAMMA)


class TestEpsGreedyBlend:
    def test_single_action_is_identity(self):
        model = model_from_rows([[0.4, 0.6], [1.0, 0.0]])
        for eps in (0.0, 0.3, 1.0):
            np.testing.assert_allclose(eps_greedy_blend(model, eps, GAMMA).t_reg,
                                       model.t_hat, atol=1e-15)

    def test_full_blend_averages_all_actions(self):
        t = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
        model = EstimatedModel(t, np.zeros((2, 2)), np.ones((2, 2), dtype=np.int64))
        reg = eps_greedy_blend(model, 1.0, GAMMA)
        np.testing.assert_allclose(reg.t_reg, 0.5)

    def test_half_blend_of_unit_rows(self):
        t = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])  # two actions, one state
        model = EstimatedModel(t, np.zeros((1, 2)), np.ones((1, 2), dtype=np.int64))
        reg = eps_greedy_blend(model, 0.5, GAMMA)
        np.testing.assert_allclose(reg.t_reg[0, 0], [0.75, 0.25], atol=1e-15)
        np.testing.assert_allclose(reg.t_reg.sum(axis=2), 1.0, atol=1e-15)

    def test_out_of_range_eps_rejected(self):
        model = model_from_rows([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            eps_greedy_blend(model, -0.1, GAMMA)


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

    def test_eps_from_gammas(self):
        assert eps_from_gammas(0.9, 0.9) == 0.0
        assert eps_from_gammas(0.8, 0.4) == pytest.approx(0.5)

    def test_eps_from_prior(self):
        assert eps_from_prior(5.0, 15.0) == pytest.approx(0.25)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 0.95])
    def test_gamma_round_trip(self, eps):
        gamma = 0.9
        assert eps_from_gammas(gamma, gamma_l_from_eps(gamma, eps)) == \
            pytest.approx(eps, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.25, 0.6])
    def test_prior_round_trip(self, eps):
        count_sum = 40.0
        assert eps_from_prior(alpha_sum_from_eps(eps, count_sum), count_sum) == \
            pytest.approx(eps, abs=1e-12)

    def test_zero_denominators_rejected(self):
        with pytest.raises(ValueError):
            eps_from_gammas(0.0, 0.0)
        with pytest.raises(ValueError):
            eps_from_prior(0.0, 0.0)


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

    def test_dispatcher_records_swept_strength(self):
        rng = np.random.default_rng(1)
        counts = random_uniform_visit_counts(rng, 3, 2, row_total=10)
        model = mle_model(counts)
        reg = regularize(model, counts, "dirichlet", 10.0, GAMMA)
        assert reg.strength == 10.0
        assert reg.method == "dirichlet"

    def test_dispatcher_rejects_bad_input(self):
        rng = np.random.default_rng(1)
        counts = random_uniform_visit_counts(rng, 3, 2, row_total=10)
        model = mle_model(counts)
        with pytest.raises(ValueError, match="unknown method"):
            regularize(model, counts, "ridge", 0.5, GAMMA)
        with pytest.raises(ValueError, match="strength 0"):
            regularize(model, counts, "none", 0.5, GAMMA)
