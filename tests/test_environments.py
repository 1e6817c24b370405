import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpreg import (GridNoiseConfig, MdpSpecError, PlanningProblem, TabularMdp,
                    build_cliff_walk, build_interconnected_grid, build_two_goals,
                    cliff_near_goal_states, load_mdp_spec, policy_evaluation,
                    policy_iteration, save_mdp_spec)
from mdpreg.environments import (CLIFF_CELLS, CLIFF_GOAL, CLIFF_START, GRID_OUT_NEIGHBORS,
                                 GRID_REWARD_MEANS)

LEFT, RIGHT, UP, DOWN = 0, 1, 2, 3
NOISELESS = GridNoiseConfig(slip_prob=0.0, reward_std=0.0)


@pytest.mark.parametrize("slip", [0.0, 0.1, 0.5, 0.9])
@pytest.mark.parametrize("std", [0.0, 0.25])
def test_builders_always_produce_valid_mdps(slip, std):
    noise = GridNoiseConfig(slip, std)  # a TabularMdp checks itself as it is built
    build_cliff_walk(noise)
    build_two_goals(noise)
    build_interconnected_grid()


@pytest.mark.parametrize("field, value, problem", [
    ("slip_prob", "x", r"slip_prob must be a real number in \[0, 1\), got 'x'"),
    ("slip_prob", 1.0, r"slip_prob must be a real number in \[0, 1\), got 1.0"),
    ("reward_std", "x", "reward_std must be a real number >= 0, got 'x'"),
    ("reward_std", -0.5, "reward_std must be a real number >= 0, got -0.5"),
])
def test_noise_config_rejects_bad_values(field, value, problem):
    with pytest.raises(ValueError, match=problem):
        GridNoiseConfig(**{field: value})


class TestCliffWalk:
    def test_geometry(self):
        mdp = build_cliff_walk()
        assert mdp.n_states == 48 and mdp.n_actions == 4
        assert CLIFF_START == 36 and CLIFF_GOAL == 47
        assert CLIFF_CELLS == frozenset(range(37, 47))
        assert mdp.absorbing == frozenset({47})

    def test_cliff_entry_pays_minus_100_and_teleports(self):
        mdp = build_cliff_walk(NOISELESS)
        assert mdp.reward_mean[CLIFF_START, RIGHT] == -100.0
        row = mdp.transition[RIGHT, CLIFF_START]
        assert row[CLIFF_START] == 1.0 and row.sum() == 1.0

    def test_ordinary_move_pays_minus_1(self):
        mdp = build_cliff_walk(NOISELESS)
        assert mdp.reward_mean[0, RIGHT] == -1.0

    def test_noiseless_move_is_unit_row(self):
        mdp = build_cliff_walk(NOISELESS)
        interior = 1 * 12 + 5
        row = mdp.transition[RIGHT, interior]
        assert row[interior + 1] == 1.0 and row.sum() == 1.0

    def test_off_grid_move_stays_in_place(self):
        mdp = build_cliff_walk(NOISELESS)
        assert mdp.transition[UP, 0, 0] == 1.0
        assert mdp.reward_mean[0, UP] == -1.0

    def test_goal_is_absorbing(self):
        mdp = build_cliff_walk()
        for a in range(4):
            assert mdp.transition[a, CLIFF_GOAL, CLIFF_GOAL] == 1.0
            assert mdp.reward_mean[CLIFF_GOAL, a] == 0.0

    def test_slip_mixes_reward_into_expectation(self):
        # next to the cliff, the slip branch that falls in is priced at -100
        mdp = build_cliff_walk(GridNoiseConfig(slip_prob=0.1, reward_std=0.0))
        above_cliff = 2 * 12 + 5
        expected = 0.975 * -1.0 + 0.025 * -100.0
        assert mdp.reward_mean[above_cliff, RIGHT] == pytest.approx(expected, abs=1e-12)

    def test_optimal_walks_cliff_edge_and_beats_detour(self):
        """Noiseless shortest path is 13 steps along the cliff edge; the
        top-row detour takes 17. Values are plain geometric sums."""
        mdp = build_cliff_walk(NOISELESS)
        problem = PlanningProblem.from_mdp(mdp)
        gamma = mdp.gamma

        edge = np.full(48, UP)
        edge[24:35] = RIGHT
        edge[35] = DOWN
        detour = np.full(48, UP)
        detour[0:11] = RIGHT
        detour[[11, 23, 35]] = DOWN

        v_edge = policy_evaluation(problem, edge)
        v_detour = policy_evaluation(problem, detour)
        assert v_edge[CLIFF_START] == pytest.approx(-(1 - gamma ** 13) / (1 - gamma),
                                                    abs=1e-9)
        assert v_detour[CLIFF_START] == pytest.approx(-(1 - gamma ** 17) / (1 - gamma),
                                                      abs=1e-9)
        assert v_edge[CLIFF_START] > v_detour[CLIFF_START]

        pi_opt, _ = policy_iteration(problem)
        v_opt = policy_evaluation(problem, pi_opt)
        assert v_opt[CLIFF_START] == pytest.approx(v_edge[CLIFF_START], abs=1e-9)

    def test_near_goal_states(self):
        assert cliff_near_goal_states() == (23, 34, 35, 47)


class TestTwoGoals:
    def test_arrival_rewards(self):
        mdp = build_two_goals(NOISELESS)
        assert mdp.reward_mean[1, LEFT] == 0.10
        assert mdp.reward_mean[10, RIGHT] == 1.0
        assert mdp.reward_mean[5, RIGHT] == 0.0

    def test_noiseless_move_is_unit_row(self):
        mdp = build_two_goals(NOISELESS)
        row = mdp.transition[RIGHT, 5]
        assert row[6] == 1.0 and row.sum() == 1.0

    def test_up_keeps_position(self):
        mdp = build_two_goals(NOISELESS)
        assert mdp.transition[UP, 5, 5] == 1.0

    def test_goals_are_absorbing(self):
        mdp = build_two_goals()
        assert mdp.absorbing == frozenset({0, 11})

    def test_large_reward_dominates_from_state_10(self):
        # oracle: compare the two single-minded policies by direct evaluation
        mdp = build_two_goals(GridNoiseConfig(0.0, 0.25))
        problem = PlanningProblem.from_mdp(mdp)
        go_right = np.full(12, RIGHT)
        go_left = np.full(12, LEFT)
        v_right = policy_evaluation(problem, go_right)
        v_left = policy_evaluation(problem, go_left)
        assert v_right[10] == pytest.approx(1.0, abs=1e-12)
        assert v_left[10] == pytest.approx(0.10 * mdp.gamma ** 9, abs=1e-12)
        assert v_right[10] > v_left[10]

        pi_opt, _ = policy_iteration(problem)
        assert pi_opt[10] == RIGHT


class TestInterconnectedGrid:
    def test_uniform_fan_out(self):
        # every row is uniform over its listed out-neighbors and zero elsewhere
        mdp = build_interconnected_grid()
        for s, per_action in enumerate(GRID_OUT_NEIGHBORS):
            for a, dests in enumerate(per_action):
                want = np.zeros(mdp.n_states)
                want[list(dests)] = 1 / len(dests)
                np.testing.assert_allclose(mdp.transition[a, s], want, rtol=0, atol=1e-15)

    def test_rows_sum_to_one(self):
        mdp = build_interconnected_grid()
        np.testing.assert_allclose(mdp.transition.sum(axis=2), 1.0, atol=1e-12)

    def test_rewards_average_over_arrivals(self):
        mdp = build_interconnected_grid()
        means = np.asarray(GRID_REWARD_MEANS)
        dests = GRID_OUT_NEIGHBORS[0][0]
        assert mdp.reward_mean[0, 0] == pytest.approx(means[list(dests)].mean())


class TestSpecFiles:
    def test_round_trip_identity(self, tmp_path):
        mdp = build_cliff_walk()
        path = tmp_path / "cliff.json"
        save_mdp_spec(mdp, path)
        loaded = load_mdp_spec(path)
        np.testing.assert_array_equal(loaded.transition, mdp.transition)
        np.testing.assert_array_equal(loaded.reward_mean, mdp.reward_mean)
        np.testing.assert_array_equal(loaded.reward_std, mdp.reward_std)
        assert loaded.gamma == mdp.gamma
        assert loaded.absorbing == mdp.absorbing
        assert loaded.name == mdp.name

    def test_bad_row_sum_fails_validation(self, tmp_path):
        mdp = build_two_goals(NOISELESS)
        path = tmp_path / "broken.json"
        save_mdp_spec(mdp, path)
        doc = json.loads(path.read_text())
        doc["transition"][0][5] = [0.9 if p == 1.0 else 0.0 for p in doc["transition"][0][5]]
        path.write_text(json.dumps(doc))
        with pytest.raises(MdpSpecError, match="row 5 sums to 0.9"):
            load_mdp_spec(path)

    def test_missing_gamma_names_field(self, tmp_path):
        mdp = build_two_goals()
        path = tmp_path / "nogamma.json"
        save_mdp_spec(mdp, path)
        doc = json.loads(path.read_text())
        del doc["gamma"]
        path.write_text(json.dumps(doc))
        with pytest.raises(MdpSpecError, match="gamma"):
            load_mdp_spec(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(MdpSpecError, match="not valid JSON"):
            load_mdp_spec(path)

    def test_wrong_shape_names_field(self, tmp_path):
        mdp = build_two_goals()
        path = tmp_path / "shape.json"
        save_mdp_spec(mdp, path)
        doc = json.loads(path.read_text())
        doc["reward_mean"] = doc["reward_mean"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(MdpSpecError, match="reward_mean"):
            load_mdp_spec(path)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), n_actions=st.integers(1, 4),
       gamma=st.floats(0.0, 1.0, exclude_max=True), name=st.text(max_size=12),
       data=st.data())
def test_spec_round_trip_is_exact_on_random_mdps(tmp_path_factory, seed, n, n_actions,
                                                 gamma, name, data):
    rng = np.random.default_rng(seed)
    absorbing = data.draw(st.sets(st.integers(0, n - 1)))
    t = rng.dirichlet(np.ones(n), size=(n_actions, n))
    r = rng.normal(size=(n, n_actions)) * 10.0 ** rng.integers(-3, 4, (n, n_actions))
    for s in absorbing:
        t[:, s, :] = 0.0
        t[:, s, s] = 1.0
        r[s, :] = 0.0
    mdp = TabularMdp(t, r, rng.uniform(0, 2, (n, n_actions)), gamma, absorbing=absorbing,
                     name=name)
    path = tmp_path_factory.mktemp("spec") / "mdp.json"
    save_mdp_spec(mdp, path)
    # a file of the older schema also holds start_dist, which no run reads: it is
    # ignored, whatever it holds
    doc = json.loads(path.read_text())
    old_path = path.with_name("old.json")
    old_path.write_text(json.dumps({**doc, "start_dist": data.draw(st.sampled_from(
        [rng.dirichlet(np.ones(n)).tolist(), [0.7] * (n + 1), "x", None]))}))
    for loaded in (load_mdp_spec(path), load_mdp_spec(old_path)):
        for field in ("transition", "reward_mean", "reward_std"):
            np.testing.assert_array_equal(getattr(loaded, field), getattr(mdp, field))
        assert ((loaded.gamma, loaded.absorbing, loaded.name)
                == (mdp.gamma, mdp.absorbing, mdp.name))
