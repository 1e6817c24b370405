"""Property tests for the batched paths: stacked policy iteration, the blend
kernel behind ``regularize``, the batched ``transition_mse`` and the wave
width of a replication; and for the config and spec loaders on arbitrary JSON."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import mdpreg.harness as harness
import mdpreg.planning as planning
from mdpreg import (CollectionConfig, ConfigError, CountsTensor, ExperimentConfig,
                    MdpSpecError, PlanningProblem, StartMode, TabularMdp, build_two_goals,
                    emit_csv, load_experiment_config, load_mdp_spec, mle_model,
                    policy_iteration, regularize, run_experiment, save_mdp_spec,
                    transition_mse)
from mdpreg.environments import _SPEC_FIELDS
from mdpreg.planning import PolicyIterationError

SETTINGS = settings(max_examples=60, deadline=None)
EPS = st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.95, 1.0])
MAGNITUDE = st.sampled_from([0.0, 1.0, 5.0, 100.0])
CELL = st.one_of(
    st.tuples(st.just("dirichlet"), MAGNITUDE),
    st.tuples(st.sampled_from(["discount", "eps_greedy"]), EPS),
    st.just(("none", 0.0)),
)


def random_counts(seed: int, n: int, n_actions: int, unvisited: float) -> CountsTensor:
    """Random counts in which about ``unvisited`` of the pairs have no data."""
    rng = np.random.default_rng(seed)
    c = rng.integers(0, 5, size=(n, n_actions, n))
    c[rng.random((n, n_actions)) < unvisited] = 0
    visits = c.sum(axis=2)
    reward_sum = rng.choice([-1.0, 0.0, 1.0, 2.5], size=(n, n_actions)) * visits
    return CountsTensor(c, reward_sum, visits)


def count_sweeps(problem, **kwargs):
    """(policy, Q, sweeps) of one policy_iteration call; a sweep is one
    batched evaluation, whatever the number of problems still active."""
    calls = []
    real = planning.policy_evaluation

    def counting(*args):
        calls.append(1)
        return real(*args)

    with mock.patch.object(planning, "policy_evaluation", counting):
        policy, q = policy_iteration(problem, **kwargs)
    return policy, q, len(calls)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), n_actions=st.integers(1, 4),
       batch=st.lists(st.integers(0, 4), max_size=2).map(tuple), shared_r=st.booleans(),
       gamma=st.sampled_from([0.0, 0.5, 0.9, 0.99]), warm=st.booleans())
def test_stacked_policy_iteration_equals_per_problem_calls(seed, n, n_actions, batch, shared_r,
                                                           gamma, warm):
    # a stack of any batch shape, the empty shape and empty stacks included, gives
    # each problem the bits of a call on that problem alone, whether it shares r
    # or has its own
    rng = np.random.default_rng(seed)
    t = rng.dirichlet(np.ones(n), size=batch + (n_actions, n))
    t *= rng.choice([1.0, 0.7], size=batch + (n_actions, n, 1))  # some substochastic rows
    r = rng.uniform(-1.0, 1.0, (() if shared_r else batch) + (n, n_actions))
    init = rng.integers(0, n_actions, batch + (n,)) if warm else None
    stack = PlanningProblem(t, r, gamma)
    policy, q = policy_iteration(stack, initial_policy=init)
    assert policy.shape == batch + (n,) and q.shape == batch + (n, n_actions)
    for i in np.ndindex(batch):
        one = PlanningProblem(t[i], stack.r[i], gamma)
        pi_i, q_i = policy_iteration(one, initial_policy=None if init is None else init[i])
        np.testing.assert_array_equal(policy[i], pi_i)
        np.testing.assert_array_equal(q[i], q_i)


def test_an_empty_stack_plans_to_empty_arrays():
    # empty method and strength lists blend no cell: planning and scoring them
    # returns empty arrays at once, with no sweep
    counts = random_counts(0, 3, 2, unvisited=0.3)
    reg = regularize(mle_model(counts), counts, [], [], 0.9)
    policy, q, sweeps = count_sweeps(PlanningProblem(reg.t_reg, reg.r_hat, reg.gamma))
    assert (policy.shape, q.shape, sweeps) == ((0, 3), (0, 3, 2), 0)
    assert transition_mse(np.full((2, 3, 3), 1 / 3), reg).mse_absorbing.shape == (0,)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), n_actions=st.integers(1, 4),
       gamma=st.sampled_from([0.5, 0.95, 0.99]), warm=st.booleans())
def test_eps_greedy_at_full_blend_converges_in_two_sweeps(seed, n, n_actions, gamma, warm):
    # eps = 1 gives every action the same rows, so actions differ only in
    # reward: one sweep moves each state to its best-reward action, the
    # second confirms it
    counts = random_counts(seed, n, n_actions, unvisited=0.3)
    model = mle_model(counts)
    reg = regularize(model, counts, ["eps_greedy"] * 3, [1.0] * 3, gamma)
    init = np.random.default_rng(seed).integers(0, n_actions, (3, n)) if warm else None
    policy, _, sweeps = count_sweeps(PlanningProblem(reg.t_reg, reg.r_hat, reg.gamma),
                                     initial_policy=init)
    assert sweeps <= 2
    best = (model.r_hat >= model.r_hat.max(axis=1, keepdims=True) - 1e-6).argmax(axis=1)
    np.testing.assert_array_equal(policy, np.broadcast_to(best, policy.shape))


@SETTINGS
@given(n=st.integers(1, 8), n_actions=st.integers(1, 4),
       cells=st.lists(CELL, min_size=1, max_size=5), seed=st.integers(0, 2**32 - 1))
def test_all_unvisited_counts_converge_in_one_sweep(n, n_actions, cells, seed):
    # no data: every method leaves identical rows and rewards for all actions,
    # so every Q-value ties exactly and the incumbent policy is kept
    counts = random_counts(0, n, n_actions, unvisited=1.0)
    methods, strengths = zip(*cells)
    reg = regularize(mle_model(counts), counts, methods, strengths, 0.95)
    init = np.random.default_rng(seed).integers(0, n_actions, (len(cells), n))
    policy, _, sweeps = count_sweeps(PlanningProblem(reg.t_reg, reg.r_hat, reg.gamma),
                                     initial_policy=init)
    assert sweeps == 1
    np.testing.assert_array_equal(policy, 0)


def test_round_off_ties_do_not_cycle():
    # found by the wave-width search: at state 0, actions 0 and 1 both pay 1
    # and lead (almost surely) to states worth the same, so their values tie
    # exactly; each policy's LU solve made the other action look better by
    # ~4e-15, and exact improvement switched between them forever
    c = np.zeros((2, 4, 2), dtype=np.int64)
    c[0, 0, 1] = c[1, 0, 0] = c[0, 1, 0] = 2
    c[1, 2, 0] = c[0, 3, 1] = 1
    visits = c.sum(axis=2)
    reward_sum = np.array([[1.0, 1.0, 0.0, 0.5], [1.0, 0.0, 0.0, 0.0]]) * visits
    counts = CountsTensor(c, reward_sum, visits)
    reg = regularize(mle_model(counts), counts, "dirichlet", 1e-9, 0.9)
    policy, _, sweeps = count_sweeps(PlanningProblem(reg.t_reg, reg.r_hat, reg.gamma))
    assert sweeps <= 2
    np.testing.assert_array_equal(policy, [0, 0])


def test_sweep_limit_names_the_unconverged_problems():
    # action 0 pays 1 and action 1 nothing, so the all-zero policy is optimal:
    # problem 0 starts there and converges at once, problem 1 needs a second sweep
    t = np.random.default_rng(3).dirichlet(np.ones(4), size=(2, 2, 4))
    problem = PlanningProblem(t, np.tile([[1.0, 0.0]], (4, 1)), 0.9)
    with mock.patch.object(planning, "_MAX_SWEEPS", 1):
        try:
            policy_iteration(problem, initial_policy=[[0, 0, 0, 0], [1, 1, 1, 1]])
        except PolicyIterationError as exc:
            assert exc.problems == [1]
            assert "did not converge in 1 sweeps" in str(exc)
        else:
            raise AssertionError("expected PolicyIterationError")


def near_tie_mdp(seed: int, n: int, n_actions: int, copies: str, reward_std: float
                 ) -> TabularMdp:
    """A sparse random MDP with rewards in {0, 0.5, 1}, 0.5 being the MLE's
    reward for unvisited pairs. ``copies`` makes the last action a copy of
    action 0 ("duplicate"), then shuffles the actions state by state
    ("permute"), so that tied actions sit at different indices."""
    rng = np.random.default_rng(seed)
    t = rng.random((n_actions, n, n)) * (rng.random((n_actions, n, n)) < 0.4)
    t[:, np.arange(n), rng.integers(0, n, n)] += 1e-3  # no empty row
    t /= t.sum(axis=2, keepdims=True)
    r = rng.choice([0.0, 0.5, 1.0], size=(n, n_actions))
    if copies != "none":
        t[-1], r[:, -1] = t[0], r[:, 0]
    if copies == "permute":
        perm = rng.permuted(np.tile(np.arange(n_actions), (n, 1)), axis=1)  # (s, a)
        t, r = t[perm.T, np.arange(n)[None, :]], np.take_along_axis(r, perm, axis=1)
    return TabularMdp(t, r, np.full((n, n_actions), reward_std), 0.9)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), n_actions=st.integers(2, 4),
       copies=st.sampled_from(["none", "duplicate", "permute"]),
       reward_std=st.sampled_from([0.0, 0.3]),
       collection=st.tuples(st.integers(1, 6), st.integers(1, 8),
                            st.sampled_from([0.0, 0.5, 1.0])),
       methods=st.permutations(["dirichlet", "discount", "eps_greedy", "none"]),
       eps_grid=st.lists(st.sampled_from([0.0, 0.3, 0.9, 0.99, 1 - 1e-6, 1 - 1e-12, 1.0]),
                         min_size=1, max_size=6, unique=True),
       magnitude_grid=st.lists(st.sampled_from([0.0, 1e-9, 1.0, 100.0, 1e9]),
                               min_size=1, max_size=4, unique=True))
def test_outputs_do_not_depend_on_the_wave_width(seed, n, n_actions, copies, reward_std,
                                                 collection, methods, eps_grid,
                                                 magnitude_grid):
    # width 1 warm-starts each cell from the previous cell; width 2 warm-starts
    # both cells of a wave from the previous wave's last policy, so waves cross
    # method boundaries and methods share one warm start; one wave per sweep
    # starts every cell from its own greedy policy under the true values, as
    # wave 0 of every width does. The strength-0 cells after the first are
    # copies of it (mle_copies): no wave plans them, and a wave of copies only
    # is skipped. Blocks of 1, 3 or all replications stack the replications'
    # waves, each replication with its own warm starts, serially and in a
    # pool. 7 replications make uneven blocks (3, 2, 2 under a cap of 3; 4
    # and 3 for 2 workers' shares), and a smaller block of a run takes wider
    # waves. All must give the same bits, also on
    # near-ties: copied actions, eps_greedy near 1, and data that leave most
    # pairs unvisited (p_optimal = 1, few short trajectories)
    mdp = near_tie_mdp(seed, n, n_actions, copies, reward_std)
    replications = 7
    cfg = ExperimentConfig(mdp="drawn", collection=CollectionConfig(*collection,
                                                                    StartMode.uniform()),
                           methods=tuple(methods), eps_grid=tuple(eps_grid),
                           magnitude_grid=tuple(magnitude_grid), master_seed=seed,
                           replications=replications)
    cells = len(harness.sweep_cells(cfg))
    mle_copies = [i for i, (_, s) in enumerate(harness.sweep_cells(cfg)) if s == 0.0][1:]
    cell = mdp.transition.nbytes  # as large as an MLE model's matrices
    # (cells per wave of a block of the cap's size, replications per block at
    # most, workers), and the blocks a serial run plans under each cap
    runs = [(cells, 1, 1), (2, 3, 1), (1, 7, 1), (cells, 1, 2), (1, 3, 2), (2, 7, 2)]
    serial_blocks = {1: [1] * 7, 3: [3, 2, 2], 7: [7]}
    plans, blocks = [], []
    real_plan, real_block = harness.policy_iteration, harness._block_task

    def plan(*args, **kwargs):
        plans.append(1)
        return real_plan(*args, **kwargs)

    def block_task(ctx, reps):
        metrics = real_block(ctx, reps)
        blocks.append(metrics)
        return metrics

    results, metrics, texts = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(harness, "resolve_mdp", lambda cfg: mdp), \
            mock.patch.object(harness.os, "cpu_count", lambda: 2):
        for run in runs:
            width, cap, workers = run
            with mock.patch.object(harness, "_WAVE_BYTES", width * cap * cell), \
                    mock.patch.object(harness, "_BLOCK_BYTES", cap * cell):
                if workers > 1:  # the pool pickles its task: count only serial runs
                    results[run] = run_experiment(replace(cfg, workers=workers))
                else:
                    plans.clear(), blocks.clear()
                    with mock.patch.object(harness, "policy_iteration", plan), \
                            mock.patch.object(harness, "_block_task", block_task):
                        results[run] = run_experiment(cfg)
                    sizes = [m.shape[1] for m in blocks]
                    assert sizes == serial_blocks[cap]
                    # one stacked call per wave of a block that plans a cell, and
                    # one for the true MDP
                    assert len(plans) == 1 + sum(
                        any(i not in mle_copies for i in range(start, min(start + w, cells)))
                        for size in sizes
                        for w in [min(cells, width * cap // size)]
                        for start in range(0, cells, w))
                    metrics[run] = np.concatenate(blocks, axis=1)
            path = Path(tmp) / "rows.csv"
            emit_csv(results[run], path)
            texts[run] = path.read_bytes()
    first = runs[0]
    for run in runs[1:]:
        assert results[run] == results[first], run  # unrounded means and stderrs
        assert texts[run] == texts[first], run
    for run in metrics:  # serial runs: each replication's metrics, bit for bit
        # (losses, plain MSE, absorbing MSE) x (replication, cell)
        assert metrics[run].shape == (3, replications, cells)
        np.testing.assert_array_equal(metrics[run], metrics[first])


def augmented_mse(t_true: np.ndarray, t_reg: np.ndarray) -> float:
    """The absorbing-state MSE built from explicit (N+1)^2 matrices (the oracle)."""
    n_actions, n, _ = t_true.shape

    def augment(t, exit_mass):
        aug = np.zeros((n_actions, n + 1, n + 1))
        aug[:, :n, :n] = t
        aug[:, :n, n] = exit_mass
        aug[:, n, n] = 1.0
        return aug

    aug_true = augment(t_true, np.zeros((n_actions, n)))
    aug_reg = augment(t_reg, 1.0 - t_reg.sum(axis=2))
    return float(np.mean((aug_true - aug_reg) ** 2))


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), n_actions=st.integers(1, 4),
       cells=st.lists(CELL, min_size=1, max_size=5))
def test_batched_transition_mse_matches_augmented_oracle(seed, n, n_actions, cells):
    counts = random_counts(seed, n, n_actions, unvisited=0.3)
    t_true = np.random.default_rng(seed).dirichlet(np.ones(n), size=(n_actions, n))
    methods, strengths = zip(*cells)
    batch = regularize(mle_model(counts), counts, methods, strengths, 0.95)
    result = transition_mse(t_true, batch)
    for i, (method, strength) in enumerate(cells):
        plain = float(np.mean((t_true - batch.t_reg[i]) ** 2))
        absorbing = augmented_mse(t_true, batch.t_reg[i]) if method == "discount" else plain
        np.testing.assert_allclose(result.mse_plain[i], plain, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(result.mse_absorbing[i], absorbing, rtol=1e-12,
                                   atol=1e-300)
        one = transition_mse(t_true, regularize(mle_model(counts), counts, method,
                                                strength, 0.95))
        assert (one.mse_plain, one.mse_absorbing) == (result.mse_plain[i],
                                                      result.mse_absorbing[i])
        assert isinstance(one.mse_plain, float) and isinstance(one.mse_absorbing, float)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), n_actions=st.integers(1, 4),
       cells=st.lists(CELL, min_size=1, max_size=5),
       unvisited=st.sampled_from([0.0, 0.5, 1.0]))
def test_blended_rows_sum_to_one_or_to_one_minus_eps(seed, n, n_actions, cells, unvisited):
    counts = random_counts(seed, n, n_actions, unvisited)
    model = mle_model(counts)
    methods, strengths = zip(*cells)
    batch = regularize(model, counts, methods, strengths, 0.95)
    assert batch.t_reg.shape == (len(cells), n_actions, n, n)
    assert np.all(batch.t_reg >= 0.0)
    for i, (method, strength) in enumerate(cells):
        expected = 1.0 - strength if method == "discount" else 1.0
        np.testing.assert_allclose(batch.t_reg[i].sum(axis=2), expected, atol=1e-12)
        single = regularize(model, counts, method, strength, 0.95)
        np.testing.assert_array_equal(batch.t_reg[i], single.t_reg)
        assert batch.method[i] == single.method


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.sampled_from([10**400, -10**400])
    | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(
        st.sampled_from(["fixed", "set", "x"]), children, max_size=2),
    max_leaves=6)
CONFIG_KEYS = ["mdp", "collection", "methods", "eps_grid", "magnitude_grid", "replications",
               "master_seed", "gamma", "out", "workers", "bogus"]
COLLECTION = st.dictionaries(
    st.sampled_from(["n_trajectories", "trajectory_length", "p_optimal", "start_mode", "x"]),
    JSON, max_size=4)


@SETTINGS
@given(doc=st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON | COLLECTION, max_size=8))
def test_config_loader_raises_only_config_errors(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.json"
        path.write_text(json.dumps(doc))
        try:
            load_experiment_config(path)
        except ConfigError as exc:
            assert exc.problems and all(isinstance(p, str) for p in exc.problems)


DROP = object()  # marks a spec field removed from the file
# (k, leaf): the field keeps its shape, with its k-th number (mod the count) set to
# leaf, so that the file parses and TabularMdp judges it
POKE = st.tuples(st.integers(0, 10**4),
                 st.sampled_from([np.nan, np.inf, -np.inf, -1, 0, 5, 0.5]))


def poke(value, k, leaf):
    if not isinstance(value, list):
        return leaf
    arr = np.array(value, dtype=object)
    if arr.size == 0:
        return [leaf]
    arr.flat[k % arr.size] = leaf
    return arr.tolist()


@SETTINGS
@given(edits=st.dictionaries(st.sampled_from(_SPEC_FIELDS),
                             st.just(DROP) | POKE | JSON
                             | st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3))
def test_spec_loader_raises_only_spec_errors(edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mdp.json"
        save_mdp_spec(build_two_goals(), path)
        doc = json.loads(path.read_text())
        for field, value in edits.items():
            if value is DROP:
                del doc[field]
            else:
                doc[field] = poke(doc[field], *value) if isinstance(value, tuple) else value
        path.write_text(json.dumps(doc))
        try:
            assert isinstance(load_mdp_spec(path), TabularMdp)
        except MdpSpecError as exc:
            assert exc.problems and all(isinstance(p, str) and p for p in exc.problems)
