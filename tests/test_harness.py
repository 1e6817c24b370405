import json
import multiprocessing
import os

import numpy as np
import pytest

import mdpreg.harness as harness
from mdpreg import (CollectionConfig, ConfigError, ExperimentConfig, StartMode,
                    builtin_presets, config_hash, emit_csv, emit_summary,
                    load_experiment_config, run_experiment, save_mdp_spec,
                    build_two_goals, count, generate_dataset, mle_model,
                    policy_evaluation, regularize, transition_mse)
from mdpreg.harness import (CSV_HEADER, override, resolve_mdp, sweep_cells, sweep_waves,
                            validate_experiment_config)
from mdpreg.planning import PlanningProblem, PolicyIterationError, policy_iteration
from mdpreg.seeding import child_seed


def tiny_config(**overrides):
    base = dict(
        mdp="grid",
        collection=CollectionConfig(5, 8, 0.0, StartMode.uniform()),
        methods=("dirichlet", "discount", "eps_greedy", "none"),
        eps_grid=(0.0, 0.5),
        magnitude_grid=(0.0, 10.0),
        replications=6,
        master_seed=777,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_valid_config_has_no_problems(self):
        assert validate_experiment_config(tiny_config()) == []

    def test_problems_are_collected_not_raised_one_by_one(self):
        cfg = tiny_config(methods=("dirichlet", "ridge"), eps_grid=(2.0,),
                          replications=0)
        problems = validate_experiment_config(cfg)
        assert len(problems) >= 3

    def test_run_rejects_invalid_config_before_work(self):
        with pytest.raises(ConfigError):
            run_experiment(tiny_config(replications=0))

    def test_non_finite_magnitudes_rejected_before_work(self):
        # only the library route reaches this: JSON carries no NaN or infinity
        with pytest.raises(ConfigError) as err:
            run_experiment(tiny_config(magnitude_grid=(np.inf, 1.0, np.nan, -np.inf)))
        assert err.value.problems == ["prior magnitude inf is not finite",
                                      "prior magnitude nan is not finite",
                                      "prior magnitude -inf is negative"]

    def test_signed_zero_gamma_and_p_optimal_hash_as_zero(self, tmp_path):
        # equal configs hash equal, built in Python and loaded from JSON
        cfgs = [tiny_config(gamma=zero, collection=CollectionConfig(5, 8, zero))
                for zero in (0.0, -0.0)]
        for i, zero in enumerate((0.0, -0.0)):
            path = tmp_path / f"exp{i}.json"
            path.write_text(json.dumps({
                "mdp": "grid", "gamma": zero, "replications": 6, "master_seed": 777,
                "methods": ["dirichlet", "discount", "eps_greedy", "none"],
                "eps_grid": [0.0, 0.5], "magnitude_grid": [0.0, 10.0],
                "collection": {"n_trajectories": 5, "trajectory_length": 8,
                               "p_optimal": zero}}))
            cfgs.append(load_experiment_config(path))
        assert cfgs[0] == cfgs[1] == cfgs[2] == cfgs[3]
        assert len({config_hash(cfg) for cfg in cfgs}) == 1

    def test_hash_ignores_out_and_workers(self):
        a = tiny_config()
        b = tiny_config(out="x.csv", workers=8)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(tiny_config(master_seed=778))

    def test_gamma_override_applies(self):
        mdp = resolve_mdp(tiny_config(gamma=0.5))
        assert mdp.gamma == 0.5

    def test_spec_file_mdp_source(self, tmp_path):
        path = tmp_path / "tg.json"
        save_mdp_spec(build_two_goals(), path)
        mdp = resolve_mdp(tiny_config(mdp=str(path)))
        assert mdp.name == "two_goals"


class TestSweep:
    def test_cells_follow_method_and_grid_order(self):
        cells = sweep_cells(tiny_config())
        assert cells == [("dirichlet", 0.0), ("dirichlet", 10.0),
                         ("discount", 0.0), ("discount", 0.5),
                         ("eps_greedy", 0.0), ("eps_greedy", 0.5),
                         ("none", 0.0)]

    def test_rows_keyed_uniquely(self):
        rows = run_experiment(tiny_config())
        keys = [(r.method, r.strength) for r in rows]
        assert len(keys) == len(set(keys))
        assert all(r.replications == 6 for r in rows)
        assert all(r.stderr_loss >= 0.0 for r in rows)

    def test_strength_zero_rows_agree_across_methods(self):
        rows = run_experiment(tiny_config())
        at_zero = {r.method: r.mean_loss for r in rows if r.strength == 0.0}
        losses = set(at_zero.values())
        assert len(at_zero) == 4
        assert len(losses) == 1  # exact equality: all reduce to the MLE plan


class TestDeterminism:
    def test_same_config_reproduces_rows(self):
        assert run_experiment(tiny_config()) == run_experiment(tiny_config())

    def test_worker_count_does_not_change_rows(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # a pool even on one CPU
        serial = run_experiment(tiny_config(workers=1))
        parallel = run_experiment(tiny_config(workers=2))
        assert serial == parallel

    @pytest.mark.parametrize("workers, replications, cpus, pool, chunk", [
        (64, 3, 8, 3, 1),      # no more processes than replications
        (64, 100, 4, 4, 3),    # nor than CPUs; the chunk follows the pool size
        (2, 6, 1, None, None),  # one CPU runs serially: no pool at all
        (2, 6, None, None, None),  # an unknown CPU count counts as one
        (2, 32, 2, 2, 2),      # two workers on two CPUs keep their pool
    ])
    def test_pool_size_is_capped(self, monkeypatch, workers, replications, cpus, pool,
                                 chunk):
        # a fake pool that records its size and maps in-process: no process starts
        made = []

        class FakePool:
            def __init__(self, max_workers):
                made.append([max_workers])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                made[-1].append(chunksize)
                return map(fn, items)

        cfg = tiny_config(workers=workers, replications=replications)
        serial = run_experiment(override(cfg, workers=1))
        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        assert run_experiment(cfg) == serial
        assert made == ([] if pool is None else [[pool, chunk]])

    def test_csv_bytes_reproduce(self, tmp_path):
        rows = run_experiment(tiny_config())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, p1)
        emit_csv(run_experiment(tiny_config()), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestFailureHandling:
    def test_replication_failure_names_its_index(self, monkeypatch):
        import mdpreg.harness as harness

        real = harness.generate_dataset
        calls = iter(range(1000))

        def flaky(*args, **kwargs):
            if next(calls) == 2:
                raise np.linalg.LinAlgError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr("mdpreg.harness.generate_dataset", flaky)
        seed = child_seed(777, 2)
        with pytest.raises(RuntimeError, match=rf"replication 2 \(child seed {seed}\) failed"):
            run_experiment(tiny_config())

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="pool workers see the patched harness only when forked")
    def test_pool_replication_failure_names_its_index(self, monkeypatch):
        # keyed on the child seed: a call counter would count per worker process
        real = harness.generate_dataset
        seed = child_seed(777, 2)

        def flaky(mdp, optimal, cfg, master_seed):
            if master_seed == seed:
                raise np.linalg.LinAlgError("synthetic failure")
            return real(mdp, optimal, cfg, master_seed)

        monkeypatch.setattr(harness, "generate_dataset", flaky)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        with pytest.raises(RuntimeError, match=rf"replication 2 \(child seed {seed}\) failed"):
            run_experiment(tiny_config(workers=2))

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="pool workers see the patched harness only when forked")
    def test_pool_worker_death_names_the_first_missing_replication(self, monkeypatch):
        # replication 0's worker exits outright; 32 replications on 2 workers
        # run in chunks of 2, so nothing precedes it and its chunk is 0-1
        real = harness.generate_dataset
        seed = child_seed(777, 0)

        def dying(mdp, optimal, cfg, master_seed):
            if master_seed == seed:
                os._exit(1)
            return real(mdp, optimal, cfg, master_seed)

        monkeypatch.setattr(harness, "generate_dataset", dying)
        # two processes even on one CPU: serially, the exit would end this process
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        with pytest.raises(RuntimeError, match=rf"replication 0 \(child seed {seed}, chunk of"
                                               rf" replications 0-1\) was not received"):
            run_experiment(tiny_config(workers=2, replications=32))

    def test_non_convergence_names_the_cell(self, monkeypatch):
        def stuck(problem, initial_policy=None):
            if problem.t.ndim == 4:  # a wave; the true-MDP solve is unstacked
                raise PolicyIterationError([1])
            return policy_iteration(problem)

        monkeypatch.setattr(harness, "policy_iteration", stuck)
        # problem 1 of the first stacked call is the second cell of wave 0
        cfg = tiny_config()
        cells = sweep_cells(cfg)
        width = harness._wave_width(cells, resolve_mdp(cfg).transition.nbytes)
        method, strength = cells[sweep_waves(cells, width)[0][1]]
        with pytest.raises(RuntimeError, match=r"replication 0 \(child seed \d+\) failed:"
                                               rf" .* at cell\(s\) \({method}, {strength:g}\)"):
            run_experiment(cfg)


class TestWaves:
    def test_wave_j_holds_the_jth_cell_of_every_method(self):
        cells = sweep_cells(tiny_config(methods=("discount", "none", "dirichlet"),
                                        eps_grid=(0.0, 0.5, 1.0)))
        # cells: discount 0..2, none 3, dirichlet 4..5
        assert sweep_waves(cells, width=1) == [[0, 3, 4], [1, 5], [2]]
        # wave j holds the next two strengths of every method, in output order
        assert sweep_waves(cells, width=2) == [[0, 1, 3, 4, 5], [2]]
        assert sweep_waves(cells, width=3) == [[0, 1, 2, 3, 4, 5]]

    @pytest.mark.parametrize("preset", sorted(builtin_presets()))
    def test_wave_width_follows_from_bytes(self, preset, monkeypatch):
        # one cliff strength per method fills a wave; a grid or two-goals
        # sweep fits in one
        cfg = builtin_presets()[preset]
        ctx = harness._replication_context(cfg, resolve_mdp(cfg))
        calls = []
        real = harness.regularize
        monkeypatch.setattr(harness, "regularize", lambda *args: calls.append(args) or real(*args))
        harness._replication_metrics(ctx, 0)
        assert len(calls) == (21 if cfg.mdp == "cliff" else 1)
        assert sum(len(args[2]) for args in calls) == len(ctx.cells) == 53

    def test_waves_match_cell_by_cell_replication(self):
        # per-cell reference: regularize, plan warm-started from the method's
        # previous cell, evaluate in the true MDP; the waves give the same bits
        # (on grid all cells share one wave and start cold)
        cfg = tiny_config(methods=("eps_greedy", "none", "dirichlet", "discount"),
                          collection=CollectionConfig(3, 6, 0.0, StartMode.fixed(0)))
        mdp = resolve_mdp(cfg)
        ctx = harness._replication_context(cfg, mdp)
        true_problem, pi_opt, v_opt, cells = ctx.true_problem, ctx.pi_opt, ctx.v_opt, ctx.cells
        for rep in range(3):
            got = np.stack(harness._replication_metrics(ctx, rep))
            data = generate_dataset(mdp, pi_opt, cfg.collection, child_seed(cfg.master_seed, rep))
            counts = count(data, mdp.n_states, mdp.n_actions)
            est = mle_model(counts)
            warm = {}
            for i, (method, strength) in enumerate(cells):
                reg = regularize(est, counts, method, strength, mdp.gamma)
                policy, _ = policy_iteration(PlanningProblem.from_regularized(reg),
                                             initial_policy=warm.get(method))
                warm[method] = policy
                v = policy_evaluation(true_problem, policy)
                mse = transition_mse(mdp.transition, reg)
                want = (np.dot(ctx.start_dist, v_opt - v), mse.mse_plain, mse.mse_absorbing)
                assert tuple(got[:, i]) == want, (rep, method, strength)


class TestMleBaseline:
    def test_huge_dataset_drives_loss_to_zero(self):
        # consistency of the MLE: with every pair visited thousands of times
        # the unregularized plan recovers the optimal policy
        cfg = tiny_config(methods=("none",), collection=CollectionConfig(100, 1000),
                          replications=1)
        rows = run_experiment(cfg)
        mdp = resolve_mdp(cfg)
        from mdpreg import PlanningProblem, policy_evaluation, policy_iteration
        problem = PlanningProblem.from_mdp(mdp)
        pi_opt, _ = policy_iteration(problem)
        scale = np.abs(policy_evaluation(problem, pi_opt)).max()
        assert rows[0].mean_loss < 0.01 * scale


class TestPresets:
    def test_caption_sizes(self):
        presets = builtin_presets()
        assert presets["cliff-random"].collection.n_trajectories == 25
        assert presets["cliff-random"].collection.trajectory_length == 20
        assert presets["grid-random"].collection.n_trajectories == 15
        assert presets["grid-random"].collection.trajectory_length == 10
        assert presets["twogoals-random"].collection.trajectory_length == 10

    def test_all_presets_validate(self):
        for name, cfg in builtin_presets().items():
            assert validate_experiment_config(cfg) == [], name

    def test_replications_default_to_5000(self):
        assert all(cfg.replications == 5000 for cfg in builtin_presets().values())

    def test_behavior_and_start_variants_exist(self):
        names = set(builtin_presets())
        for env in ("cliff", "twogoals", "grid"):
            for suffix in ("random", "mixed", "optimal"):
                assert f"{env}-{suffix}" in names
        assert {"cliff-start-s", "cliff-start-neargoal", "twogoals-start-small",
                "twogoals-start-large", "grid-start-limited",
                "grid-start-single"} <= names


class TestEmit:
    def test_csv_golden_header_and_row_count(self, tmp_path):
        rows = run_experiment(tiny_config(replications=2))
        path = tmp_path / "out.csv"
        emit_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == ("method,strength,mean_loss,stderr_loss,mean_mse_plain,"
                            "mean_mse_absorbing,replications,config_hash")
        assert len(lines) == 1 + len(rows)

    def test_single_row_gives_two_line_csv(self, tmp_path):
        rows = run_experiment(tiny_config(methods=("none",), replications=1))
        path = tmp_path / "one.csv"
        emit_csv(rows, path)
        assert len(path.read_text().splitlines()) == 2

    def test_round_trip_recovers_values(self, tmp_path):
        rows = run_experiment(tiny_config(replications=3))
        path = tmp_path / "rt.csv"
        emit_csv(rows, path)
        lines = path.read_text().splitlines()[1:]
        for line, row in zip(lines, rows):
            fields = line.split(",")
            assert fields[0] == row.method
            for got, want in zip(map(float, fields[1:6]),
                                 (row.strength, row.mean_loss, row.stderr_loss,
                                  row.mean_mse_plain, row.mean_mse_absorbing)):
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
            assert int(fields[6]) == row.replications
            assert fields[7] == row.config_hash

    def test_summary_is_sorted_by_method_and_strength(self):
        rows = run_experiment(tiny_config(replications=2))
        table = emit_summary(rows).splitlines()
        body = table[2:]
        methods = [line.split()[0] for line in body]
        assert methods == sorted(methods)

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "never.csv")
        with pytest.raises(ValueError):
            emit_summary([])


class TestConfigFile:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("""{
            "mdp": "two_goals",
            "gamma": 0.9,
            "methods": ["discount", "none"],
            "eps_grid": [0.0, 0.25, 0.5],
            "magnitude_grid": [0.0],
            "collection": {"n_trajectories": 4, "trajectory_length": 6,
                           "p_optimal": 0.5, "start_mode": {"fixed": 3}},
            "replications": 2,
            "master_seed": 11,
            "workers": 1
        }""")
        cfg = load_experiment_config(path)
        assert cfg.mdp == "two_goals"
        assert cfg.gamma == 0.9
        assert cfg.methods == ("discount", "none")
        assert cfg.collection.start_mode == StartMode.fixed(3)
        rows = run_experiment(cfg)
        assert len(rows) == 4

    def test_defaults_fill_missing_fields(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"mdp": "grid", "collection":'
                        ' {"n_trajectories": 3, "trajectory_length": 5}}')
        cfg = load_experiment_config(path)
        assert cfg.replications == 5000
        assert len(cfg.eps_grid) == 21
        assert cfg.collection.start_mode == StartMode.uniform()

    def test_negative_zero_strength_is_zero(self, tmp_path):
        # -0.0 and 0.0 run the same cells: same strength column, hash and bytes
        cfgs, csvs = [], []
        for zero in (-0.0, 0.0):
            path, out = tmp_path / "exp.json", tmp_path / f"rows{len(csvs)}.csv"
            path.write_text(json.dumps({
                "mdp": "grid", "eps_grid": [zero, 0.5], "magnitude_grid": [zero, 10.0],
                "collection": {"n_trajectories": 3, "trajectory_length": 5},
                "replications": 2}))
            cfgs.append(load_experiment_config(path))
            emit_csv(run_experiment(cfgs[-1]), out)
            csvs.append(out.read_text())
        assert config_hash(cfgs[0]) == config_hash(cfgs[1])
        strengths = [line.split(",")[1] for line in csvs[0].splitlines()[1:]]
        assert strengths.count("0") == 3 and not any(s.startswith("-") for s in strengths)
        assert csvs[0] == csvs[1]

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"mdp": "grid", "collection": {"n_trajectories": 3,'
                        ' "trajectory_length": 5}, "epsilon_grid": [0.1]}')
        with pytest.raises(ConfigError, match="epsilon_grid"):
            load_experiment_config(path)

    def test_missing_required_field_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"collection": {"n_trajectories": 3, "trajectory_length": 5}}')
        with pytest.raises(ConfigError, match="mdp"):
            load_experiment_config(path)

    def test_bad_start_mode_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"mdp": "grid", "collection": {"n_trajectories": 3,'
                        ' "trajectory_length": 5, "start_mode": {"weird": 1}}}')
        with pytest.raises(ConfigError, match="start_mode"):
            load_experiment_config(path)

    @pytest.mark.parametrize("field, value", [
        ("mdp", 5),
        ("methods", "discount"),
        ("methods", ["discount", 3]),
        ("eps_grid", ["x"]),
        ("eps_grid", 0.5),
        ("magnitude_grid", [1.0, None]),
        ("magnitude_grid", [float("nan")]),
        ("replications", "abc"),
        ("replications", 2.5),
        ("master_seed", True),
        ("gamma", "0.9"),
        ("gamma", 10 ** 400),  # an int too large for a float
        ("eps_grid", [0.5, -10 ** 400]),
        ("out", 7),
        ("workers", [2]),
    ])
    def test_wrong_field_type_is_a_config_error(self, tmp_path, field, value):
        doc = {"mdp": "grid", "collection": {"n_trajectories": 3, "trajectory_length": 5},
               field: value}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert len(err.value.problems) == 1
        assert err.value.problems[0].startswith(f"{field} must be")

    @pytest.mark.parametrize("field, value", [
        ("n_trajectories", "3"),
        ("trajectory_length", None),
        ("p_optimal", "half"),
        ("p_optimal", 10 ** 400),
        ("start_mode", {"fixed": "a"}),
        ("start_mode", {"set": ["a"]}),
    ])
    def test_wrong_collection_field_type_is_a_config_error(self, tmp_path, field, value):
        coll = {"n_trajectories": 3, "trajectory_length": 5, field: value}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"mdp": "grid", "collection": coll}))
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert len(err.value.problems) == 1
        assert err.value.problems[0].startswith(f"collection.{field} must be")

    def test_every_problem_is_reported(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "mdp": "grid", "collection": [], "replications": "abc",
            "eps_grid": ["x"], "extra": 1}))
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        problems = err.value.problems
        assert len(problems) == 4
        assert any("extra" in p for p in problems)
        assert any(p.startswith("collection must be") for p in problems)
        assert any(p.startswith("replications must be an integer") for p in problems)
        assert any(p.startswith("eps_grid must be") for p in problems)

    def test_every_range_problem_is_reported(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "mdp": "grid", "collection": {"n_trajectories": 3, "trajectory_length": 5},
            "replications": 0, "workers": 0, "eps_grid": [2.0]}))
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert err.value.problems == ["eps value 2.0 outside [0, 1]",
                                      "replications must be >= 1", "workers must be >= 1"]

    def test_override_helper(self):
        cfg = override(tiny_config(), master_seed=1, replications=2, out="o.csv",
                       workers=3)
        assert (cfg.master_seed, cfg.replications, cfg.out, cfg.workers) == \
            (1, 2, "o.csv", 3)
