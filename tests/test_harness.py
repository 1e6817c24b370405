import json
import math
import multiprocessing
import os
import signal
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace

import numpy as np
import pytest

import mdpreg.harness as harness
import mdpreg.planning as planning
from mdpreg import (CollectionConfig, ConfigError, ExperimentConfig, StartMode,
                    builtin_presets, config_hash, emit_csv, emit_summary,
                    load_experiment_config, run_experiment, save_mdp_spec,
                    build_two_goals, count, generate_dataset, mle_model,
                    policy_evaluation, regularize, transition_mse)
from mdpreg.harness import CSV_HEADER, override, resolve_mdp, sweep_cells
from mdpreg.planning import (PlanningProblem, PolicyIterationError, policy_iteration,
                             q_from_values)
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


class InProcessPool:
    """A stand-in for the process pool that maps in this process: no process
    starts, and patches of mdpreg's modules reach the work."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def map(self, fn, items, chunksize):
        return map(fn, items)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestConfig:
    def test_valid_config_has_no_problems(self):
        cfg = tiny_config()
        assert replace(cfg) == cfg

    def test_problems_are_collected_not_raised_one_by_one(self):
        with pytest.raises(ConfigError) as err:
            tiny_config(methods=("dirichlet", "ridge"), eps_grid=(2.0,), replications=0)
        assert err.value.problems == ["unknown method 'ridge'", "eps value 2.0 outside [0, 1]",
                                      "replications must be >= 1"]

    @pytest.mark.parametrize("field, value, problem", [
        ("replications", 0, "replications must be >= 1"),
        ("workers", 0, "workers must be >= 1"),
        ("master_seed", 2 ** 64, "master_seed must fit in 64 bits"),
        ("gamma", 1.0, "gamma override 1.0 outside [0, 1)"),
        ("methods", (), "methods list is empty"),
        ("eps_grid", (0.5, 0.5), "eps_grid has duplicate values"),
    ])
    def test_replace_rejects_a_bad_value_where_it_is_set(self, field, value, problem):
        with pytest.raises(ConfigError) as err:
            replace(tiny_config(), **{field: value})
        assert err.value.problems == [problem]

    @pytest.mark.parametrize("build, problems", [
        (lambda: tiny_config(replications="3", magnitude_grid=(-1.0,)),
         ["replications must be an integer, got '3'"]),
        (lambda: tiny_config(methods="discount", magnitude_grid=(-1.0,)),
         ["methods must be a tuple or list of strings, got 'discount'"]),
        (lambda: tiny_config(master_seed=1.5, workers=2.0, magnitude_grid=(-1.0,)),
         ["master_seed must be an integer, got 1.5", "workers must be an integer, got 2.0"]),
        (lambda: tiny_config(workers=True, gamma="0.9", out=7, magnitude_grid=(-1.0,)),
         ["workers must be an integer, got True",
          "gamma must be a real number or None, got '0.9'",
          "out must be a string or None, got 7"]),
        (lambda: tiny_config(mdp=None, collection=(5, 8), eps_grid=(0.5, 10 ** 400),
                             magnitude_grid=(-1.0,)),
         ["mdp must be a string, got None", "collection must be a CollectionConfig, got (5, 8)",
          f"eps_grid must be a tuple or list of real numbers, got (0.5, {10 ** 400})"]),
        (lambda: CollectionConfig("3", 5), ["n_trajectories must be an integer, got '3'"]),
        (lambda: CollectionConfig(0, False, "0.5", "uniform"),
         ["trajectory_length must be an integer, got False",
          "p_optimal must be a real number, got '0.5'",
          "start_mode must be a StartMode, got 'uniform'"]),
    ], ids=["replications", "methods", "seed-workers", "bool-gamma-out", "mdp-collection-grid",
            "collection", "collection-fields"])
    def test_wrong_types_are_reported_before_any_range_check(self, build, problems):
        # the out-of-range values beside them (magnitude -1, n_trajectories 0)
        # are not reported: their checks would fail on the wrong types
        with pytest.raises(ConfigError) as err:
            build()
        assert err.value.problems == problems

    def test_numpy_numbers_become_python_numbers(self):
        cfg = tiny_config(replications=np.int64(6), master_seed=np.uint64(777),
                          workers=np.int8(1), gamma=np.float32(0.5),
                          methods=["dirichlet", "discount", "eps_greedy", "none"],
                          eps_grid=[np.float32(0.0), np.float64(0.5)], magnitude_grid=(0, 10),
                          collection=CollectionConfig(np.int32(5), np.int64(8), np.float16(0)))
        want = tiny_config(gamma=0.5)
        assert cfg == want and config_hash(cfg) == config_hash(want)
        for got, ref in zip(vars(cfg).values(), vars(want).values()):
            assert type(got) is type(ref)
        assert [type(v) for v in vars(cfg.collection).values()] == [int, int, float, StartMode]

    def test_override_reports_every_bad_value_at_once(self):
        with pytest.raises(ConfigError) as err:
            override(tiny_config(), replications=0, workers=0)
        assert err.value.problems == ["replications must be >= 1", "workers must be >= 1"]

    def test_run_rejects_invalid_config_before_work(self):
        with pytest.raises(ConfigError):
            run_experiment(tiny_config(replications=0))

    def test_non_finite_magnitudes_rejected_before_work(self):
        # JSON files reach this too: Python's json reads NaN, Infinity and -Infinity
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
        (64, 100, 4, 4, 25),   # nor than CPUs; a task is one block of a worker's share
        (2, 6, 1, None, None),  # one CPU runs serially: no pool at all
        (2, 6, None, None, None),  # an unknown CPU count counts as one
        (2, 32, 2, 2, 16),     # two workers on two CPUs keep their pool
    ])
    def test_pool_size_is_capped(self, monkeypatch, workers, replications, cpus, pool,
                                 chunk):
        # a pool that records its size and the replications per task (its
        # items are blocks of replications)
        made = []

        class FakePool(InProcessPool):
            def __init__(self, max_workers):
                made.append([max_workers])

            def map(self, fn, items, chunksize):
                made[-1].append(chunksize * len(items[0]))
                return super().map(fn, items, chunksize)

        cfg = tiny_config(workers=workers, replications=replications)
        serial = run_experiment(override(cfg, workers=1))
        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        assert run_experiment(cfg) == serial
        assert made == ([] if pool is None else [[pool, chunk]])

    # harness.policy_iteration calls of 20 replications at seed 1729: one for
    # the true MDP, then one per wave of each block. Serially a block holds the
    # whole run: cliff plans 53 waves of one cell, two goals 4 and grid 3. On 2
    # workers a block is one worker's share, 10: cliff plans 53 waves per block,
    # two goals 2 and grid 2. Where the byte cap binds (7 replications here),
    # the serial run and the pool plan the same blocks, 7, 7 and 6: cliff in 27
    # waves of two cells each, two goals in 2 and grid in 1.
    @pytest.mark.parametrize("preset", ["cliff-random", "twogoals-random", "grid-random"])
    def test_pooled_runs_plan_in_the_serial_runs_blocks(self, monkeypatch, preset):
        calls = {"cliff-random": (54, 107, 82), "twogoals-random": (5, 5, 7),
                 "grid-random": (4, 5, 4)}[preset]
        # in-process, so the wrapped policy_iteration counts the pool's calls too
        made = []
        real = harness.policy_iteration
        monkeypatch.setattr(harness, "policy_iteration",
                            lambda *a, **k: made.append(1) or real(*a, **k))
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        cfg = replace(builtin_presets()[preset], replications=20, master_seed=1729)
        serial = run_experiment(cfg)
        assert len(made) == calls[0]
        made.clear()
        assert run_experiment(replace(cfg, workers=2)) == serial
        assert len(made) == calls[1]
        monkeypatch.setattr(harness, "_BLOCK_BYTES", 7 * resolve_mdp(cfg).transition.nbytes)
        for workers in (1, 2):
            made.clear()
            assert run_experiment(replace(cfg, workers=workers)) == serial
            assert len(made) == calls[2]

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
        # replication 0's worker exits outright. 32 replications on 2 workers
        # run in blocks of one worker's share, 16 (the tiny config's block by
        # bytes is larger), and a task of 32 // (2 * 8) = 2 replications would
        # split a block, so a task is one whole block: nothing precedes
        # replication 0 and its chunk is 0-15
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
                                               rf" replications 0-15\) was not received"):
            run_experiment(tiny_config(workers=2, replications=32))

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="pool workers see the patched harness only when forked")
    def test_pool_worker_death_names_the_first_missing_block_of_uneven_blocks(self,
                                                                               monkeypatch):
        # 13 replications on 2 workers in blocks of at most 3: 3, 3, 3, 2, 2,
        # two blocks per task (13 // 2 // 3), so the tasks are 0-5, 6-10 and
        # 11-12. Replication 11's worker exits once the first four blocks have
        # been received: the fifth block, 11-12, is the first missing one, and
        # it is a task of its own
        cfg = tiny_config(workers=2, replications=13)
        monkeypatch.setattr(harness, "_BLOCK_BYTES", 3 * resolve_mdp(cfg).transition.nbytes)
        monkeypatch.setattr(harness, "_TASKS_PER_WORKER", 1)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        received = multiprocessing.Event()  # set in this process, seen by the forked workers
        real = harness.generate_dataset
        seed = child_seed(cfg.master_seed, 11)

        def dying(mdp, optimal, collection, master_seed):
            if master_seed == seed:
                received.wait(60)
                os._exit(1)
            return real(mdp, optimal, collection, master_seed)

        class SignallingPool(ProcessPoolExecutor):
            def map(self, fn, items, chunksize):
                assert [len(b) for b in items] == [3, 3, 3, 2, 2] and chunksize == 2
                for i, result in enumerate(super().map(fn, items, chunksize=chunksize)):
                    if i == 3:  # the run holds this result before it asks for the next
                        received.set()
                    yield result

        harness._drop_pool()  # a reused pool would rerun the lost blocks once
        monkeypatch.setattr(harness, "generate_dataset", dying)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", SignallingPool)
        with pytest.raises(harness.ReplicationError,
                           match=rf"^replication 11 \(child seed {seed}, chunk of"
                                 rf" replications 11-12\) was not received"):
            run_experiment(cfg)
        assert harness._pool is None

    def test_non_convergence_names_the_cell(self, monkeypatch):
        # one block of all six replications plans grid's seven cells in one
        # wave; flat problem i of it is replication i // 7, cell i % 7
        cfg = tiny_config()
        for problem, rep, cell in ((1, 0, 1),    # the first replication's second cell
                                   (10, 1, 3)):  # the second replication's fourth cell
            def stuck(stack, initial_policy=None):
                if stack.t.ndim == 5:  # a block's wave; the true-MDP solve is unstacked
                    assert stack.t.shape[:2] == (6, 7)  # (replications, cells)
                    raise PolicyIterationError([problem, 2 * 7 + 5])  # and replication 2's
                return policy_iteration(stack)

            monkeypatch.setattr(harness, "policy_iteration", stuck)
            method, strength = sweep_cells(cfg)[cell]
            seed = child_seed(cfg.master_seed, rep)
            with pytest.raises(harness.ReplicationError,
                               match=rf"^replication {rep} \(child seed {seed}\) failed:"
                                     rf" .* at cell\(s\) \({method}, {strength:g}\)$"):
                run_experiment(cfg)

    def test_a_bad_cell_names_the_blocks_first_replication(self):
        # the blend of a wave fails for every replication of its block at once
        cfg = tiny_config()
        ctx = replace(harness._replication_context(cfg, resolve_mdp(cfg)),
                      cells=(("discount", 2.0),))
        seed = child_seed(cfg.master_seed, 3)
        with pytest.raises(harness.ReplicationError,
                           match=rf"^replication 3 \(child seed {seed}\) failed: strength 2"):
            harness._block_task(ctx, range(3, 6))

    def test_a_scoring_failure_names_the_blocks_first_replication(self, monkeypatch):
        # on grid one true-MDP solve scores the whole block; no real run fails
        # there, as the true MDP's I - gamma * T_pi is nonsingular
        cfg = tiny_config()
        ctx = harness._replication_context(cfg, resolve_mdp(cfg))
        calls = []

        def singular(problem, policy):
            calls.append(policy.shape)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(harness, "policy_evaluation", singular)
        seed = child_seed(cfg.master_seed, 3)
        with pytest.raises(harness.ReplicationError,
                           match=rf"^replication 3 \(child seed {seed}\) failed: Singular"):
            harness._block_task(ctx, range(3, 6))
        # every distinct policy of the three replications, in one call
        assert len(calls) == 1 and calls[0][1:] == (ctx.mdp.n_states,)


class TestSharedPool:
    """Pooled runs in one process share one executor while their size holds."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """Starts and shutdowns of the executors the harness makes, in order;
        real executors, so the work really runs in worker processes."""
        events = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                self.size = max_workers
                events.append(("start", max_workers))

            def shutdown(self, wait=True, *, cancel_futures=False):
                events.append(("shutdown", self.size, wait))
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        return events

    def test_pooled_runs_of_one_size_share_an_executor(self, pools):
        serial = run_experiment(tiny_config())
        assert run_experiment(tiny_config(workers=2)) == serial
        assert run_experiment(tiny_config(workers=2)) == serial
        assert pools == [("start", 2)]

    def test_another_size_shuts_the_old_executor_down_first(self, pools):
        run_experiment(tiny_config(workers=2))
        assert run_experiment(tiny_config(workers=3)) == run_experiment(tiny_config())
        assert pools == [("start", 2), ("shutdown", 2, True), ("start", 3)]

    def test_a_pool_made_by_another_process_is_never_reused(self, pools):
        run_experiment(tiny_config(workers=2))
        inherited, size, _ = harness._pool
        harness._pool = (inherited, size, -1)  # as a forked child sees its parent's pool
        try:
            assert run_experiment(tiny_config(workers=2)) == run_experiment(tiny_config())
            assert harness._pool[0] is not inherited
            assert pools == [("start", 2), ("start", 2)]  # and never shut it down
        finally:
            inherited.shutdown()

    def test_a_worker_killed_while_idle_does_not_fail_the_next_run(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        serial = run_experiment(tiny_config())
        assert run_experiment(tiny_config(workers=2)) == serial
        os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
        assert run_experiment(tiny_config(workers=2)) == serial

    def test_a_failed_replication_drops_the_pool(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        run_experiment(tiny_config(workers=2))
        # the already forked workers receive the bad cell in the pickled context
        real = harness._replication_context
        monkeypatch.setattr(harness, "_replication_context",
                            lambda cfg, mdp: replace(real(cfg, mdp), cells=(("discount", 2.0),)))
        with pytest.raises(harness.ReplicationError,
                           match=r"replication 0 \(child seed \d+\) failed: strength 2"):
            run_experiment(tiny_config(workers=2))
        assert harness._pool is None

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="pool workers see the patched harness only when forked")
    def test_the_run_after_a_worker_death_returns_the_serial_rows(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        serial = run_experiment(tiny_config())
        real = harness.generate_dataset
        seed = child_seed(777, 0)

        def dying(mdp, optimal, cfg, master_seed):
            if master_seed == seed:
                os._exit(1)
            return real(mdp, optimal, cfg, master_seed)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "generate_dataset", dying)
            with pytest.raises(harness.ReplicationError, match="was not received"):
                run_experiment(tiny_config(workers=2))
        assert harness._pool is None
        assert run_experiment(tiny_config(workers=2)) == serial


class TestWaves:
    @pytest.mark.parametrize("n, workers, cell, blocks", [
        (20, 1, 48 * 48 * 4 * 8, [20]),          # a serial cliff run: one block
        (20, 2, 48 * 48 * 4 * 8, [10, 10]),      # one worker's share each
        (5, 2, 2400, [3, 2]),                    # the larger block first
        (100, 1, 48 * 48 * 4 * 8, [25] * 4),     # 28 by bytes: four equal blocks
        (5000, 2, 48 * 48 * 4 * 8, [28] * 167 + [27] * 12),  # the paper sweep on cliff
        (5000, 2, 2400, [834] * 2 + [833] * 4),  # grid: 873 by bytes
        (7, 1, 1 << 30, [1] * 7),                # a cell over the cap: blocks of one
        (1, 4, 2400, [1]),
    ])
    def test_blocks_split_the_run_into_equal_blocks(self, n, workers, cell, blocks):
        got = harness._blocks(n, workers, cell)
        assert [len(b) for b in got] == blocks
        assert [b.start for b in got] == [sum(blocks[:i]) for i in range(len(blocks))]
        assert max(blocks) <= max(1, min(-(-n // workers), harness._BLOCK_BYTES // cell))
        assert max(blocks) * cell <= max(cell, harness._BLOCK_BYTES)

    @pytest.mark.parametrize("preset", sorted(builtin_presets()))
    def test_wave_width_follows_from_bytes(self, preset, monkeypatch):
        # a serial run of 20 replications plans them as one block; its waves
        # stack at most _WAVE_BYTES: one cliff cell (20 x 74 KB), 15 two-goals
        # cells (20 x 3.5 KB) or 21 grid cells (20 x 2.4 KB). A cliff block of 4
        # (big-batch's) plans three cells per wave
        cfg = builtin_presets()[preset]
        ctx = harness._replication_context(cfg, resolve_mdp(cfg))
        cell = ctx.mdp.transition.nbytes
        assert [len(b) for b in harness._blocks(20, 1, cell)] == [20]
        blends, plans = [], []
        blend, plan = harness.regularize, harness.policy_iteration
        monkeypatch.setattr(harness, "regularize", lambda *a: blends.append(a) or blend(*a))
        monkeypatch.setattr(harness, "policy_iteration",
                            lambda *a, **k: plans.append(a) or plan(*a, **k))
        for reps, width in ((20, {"cliff": 1, "two_goals": 15, "grid": 21}[cfg.mdp]),
                            (4, {"cliff": 3, "two_goals": 53, "grid": 53}[cfg.mdp])):
            blends.clear(), plans.clear()
            harness._block_task(ctx, range(reps))
            assert width * reps * cell <= max(reps * cell, harness._WAVE_BYTES)
            assert len(blends) == len(plans) == -(-len(ctx.cells) // width)
            # wave j is cells jw .. jw + w - 1 of the sweep, across method boundaries
            assert [list(zip(*args[2:4])) for args in blends] == [
                list(ctx.cells[i:i + width]) for i in range(0, len(ctx.cells), width)]
            assert {args[0].t_hat.shape[0] for args in blends} == {reps}
        assert len(ctx.cells) == 53

    # (calls, LU matrices) of the stacked solves inside policy iteration, then
    # of the true-MDP evaluations, over the blocks a serial run of 20
    # replications at seed 1729 plans: one block of 20, each cliff cell planned
    # in the wave after the one it starts from. The comments give the counts
    # of the earlier layout, blocks of 4, 5 or 8 replications (cliff, two
    # goals, grid) with three cliff cells per wave: cliff now plans fewer LU
    # matrices on every preset, grid-optimal 42 more
    @pytest.mark.parametrize("preset, planning_work, true_work", [
        ("cliff-random", (122, 1663), (9, 481)),      # (223, 1914), (11, 481)
        ("grid-random", (8, 1605), (1, 76)),          # (9, 1645), (3, 77)
        ("twogoals-mixed", (19, 2276), (1, 268)),     # (22, 2293), (4, 268)
        ("grid-optimal", (7, 1237), (1, 9)),          # (6, 1195), (3, 15)
        ("twogoals-optimal", (5, 1183), (1, 3)),      # (8, 1337), (4, 9)
        ("cliff-mixed", (109, 1516), (7, 350)),       # (203, 1744), (9, 350)
        ("cliff-start-s", (109, 1444), (6, 296)),     # (192, 1625), (9, 297)
        ("cliff-optimal", (55, 1100), (1, 1)),        # (100, 1180), (5, 5)
    ])
    def test_counted_solves_do_not_grow(self, preset, planning_work, true_work, monkeypatch):
        # exact counts: a change that adds solve calls or LU matrices fails here,
        # while a timing on a shared host cannot resolve a few percent
        cfg = replace(builtin_presets()[preset], master_seed=1729, replications=20)
        ctx = harness._replication_context(cfg, resolve_mdp(cfg))
        work = {"planning": [0, 0], "true": [0, 0]}

        def counting(real, key):
            def evaluate(problem, *args):
                v = real(problem, *args)
                work[key][0] += 1
                work[key][1] += v.size // problem.n_states
                return v
            return evaluate

        monkeypatch.setattr(planning, "policy_evaluation",
                            counting(planning.policy_evaluation, "planning"))
        monkeypatch.setattr(harness, "policy_evaluation",
                            counting(harness.policy_evaluation, "true"))
        for block in harness._blocks(cfg.replications, cfg.workers, ctx.mdp.transition.nbytes):
            harness._block_task(ctx, block)
        assert (tuple(work["planning"]), tuple(work["true"])) == (planning_work, true_work)

    def test_scoring_gathers_at_most_wave_bytes(self, monkeypatch):
        # a cliff block of 20 chooses some 480 distinct policies; one solve of
        # them all would gather 8.8 MB of 48 x 48 T_pi matrices
        cfg = replace(builtin_presets()["cliff-random"], master_seed=1729)
        ctx = harness._replication_context(cfg, resolve_mdp(cfg))
        sizes, evaluate = [], harness.policy_evaluation
        monkeypatch.setattr(harness, "policy_evaluation",
                            lambda problem, policy: sizes.append(len(policy))
                            or evaluate(problem, policy))
        block = harness._block_task(ctx, range(20))
        assert len(sizes) > 1 and max(sizes) <= harness._WAVE_BYTES // (48 * 48 * 8)
        monkeypatch.setattr(harness, "_WAVE_BYTES", 2 ** 60)  # one wave, one solve per block
        np.testing.assert_array_equal(harness._block_task(ctx, range(20)), block)
        assert sizes[-1] == sum(sizes[:-1])

    def test_a_cliff_block_of_20_keeps_its_peak_within_three_cell_stacks(self):
        # a block holds its MLE stack and one wave's blended stack, 20 cliff
        # matrices each (1.5 MB), and the temporaries of one step beside them:
        # a stack of its (R, N, A, N) counts or a second wave would not fit
        cfg = replace(builtin_presets()["cliff-random"], master_seed=1729)
        ctx = harness._replication_context(cfg, resolve_mdp(cfg))
        harness._block_task(ctx, range(20))  # caches, imports and buffers of the first call
        tracemalloc.start()
        try:
            harness._block_task(ctx, range(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 20 * ctx.mdp.transition.nbytes

    def test_every_problem_starts_from_the_nearest_solved_one(self, monkeypatch):
        # dirichlet 0-1000 are cells 0-10, discount 0-1 cells 11-31 and
        # eps_greedy 0-1 cells 32-52. A cliff block of 20 plans one cell per
        # wave, a block of 4 three
        cfg = replace(builtin_presets()["cliff-random"], master_seed=1729)
        mdp = resolve_mdp(cfg)
        ctx = harness._replication_context(cfg, mdp)
        assert ctx.cells[11] == ("discount", 0.0) and ctx.cells[32] == ("eps_greedy", 0.0)
        waves, sweeps = [], []  # (initial policy, policy, each sweep's problems) per wave
        plan, evaluate = harness.policy_iteration, planning.policy_evaluation

        def planning_wave(problem, initial_policy):
            sweeps.clear()
            policy = plan(problem, initial_policy)[0]
            waves.append((initial_policy.copy(), policy, list(sweeps)))
            return policy, None

        monkeypatch.setattr(harness, "policy_iteration", planning_wave)
        monkeypatch.setattr(planning, "policy_evaluation",
                            lambda problem, policy, problems=None: sweeps.append(problems)
                            or evaluate(problem, policy, problems))
        for reps, width in ((range(20), 1), (range(4), 3)):
            waves.clear()
            harness._block_task(ctx, reps)
            assert len(waves) == -(-53 // width)
            # each problem of wave 0 starts from its own greedy policy under the true values
            for rep, initial in zip(reps, waves[0][0]):
                data = generate_dataset(mdp, ctx.pi_opt, cfg.collection,
                                        child_seed(cfg.master_seed, rep))
                counts = count(data, mdp.n_states, mdp.n_actions)
                est = mle_model(counts)
                for cell, (method, strength) in enumerate(ctx.cells[:width]):
                    reg = regularize(est, counts, method, strength, mdp.gamma)
                    q = q_from_values(PlanningProblem(reg.t_reg, reg.r_hat, reg.gamma),
                                      ctx.v_opt)
                    np.testing.assert_array_equal(initial[cell], q.argmax(axis=-1), (rep, cell))
            dirichlet_0 = waves[0][1][:, 0]
            for j, (initial, _, solved) in enumerate(waves[1:], start=1):
                # the previous wave's last policy starts each cell of a later wave
                mle = {11 // width: 11 % width, 32 // width: 32 % width}.get(j)  # dis0 or eps0
                others = [c for c in range(initial.shape[1]) if c != mle]
                np.testing.assert_array_equal(
                    initial[:, others], np.repeat(waves[j - 1][1][:, -1:], len(others), 1))
                if mle is not None:
                    # the MLE problem again: it starts from dirichlet 0 and takes one sweep
                    np.testing.assert_array_equal(initial[:, mle], dirichlet_0)
                    flat = [width * r + mle for r in range(len(reps))]
                    assert [sum(i in active for active in solved) for i in flat] == [1] * len(reps)

    def test_waves_match_cell_by_cell_replication(self):
        # per-cell reference: regularize, plan warm-started from the method's
        # previous cell, evaluate in the true MDP; the waves of a block of three
        # replications give the same bits (on grid all cells share one wave and
        # each starts from its own problem's lookahead under the true values)
        cfg = tiny_config(methods=("eps_greedy", "none", "dirichlet", "discount"),
                          collection=CollectionConfig(3, 6, 0.0, StartMode.fixed(0)))
        mdp = resolve_mdp(cfg)
        ctx = harness._replication_context(cfg, mdp)
        true_problem, pi_opt, v_opt, cells = ctx.true_problem, ctx.pi_opt, ctx.v_opt, ctx.cells
        block = harness._block_task(ctx, range(3))
        assert block.shape == (3, 3, len(cells))  # (metric, replication, cell)
        for rep in range(3):
            got = block[:, rep]
            data = generate_dataset(mdp, pi_opt, cfg.collection, child_seed(cfg.master_seed, rep))
            counts = count(data, mdp.n_states, mdp.n_actions)
            est = mle_model(counts)
            warm = {}
            for i, (method, strength) in enumerate(cells):
                reg = regularize(est, counts, method, strength, mdp.gamma)
                policy, _ = policy_iteration(PlanningProblem(reg.t_reg, reg.r_hat, reg.gamma),
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
            assert replace(cfg) == cfg, name

    def test_every_preset_round_trips_through_json(self, tmp_path):
        for name, cfg in builtin_presets().items():
            doc = asdict(cfg)
            kind, states = cfg.collection.start_mode.kind, cfg.collection.start_mode.states
            doc["collection"]["start_mode"] = ("uniform" if kind == "uniform" else
                                               {"fixed": states[0]} if kind == "fixed" else
                                               {"set": list(states)})
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            loaded = load_experiment_config(path)
            assert loaded == cfg and config_hash(loaded) == config_hash(cfg), name

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
        [problem] = err.value.problems
        if json.dumps(value) == "[NaN]":  # a real number: the range rule reports it
            assert problem == "prior magnitude nan is not finite"
        else:
            assert problem.startswith(f"{field} must be")

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
        # the loader checks the start_mode spelling, StartMode its states
        field = "start states" if field == "start_mode" else field
        assert err.value.problems[0].startswith(f"{field} must be")

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

    def test_problems_of_every_part_are_reported_together(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "mdp": "grid", "master_seed": -1,
            "collection": {"n_trajectories": 3, "trajectory_length": 5, "p_optimal": -math.inf}}))
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert err.value.problems == ["p_optimal must be in [0, 1], got -inf",
                                      "master_seed must fit in 64 bits"]

    @pytest.mark.parametrize("field, value, problem", [
        ("gamma", math.nan, "gamma override nan outside [0, 1)"),
        ("eps_grid", [math.inf], "eps value inf outside [0, 1]"),
        ("collection.p_optimal", -math.inf, "p_optimal must be in [0, 1], got -inf"),
    ])
    def test_json_nan_and_infinity_are_reported_once(self, tmp_path, field, value, problem):
        # Python's json writes and reads NaN, Infinity and -Infinity
        doc = {"mdp": "grid", "collection": {"n_trajectories": 3, "trajectory_length": 5}}
        *parent, key = field.split(".")
        (doc[parent[0]] if parent else doc)[key] = value
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_experiment_config(path)
        assert err.value.problems == [problem]

    def test_override_helper(self):
        cfg = override(tiny_config(), master_seed=1, replications=2, out="o.csv",
                       workers=3)
        assert (cfg.master_seed, cfg.replications, cfg.out, cfg.workers) == \
            (1, 2, "o.csv", 3)
