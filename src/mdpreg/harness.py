"""Monte-Carlo experiment engine: sweeps across methods, strengths, and seeds.

Replications run in blocks of consecutive indices, replication-major: a
block is at most one worker's share of the run and at most _BLOCK_BYTES of one
cell's matrices (28 cliff replications), and a run is split into blocks of
equal sizes within one, the larger first (_blocks). Each replication of a
block draws a dataset, counts it and fits its MLE model into the block's
(R, A, N, N) stack; only its (R, N, A) visit counts, which the Dirichlet
blend reads, stay beside the stack. The block then plans its (method,
strength) cells in waves: contiguous slices of the cells in output order, as
many per wave as keep the block's stack of blended matrices within
_WAVE_BYTES. So a cliff block of 20 plans one cell per wave (53 waves), and a
block of 4 three. Wave j of the block is one ``regularize``, one
``policy_iteration`` over the R * w problems and one ``transition_mse``;
true-MDP ``policy_evaluation`` calls, each gathering at most _WAVE_BYTES, then
score every distinct policy of the block into one (3, R, cells) array. Wave
0's problems start from their own greedy policies under the true optimal
values, a later problem from the nearest one its replication has solved
(_starts): with one cell per wave, the cell before it. A pool task holds
whole blocks. Rows aggregate mean and standard error across replications.
Replication r always uses child_seed(master_seed, r), each planning problem
takes the sweeps it would take alone, and aggregation always sums in
replication order, so results are bit-identical for any worker count and
block size. Pooled runs in one process share one process pool, started by the
first of them and kept while later runs ask for the same number of workers.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial

import numpy as np

from .data import (INTEGER, CollectionConfig, ConfigError, StartMode, check, check_types,
                   generate_dataset)
from .environments import (CLIFF_START, build_cliff_walk, build_interconnected_grid,
                           build_two_goals, cliff_near_goal_states, load_mdp_spec,
                           read_json_object)
from .estimation import EstimatedModel, count, mle_model
from .evaluation import transition_mse
from .mdp import TabularMdp, is_real
from .planning import (PlanningProblem, PolicyIterationError, policy_evaluation,
                       policy_iteration, q_from_values)
from .regularizers import METHODS, regularize
from .seeding import child_seed

DEFAULT_SEED = 1729
DEFAULT_REPLICATIONS = 5000
DEFAULT_EPS_GRID = tuple(i / 20 for i in range(21))
DEFAULT_MAGNITUDE_GRID = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)

# bytes of one cell's matrices over a block's replications: 28 cliff
# replications (74 KB each), 606 of two goals (3.5 KB), 873 of grid (2.4 KB)
_BLOCK_BYTES = 1 << 21
# bytes of blended matrices a block's wave may stack, and of T_pi matrices a
# true-MDP solve may gather: one cliff cell for a block of 20, three for a
# block of 4. Outputs depend on neither, so they are neither config fields nor
# hashed; they bound a block's memory
_WAVE_BYTES = 1 << 20
# pool tasks per worker: each task of a pooled run of n replications holds as
# many whole blocks as fit in n // (workers * _TASKS_PER_WORKER) of them (at
# least one block)
_TASKS_PER_WORKER = 8

# the dense example limited-start variant needs an explicit list of 5 states
GRID_LIMITED_STARTS = (0, 2, 4, 6, 8)

BUILTIN_MDPS = {"cliff": build_cliff_walk, "two_goals": build_two_goals,
                "grid": build_interconnected_grid}

CSV_HEADER = ("method,strength,mean_loss,stderr_loss,mean_mse_plain,"
              "mean_mse_absorbing,replications,config_hash")


class ReplicationError(RuntimeError):
    """A replication failed or was lost; the message names it and its child seed."""


_REALS = (lambda v: isinstance(v, (tuple, list)) and all(map(is_real, v)),
          "a tuple or list of real numbers")
# field -> (type check, expected type) of an ExperimentConfig
_CONFIG_TYPES = {
    "mdp": (lambda v: isinstance(v, str), "a string"),
    "collection": (lambda v: isinstance(v, CollectionConfig), "a CollectionConfig"),
    "methods": (lambda v: isinstance(v, (tuple, list)) and all(isinstance(m, str) for m in v),
                "a tuple or list of strings"),
    "eps_grid": _REALS, "magnitude_grid": _REALS,
    "replications": INTEGER, "master_seed": INTEGER, "workers": INTEGER,
    "gamma": (lambda v: v is None or is_real(v), "a real number or None"),
    "out": (lambda v: v is None or isinstance(v, str), "a string or None"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one sweep; load_experiment_config reads one
    from JSON (see README). Building one, ``replace`` included, is the one
    check of its fields: it raises ConfigError listing every wrongly typed
    field, or else every out-of-range one. The MDP it names and its start
    states are checked when a run resolves the MDP."""

    mdp: str                                   # builtin name or spec-file path
    collection: CollectionConfig
    methods: tuple[str, ...] = ("dirichlet", "discount", "eps_greedy")
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID
    magnitude_grid: tuple[float, ...] = DEFAULT_MAGNITUDE_GRID
    replications: int = DEFAULT_REPLICATIONS
    master_seed: int = DEFAULT_SEED
    gamma: float | None = None                 # override the MDP's discount
    out: str | None = None
    workers: int = 1

    def __post_init__(self):
        check_types(self, _CONFIG_TYPES)
        # numbers become Python ints and floats, and -0.0 == 0.0 runs the same
        # cells, so it must print and hash as 0.0 (x + 0.0 is never -0.0)
        for name in ("eps_grid", "magnitude_grid"):
            object.__setattr__(self, name, tuple(float(v) + 0.0 for v in getattr(self, name)))
        for name in ("replications", "master_seed", "workers"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.gamma is not None:
            object.__setattr__(self, "gamma", float(self.gamma) + 0.0)
        methods, eps, mags = self.methods, self.eps_grid, self.magnitude_grid
        check((
            (not methods, "methods list is empty"),
            *((m not in METHODS, f"unknown method {m!r}") for m in methods),
            (len(set(methods)) != len(methods), "methods list has duplicates"),
            ({"discount", "eps_greedy"} & set(methods) and not eps,
             "eps_grid is empty but a method sweeps eps"),
            ("dirichlet" in methods and not mags,
             "magnitude_grid is empty but dirichlet is requested"),
            *((not 0.0 <= e <= 1.0, f"eps value {e} outside [0, 1]") for e in eps),
            (len(set(eps)) != len(eps), "eps_grid has duplicate values"),
            *((not 0 <= m < np.inf,
               f"prior magnitude {m} is {'negative' if m < 0 else 'not finite'}") for m in mags),
            (len(set(mags)) != len(mags), "magnitude_grid has duplicate values"),
            (self.replications < 1, "replications must be >= 1"),
            (self.workers < 1, "workers must be >= 1"),
            (not 0 <= self.master_seed < 2 ** 64, "master_seed must fit in 64 bits"),
            (self.gamma is not None and not 0.0 <= self.gamma < 1.0,
             f"gamma override {self.gamma} outside [0, 1)"),
            (self.out == "", "out must not be an empty path"),
        ))


@dataclass(frozen=True)
class ResultRow:
    method: str
    strength: float
    mean_loss: float
    stderr_loss: float
    mean_mse_plain: float
    mean_mse_absorbing: float
    replications: int
    config_hash: str


def resolve_mdp(cfg: ExperimentConfig) -> TabularMdp:
    """Build a builtin MDP or load a spec file, applying any gamma override."""
    try:
        mdp = BUILTIN_MDPS[cfg.mdp]() if cfg.mdp in BUILTIN_MDPS else load_mdp_spec(cfg.mdp)
    except FileNotFoundError:
        raise ConfigError([f"mdp {cfg.mdp!r} is neither a builtin MDP"
                           f" ({', '.join(BUILTIN_MDPS)}) nor an existing file"]) from None
    return mdp if cfg.gamma is None else replace(mdp, gamma=cfg.gamma)


def sweep_cells(cfg: ExperimentConfig) -> list[tuple[str, float]]:
    """(method, strength) pairs in output order: config method order, grid order."""
    grids = {"dirichlet": cfg.magnitude_grid, "none": (0.0,)}  # the others sweep eps
    return [(m, s) for m in cfg.methods for s in grids.get(m, cfg.eps_grid)]


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable 12-hex-digit digest of everything that affects the results."""
    doc = {
        "mdp": cfg.mdp,
        "gamma": cfg.gamma,
        "methods": list(cfg.methods),
        "eps_grid": list(cfg.eps_grid),
        "magnitude_grid": list(cfg.magnitude_grid),
        "collection": {
            "n_trajectories": cfg.collection.n_trajectories,
            "trajectory_length": cfg.collection.trajectory_length,
            "p_optimal": cfg.collection.p_optimal,
            "start_mode": [cfg.collection.start_mode.kind,
                           list(cfg.collection.start_mode.states)],
        },
        "replications": cfg.replications,
        "master_seed": cfg.master_seed,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass(frozen=True)
class _ReplicationContext:
    mdp: TabularMdp
    true_problem: PlanningProblem
    pi_opt: np.ndarray
    v_opt: np.ndarray
    start_dist: np.ndarray
    cells: tuple[tuple[str, float], ...]
    collection: CollectionConfig
    master_seed: int


def _replication_context(cfg: ExperimentConfig, mdp: TabularMdp) -> _ReplicationContext:
    """What every replication of ``cfg`` on ``mdp`` shares, the true optimum included."""
    true_problem = PlanningProblem.from_mdp(mdp)
    pi_opt, _ = policy_iteration(true_problem)
    return _ReplicationContext(
        mdp=mdp,
        true_problem=true_problem,
        pi_opt=pi_opt,
        v_opt=policy_evaluation(true_problem, pi_opt),
        start_dist=cfg.collection.start_mode.distribution(mdp.n_states),
        cells=tuple(sweep_cells(cfg)),
        collection=cfg.collection,
        master_seed=cfg.master_seed,
    )


def _starts(cells: tuple[tuple[str, float], ...], width: int) -> np.ndarray:
    """For each cell, the cell whose policy starts its policy iteration, or -1
    in wave 0, whose problems start from their own greedy policies under the
    true optimal values. A strength-0 cell blends nothing, so it is the MLE
    problem: the first one solved starts the later waves' others, which then
    take one sweep."""
    mle = next((i for i, (_, strength) in enumerate(cells) if strength == 0.0), None)
    return np.array([
        mle if mle is not None and mle // width < i // width and strength == 0.0
        else i // width * width - 1  # the previous wave's last cell; -1 in wave 0
        for i, (_, strength) in enumerate(cells)], dtype=np.int64)


def _blocks(n: int, workers: int, cell_bytes: int) -> list[range]:
    """Replications 0..n-1 in blocks of consecutive indices: as few blocks as
    hold at most one worker's share of the run, ceil(n / workers), and at most
    _BLOCK_BYTES of one cell's matrices each, of equal sizes within one, the
    larger first."""
    size = min(-(-n // workers), max(1, _BLOCK_BYTES // cell_bytes))
    n_blocks = -(-n // size)
    small, larger = divmod(n, n_blocks)  # the first `larger` blocks hold small + 1
    bounds = [i * small + min(i, larger) for i in range(n_blocks + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _block_task(ctx: _ReplicationContext, reps: range) -> np.ndarray:
    """The (3, replications, cells) losses, plain MSE and absorbing MSE of
    replications ``reps``, planned as one block."""
    return [_replication_metrics(ctx, rep, block=reps) for rep in reps][0]


def _replication_metrics(ctx: _ReplicationContext, rep: int, *, block: range
                         ) -> np.ndarray | None:
    """The block's array from its first replication, which plans the whole
    block; None from the others. A shim for perfbench's tracer, which times one
    call of this per replication: fold it into _block_task when the benchmark
    reads the run's own numbers."""
    return _block_metrics(ctx, block) if rep == block.start else None


def _block_metrics(ctx: _ReplicationContext, reps: range) -> np.ndarray:
    """Replications ``reps``: data -> stacked estimate -> waves of the block's
    cells -> true-MDP scoring. A failure raises a ReplicationError naming
    the replication it belongs to, or the block's first for a whole-block step."""
    mdp, cells = ctx.mdp, ctx.cells
    n, n_actions = mdp.n_states, mdp.n_actions
    width = min(len(cells), max(1, _WAVE_BYTES // (len(reps) * mdp.transition.nbytes)))
    starts = _starts(cells, width)
    t_hat = np.empty((len(reps), n_actions, n, n))
    r_hat = np.empty((len(reps), n, n_actions))
    visits = np.empty((len(reps), n, n_actions), dtype=np.int64)  # all dirichlet reads
    culprit = reps.start  # the replication a failure names
    try:
        for i, culprit in enumerate(reps):
            counts = count(generate_dataset(mdp, ctx.pi_opt, ctx.collection,
                                            child_seed(ctx.master_seed, culprit)), n, n_actions)
            one = mle_model(counts)
            t_hat[i], r_hat[i], visits[i] = one.t_hat, one.r_hat, counts.visit_count
        del counts, one  # the stacks hold the block's data: keep no replication's beside them
        culprit = reps.start
        est = EstimatedModel(t_hat, r_hat)

        # the smallest integers that hold an action: a cliff block of 20 keeps
        # 51 KB of policies, not 407 KB, and np.unique sorts fewer bytes
        policies = np.empty((len(reps), len(cells), n), dtype=np.min_scalar_type(n_actions - 1))
        metrics = np.empty((3, len(reps), len(cells)))
        loss, mse_plain, mse_abs = metrics
        for start in range(0, len(cells), width):
            wave = slice(start, min(start + width, len(cells)))
            methods, strengths = zip(*cells[wave])
            reg = regularize(est, visits, methods, strengths, mdp.gamma)
            problem = PlanningProblem(reg.t_reg, reg.r_hat, reg.gamma)
            initial = (q_from_values(problem, ctx.v_opt).argmax(axis=-1) if start == 0
                       else policies[:, starts[wave]])
            try:
                policy = policy_iteration(problem, initial_policy=initial)[0]
            except PolicyIterationError as exc:
                # flat problem i is replication i // w, cell i % w of the wave
                stuck = [divmod(i, len(methods)) for i in exc.problems]
                culprit = reps[stuck[0][0]]
                names = ", ".join(f"({methods[j]}, {strengths[j]:g})"
                                  for r, j in stuck if r == stuck[0][0])
                raise RuntimeError(f"{exc} at cell(s) {names}") from exc
            policies[:, wave] = policy
            mse = transition_mse(mdp.transition, reg)
            mse_plain[:, wave] = mse.mse_plain
            mse_abs[:, wave] = mse.mse_absorbing
            del reg, problem  # before the next wave's stack is made: two would double the peak
        del est, t_hat  # the scoring's T_pi slices take their place

        # evaluate each distinct policy of the block once in the true MDP, in
        # solves that gather at most _WAVE_BYTES of T_pi. Viewing each row as
        # one void scalar lets np.unique sort bytes, several times faster than
        # its axis=0; one np.dot per policy keeps bits that gaps @ start_dist would move
        chosen = policies.reshape(-1, n)
        _, rows, owner = np.unique(chosen.view(np.dtype((np.void, chosen.itemsize * n))).ravel(),
                                   return_index=True, return_inverse=True)
        step = max(1, _WAVE_BYTES // mdp.transition[0].nbytes)
        v_reg = np.concatenate([policy_evaluation(ctx.true_problem, chosen[rows[i:i + step]])
                                for i in range(0, len(rows), step)])
        loss.flat = np.array([np.dot(ctx.start_dist, ctx.v_opt - v) for v in v_reg])[owner]
        return metrics
    except Exception as exc:
        raise ReplicationError(f"replication {culprit} (child seed"
                               f" {child_seed(ctx.master_seed, culprit)}) failed: {exc}"
                               ) from exc


# the process pool pooled run_experiment calls share: (executor, size, pid of
# the process that made it); its idle workers live until the interpreter exits
_pool: tuple[ProcessPoolExecutor, int, int] | None = None


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool of ``workers`` processes, made now unless this process
    already made one of that size."""
    global _pool
    if _pool is None or _pool[1:] != (workers, os.getpid()):
        _drop_pool()  # joins the old pool's threads: none runs while the new one forks
        _pool = (ProcessPoolExecutor(max_workers=workers), workers, os.getpid())
    return _pool[0]


def _drop_pool(cancel: bool = False) -> None:
    """Shut the shared pool down and forget it; a pool inherited from the
    parent of a forked process is forgotten, never touched."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None and pool[2] == os.getpid():
        pool[0].shutdown(wait=True, cancel_futures=cancel)


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run the full sweep and aggregate across replications (deterministic)."""
    mdp = resolve_mdp(cfg)
    check((not 0 <= s < mdp.n_states,
           f"start state {s} out of range [0, {mdp.n_states}) of MDP {cfg.mdp!r}")
          for s in cfg.collection.start_mode.states)
    ctx = _replication_context(cfg, mdp)
    n = cfg.replications
    # the pool forks all its processes at once: never more than can run or have work
    workers = min(cfg.workers, n, os.cpu_count() or 1)
    blocks = _blocks(n, workers, mdp.transition.nbytes)
    task = partial(_block_task, ctx)
    results = []  # one (3, replications, cells) array per block, in order
    if workers <= 1:
        results += map(task, blocks)
    else:
        per_task = max(1, n // (workers * _TASKS_PER_WORKER) // len(blocks[0]))  # whole blocks
        reused = _pool is not None and _pool[1:] == (workers, os.getpid())
        while True:
            try:
                for metrics in _shared_pool(workers).map(task, blocks, chunksize=per_task):
                    results.append(metrics)
                break
            except BrokenProcessPool as exc:
                _drop_pool(cancel=True)
                # a worker of a reused pool may have died while it sat idle, and
                # the pool may notice only after some results: rerun once afresh
                if reused:
                    reused = False
                    results.clear()
                    continue
                # map yields blocks in order: the first missing one starts this
                # replication, in the task of per_task blocks that holds it
                missing = len(results)
                rep = blocks[missing].start
                chunk = blocks[missing - missing % per_task:][:per_task]
                raise ReplicationError(
                    f"replication {rep} (child seed {child_seed(cfg.master_seed, rep)},"
                    f" chunk of replications {chunk[0].start}-{chunk[-1].stop - 1}) was not"
                    f" received: a worker process died ({exc})") from exc
            except BaseException:  # a failed replication or an interrupt
                _drop_pool(cancel=True)
                raise

    # in replication order; np reductions then sum in a fixed order
    losses, mse_plain, mse_abs = np.concatenate(results, axis=1)
    stderr = (losses.std(axis=0, ddof=1) / np.sqrt(n) if n > 1
              else np.zeros(losses.shape[1]))
    digest = config_hash(cfg)
    return [
        ResultRow(method, strength,
                  float(losses[:, i].mean()), float(stderr[i]),
                  float(mse_plain[:, i].mean()), float(mse_abs[:, i].mean()),
                  n, digest)
        for i, (method, strength) in enumerate(ctx.cells)
    ]


def builtin_presets() -> dict[str, ExperimentConfig]:
    """Named experiment configs for the shipped environments.

    `{env}-random/mixed/optimal` vary the behavior mixture (p_optimal 0,
    0.5, 1) with uniform starts; `{env}-start-*` vary the trajectory start
    states under random behavior.
    """
    presets: dict[str, ExperimentConfig] = {}

    def add(name: str, mdp: str, n: int, length: int, p: float, start: StartMode):
        presets[name] = ExperimentConfig(
            mdp=mdp,
            collection=CollectionConfig(n, length, p, start),
        )

    for suffix, p in (("random", 0.0), ("mixed", 0.5), ("optimal", 1.0)):
        add(f"cliff-{suffix}", "cliff", 25, 20, p, StartMode.uniform())
        add(f"twogoals-{suffix}", "two_goals", 15, 10, p, StartMode.uniform())
        add(f"grid-{suffix}", "grid", 15, 10, p, StartMode.uniform())

    add("cliff-start-s", "cliff", 25, 20, 0.0, StartMode.fixed(CLIFF_START))
    add("cliff-start-neargoal", "cliff", 25, 20, 0.0,
        StartMode.subset(cliff_near_goal_states()))
    add("twogoals-start-small", "two_goals", 15, 10, 0.0, StartMode.fixed(1))
    add("twogoals-start-large", "two_goals", 15, 10, 0.0, StartMode.fixed(10))
    add("grid-start-limited", "grid", 15, 10, 0.0, StartMode.subset(GRID_LIMITED_STARTS))
    add("grid-start-single", "grid", 15, 10, 0.0, StartMode.fixed(0))
    return presets


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def emit_csv(rows: list[ResultRow], path) -> None:
    """Write rows as CSV with a fixed header and 12-significant-digit floats."""
    if not rows:
        raise ValueError("no result rows to write")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join([
                r.method, _fmt(r.strength), _fmt(r.mean_loss), _fmt(r.stderr_loss),
                _fmt(r.mean_mse_plain), _fmt(r.mean_mse_absorbing),
                str(r.replications), r.config_hash,
            ]) + "\n")


def emit_summary(rows: list[ResultRow]) -> str:
    """Human-readable table sorted by (method, strength)."""
    if not rows:
        raise ValueError("no result rows to summarize")
    header = f"{'method':<12}{'strength':>10}{'mean_loss':>14}{'stderr':>12}" \
             f"{'mse_plain':>14}{'mse_absorb':>14}"
    lines = [header, "-" * len(header)]
    for r in sorted(rows, key=lambda x: (x.method, x.strength)):
        lines.append(f"{r.method:<12}{r.strength:>10.4g}{r.mean_loss:>14.6g}"
                     f"{r.stderr_loss:>12.4g}{r.mean_mse_plain:>14.6g}"
                     f"{r.mean_mse_absorbing:>14.6g}")
    return "\n".join(lines)


def _start_mode(value, problems: list[str]) -> StartMode:
    """The StartMode a JSON value spells; uniform stands in for one with problems."""
    if value == "uniform":
        return StartMode.uniform()
    if isinstance(value, dict) and list(value) in (["fixed"], ["set"]):
        states = value.get("set", [value.get("fixed")])
        return _build(problems, StartMode.uniform(), StartMode, next(iter(value)), states)
    problems.append('collection.start_mode must be "uniform", {"fixed": s} or'
                    f' {{"set": [s, ...]}}, got {value!r}')
    return StartMode.uniform()


def _known_fields(doc: dict, cls, where: str, problems: list[str]) -> dict:
    """The keys of ``doc`` that are fields of the dataclass ``cls``; each required
    field it lacks and each unknown key goes to ``problems`` as ``where + key``."""
    names = {f.name: f.default is MISSING for f in fields(cls)}  # name -> required
    problems += [f"missing config field: {where}{name}"
                 for name, required in names.items() if required and name not in doc]
    if unknown := sorted(where + k for k in doc if k not in names):
        problems.append(f"unknown config field(s): {', '.join(unknown)}")
    return {k: v for k, v in doc.items() if k in names}


def _build(problems: list[str], stand_in, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, or ``stand_in`` once the problems it raised are added."""
    try:
        return cls(*args, **kwargs)
    except ConfigError as exc:
        problems += exc.problems
        return stand_in


def load_experiment_config(path) -> ExperimentConfig:
    """Parse a JSON experiment config: ExperimentConfig's fields, with
    CollectionConfig's under "collection". The loader checks only what JSON
    adds: missing and unknown fields, a collection that is no object, and the
    start_mode spelling. StartMode, CollectionConfig and ExperimentConfig check
    their own fields; a stand-in takes the place of a part that raised, so one
    ConfigError lists every problem of every part."""
    doc = read_json_object(path, ConfigError)
    problems: list[str] = []
    top = _known_fields(doc, ExperimentConfig, "", problems)
    collection = CollectionConfig(1, 1)  # stands in for one that is missing or raised
    if isinstance(coll := top.get("collection"), dict):
        coll = _known_fields(coll, CollectionConfig, "collection.", problems)
        coll["start_mode"] = _start_mode(coll.get("start_mode", "uniform"), problems)
        collection = _build(problems, collection, CollectionConfig,
                            **{"n_trajectories": 1, "trajectory_length": 1, **coll})
    elif "collection" in top:
        problems.append(f"collection must be a JSON object, got {coll!r}")
    # "" and 1 stand in for a missing mdp or size, so the parts still list their problems
    cfg = _build(problems, None, ExperimentConfig, **{"mdp": "", **top, "collection": collection})
    if problems:
        raise ConfigError(problems)
    return cfg


def override(cfg: ExperimentConfig, *, master_seed=None, replications=None,
             out=None, workers=None) -> ExperimentConfig:
    """Apply the CLI-level overrides that are not None to a loaded or preset config."""
    given = dict(master_seed=master_seed, replications=replications, out=out, workers=workers)
    return replace(cfg, **{k: v for k, v in given.items() if v is not None})
