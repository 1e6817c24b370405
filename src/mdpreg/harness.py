"""Monte-Carlo experiment engine: sweeps across methods, strengths, and seeds.

One replication draws a dataset, estimates the model, and plans its
(method, strength) cells in waves (see sweep_waves) sized by bytes: each
wave's stack of blended matrices stays within _WAVE_BYTES, so cliff plans one
strength per method per wave (21 waves) and grid or two goals all 53 cells in
one wave. Rows aggregate mean and standard error across replications.
Replication r always uses child_seed(master_seed, r) and aggregation always
sums in replication order, so results are bit-identical for any worker count.
Pooled runs in one process share one process pool, started by the first of
them and kept while later runs ask for the same number of workers.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby, zip_longest

import numpy as np

from .data import CollectionConfig, StartMode, generate_dataset
from .environments import (CLIFF_START, build_cliff_walk, build_interconnected_grid,
                           build_two_goals, cliff_near_goal_states, is_json_int,
                           is_json_number, load_mdp_spec, read_json_object)
from .estimation import count, mle_model
from .evaluation import transition_mse
from .mdp import TabularMdp
from .planning import (PlanningProblem, PolicyIterationError, policy_evaluation,
                       policy_iteration)
from .regularizers import METHODS, regularize
from .seeding import child_seed

DEFAULT_SEED = 1729
DEFAULT_REPLICATIONS = 5000
DEFAULT_EPS_GRID = tuple(i / 20 for i in range(21))
DEFAULT_MAGNITUDE_GRID = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)

# bytes of blended matrices one wave may stack: a cliff wave (3 x 74 KB) takes
# one strength per method, a grid or two-goals sweep (53 x 2.4-3.5 KB) one wave
_WAVE_BYTES = 1 << 18

# the dense example limited-start variant needs an explicit list of 5 states
GRID_LIMITED_STARTS = (0, 2, 4, 6, 8)

BUILTIN_MDPS = {"cliff": build_cliff_walk, "two_goals": build_two_goals,
                "grid": build_interconnected_grid}

CSV_HEADER = ("method,strength,mean_loss,stderr_loss,mean_mse_plain,"
              "mean_mse_absorbing,replications,config_hash")


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the full problem list."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid experiment config: " + "; ".join(problems))


class ReplicationError(RuntimeError):
    """A replication failed or was lost; the message names it and its child seed."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one sweep (JSON-mirrorable, see README).
    Building one, ``replace`` included, raises ConfigError listing every
    out-of-range field; the MDP it names and its start states are checked
    when a run resolves the MDP."""

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
        # -0.0 == 0.0 runs the same cells, so it must print and hash as 0.0
        for name in ("eps_grid", "magnitude_grid"):
            grid = tuple(abs(v) if v == 0 else v for v in getattr(self, name))
            object.__setattr__(self, name, grid)
        if self.gamma == 0:
            object.__setattr__(self, "gamma", abs(self.gamma))
        problems = []
        if not self.methods:
            problems.append("methods list is empty")
        for m in self.methods:
            if m not in METHODS:
                problems.append(f"unknown method {m!r}")
        if len(set(self.methods)) != len(self.methods):
            problems.append("methods list has duplicates")
        needs_eps = any(m in ("discount", "eps_greedy") for m in self.methods)
        if needs_eps and not self.eps_grid:
            problems.append("eps_grid is empty but a method sweeps eps")
        if "dirichlet" in self.methods and not self.magnitude_grid:
            problems.append("magnitude_grid is empty but dirichlet is requested")
        for e in self.eps_grid:
            if not 0.0 <= e <= 1.0:
                problems.append(f"eps value {e} outside [0, 1]")
        if len(set(self.eps_grid)) != len(self.eps_grid):
            problems.append("eps_grid has duplicate values")
        for m in self.magnitude_grid:
            if m < 0:
                problems.append(f"prior magnitude {m} is negative")
            elif not m < np.inf:
                problems.append(f"prior magnitude {m} is not finite")
        if len(set(self.magnitude_grid)) != len(self.magnitude_grid):
            problems.append("magnitude_grid has duplicate values")
        if self.replications < 1:
            problems.append("replications must be >= 1")
        if self.workers < 1:
            problems.append("workers must be >= 1")
        if not 0 <= self.master_seed < 2 ** 64:
            problems.append("master_seed must fit in 64 bits")
        if self.gamma is not None and not 0.0 <= self.gamma < 1.0:
            problems.append(f"gamma override {self.gamma} outside [0, 1)")
        if problems:
            raise ConfigError(problems)


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
    cells = []
    for m in cfg.methods:
        if m == "dirichlet":
            grid: tuple[float, ...] = cfg.magnitude_grid
        elif m == "none":
            grid = (0.0,)
        else:
            grid = cfg.eps_grid
        cells.extend((m, float(s)) for s in grid)
    return cells


def sweep_waves(cells, width: int) -> list[list[int]]:
    """Cell indices per wave of ``sweep_cells`` output (each method's cells
    contiguous): wave j holds the next ``width`` cells of every method, in
    output order, and is planned as one stack, each cell warm-started from
    its method's last policy of wave j-1. ``width = 1`` gives wave j the j-th
    cell of every method."""
    spans = [list(g) for _, g in groupby(range(len(cells)), key=lambda i: cells[i][0])]
    chunks = [[span[j:j + width] for j in range(0, len(span), width)] for span in spans]
    return [[i for chunk in wave if chunk for i in chunk] for wave in zip_longest(*chunks)]


def _wave_width(cells, cell_bytes: int) -> int:
    """Strengths per method in one wave: as many as keep its stack of
    ``cell_bytes``-sized matrices within _WAVE_BYTES, and at least one."""
    return max(1, _WAVE_BYTES // (len({m for m, _ in cells}) * cell_bytes))


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


def _replication_task(ctx: _ReplicationContext, rep: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One full replication: dataset -> estimate -> per-cell plan and metrics."""
    try:
        return _replication_metrics(ctx, rep)
    except Exception as exc:
        raise ReplicationError(f"replication {rep} (child seed"
                               f" {child_seed(ctx.master_seed, rep)}) failed: {exc}") from exc


def _replication_metrics(ctx: _ReplicationContext, rep: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mdp = ctx.mdp
    dataset = generate_dataset(mdp, ctx.pi_opt, ctx.collection,
                               child_seed(ctx.master_seed, rep))
    counts = count(dataset, mdp.n_states, mdp.n_actions)
    est = mle_model(counts)

    width = _wave_width(ctx.cells, est.t_hat.nbytes)
    latest = {}  # each method's latest policy: its warm start in the next wave
    policies = np.empty((len(ctx.cells), mdp.n_states), dtype=np.int64)
    mse_plain, mse_abs = np.empty((2, len(ctx.cells)))
    for cells in sweep_waves(ctx.cells, width):
        methods, strengths = zip(*(ctx.cells[i] for i in cells))
        reg = regularize(est, counts, methods, strengths, mdp.gamma)
        # wave 0 holds every method, so each later wave finds all its warm starts
        warm = np.stack([latest[m] for m in methods]) if latest else None
        try:
            policy = policy_iteration(PlanningProblem.from_regularized(reg), initial_policy=warm)[0]
        except PolicyIterationError as exc:
            names = ", ".join(f"({methods[i]}, {strengths[i]:g})" for i in exc.problems)
            raise RuntimeError(f"{exc} at cell(s) {names}") from exc
        latest.update(zip(methods, policy))
        policies[cells] = policy
        mse = transition_mse(mdp.transition, reg)
        mse_plain[cells] = mse.mse_plain
        mse_abs[cells] = mse.mse_absorbing

    # evaluate each distinct policy once in the true MDP; keying rows by their
    # bytes is several times faster than np.unique(axis=0) on 53 short rows
    first = {}  # a policy's bytes -> the first cell that chose it
    owner = [first.setdefault(p.tobytes(), i) for i, p in enumerate(policies)]
    v_reg = policy_evaluation(ctx.true_problem, policies[list(first.values())])
    loss = {i: np.dot(ctx.start_dist, ctx.v_opt - v) for i, v in zip(first.values(), v_reg)}
    return np.array([loss[i] for i in owner]), mse_plain, mse_abs


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
    problems = [f"start state {s} out of range [0, {mdp.n_states}) of MDP {cfg.mdp!r}"
                for s in cfg.collection.start_mode.states if not 0 <= s < mdp.n_states]
    if problems:
        raise ConfigError(problems)
    ctx = _replication_context(cfg, mdp)
    task = partial(_replication_task, ctx)
    reps = range(cfg.replications)
    # the pool forks all its processes at once: never more than can run or have work
    workers = min(cfg.workers, cfg.replications, os.cpu_count() or 1)
    if workers <= 1:
        results = [task(r) for r in reps]
    else:
        chunk = max(1, cfg.replications // (workers * 8))
        results = []
        reused = _pool is not None and _pool[1:] == (workers, os.getpid())
        while True:
            try:
                for result in _shared_pool(workers).map(task, reps, chunksize=chunk):
                    results.append(result)
                break
            except BrokenProcessPool as exc:
                _drop_pool(cancel=True)
                # a worker of a reused pool may have died while it sat idle, and
                # the pool may notice only after some results: rerun once afresh
                if reused:
                    reused = False
                    results.clear()
                    continue
                # map yields in replication order: the first result missing is len(results)
                rep = len(results)
                first = rep - rep % chunk
                last = min(first + chunk, cfg.replications) - 1
                raise ReplicationError(
                    f"replication {rep} (child seed {child_seed(cfg.master_seed, rep)},"
                    f" chunk of replications {first}-{last}) was not received:"
                    f" a worker process died ({exc})") from exc
            except BaseException:  # a failed replication or an interrupt
                _drop_pool(cancel=True)
                raise

    # stack in replication order; np reductions then sum in a fixed order
    losses = np.stack([r[0] for r in results])
    mse_plain = np.stack([r[1] for r in results])
    mse_abs = np.stack([r[2] for r in results])
    n = cfg.replications
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


def _start_mode_args(value) -> tuple[str, tuple[int, ...]] | None:
    """The StartMode (kind, states) a JSON value spells, or None; StartMode
    itself then checks the states (duplicates) in the range-problem pass."""
    if value == "uniform":
        return "uniform", ()
    if isinstance(value, dict) and list(value) in (["fixed"], ["set"]):
        states = value.get("set", [value.get("fixed")])
        if isinstance(states, list) and states and all(map(is_json_int, states)):
            return next(iter(value)), tuple(states)
    return None


_INTEGER = (is_json_int, "an integer")
_NUMBERS = (lambda v: isinstance(v, list) and all(map(is_json_number, v)),
            "a list of finite numbers")
# JSON field -> (type check, expected type); collection fields are prefixed
_FIELD_TYPES = {
    "mdp": (lambda v: isinstance(v, str), "a string"),
    "methods": (lambda v: isinstance(v, list) and all(isinstance(m, str) for m in v),
                "a list of strings"),
    "eps_grid": _NUMBERS, "magnitude_grid": _NUMBERS,
    "replications": _INTEGER, "master_seed": _INTEGER, "workers": _INTEGER,
    "gamma": (lambda v: v is None or is_json_number(v), "a finite number or null"),
    "out": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "collection": (lambda v: isinstance(v, dict), "a JSON object"),
    "collection.n_trajectories": _INTEGER, "collection.trajectory_length": _INTEGER,
    "collection.p_optimal": (is_json_number, "a finite number"),
    "collection.start_mode": (lambda v: _start_mode_args(v) is not None,
                              '"uniform", {"fixed": s} or {"set": [s, ...]}'),
}


def _field_problems(doc: dict, where: str, required: tuple[str, ...]) -> list[str]:
    """Missing, wrongly typed and unknown fields of ``doc``, named ``where + key``."""
    problems = [f"missing config field: {where}{f}" for f in required if f not in doc]
    unknown = sorted(where + k for k in doc if where + k not in _FIELD_TYPES)
    if unknown:
        problems.append(f"unknown config field(s): {', '.join(unknown)}")
    return problems + [f"{where}{k} must be {_FIELD_TYPES[where + k][1]}, got {v!r}"
                       for k, v in doc.items()
                       if where + k in _FIELD_TYPES and not _FIELD_TYPES[where + k][0](v)]


def load_experiment_config(path) -> ExperimentConfig:
    """Parse a JSON experiment config (field names mirror ExperimentConfig),
    reporting all wrongly typed fields together, then all out-of-range values."""
    doc = read_json_object(path, ConfigError)
    problems = _field_problems(doc, "", ("mdp", "collection"))
    coll = doc.get("collection")
    if isinstance(coll, dict):
        problems += _field_problems(coll, "collection.", ("n_trajectories", "trajectory_length"))
    if problems:
        raise ConfigError(problems)
    start = _start_mode_args(coll.get("start_mode", "uniform"))
    sizes = (coll["n_trajectories"], coll["trajectory_length"], float(coll.get("p_optimal", 0.0)))
    problems = StartMode.problems(*start) + CollectionConfig.problems(*sizes)
    # a collection with problems is not built; the config is then built only for its problems
    collection = None if problems else CollectionConfig(*sizes, StartMode(*start))

    fields = dict(doc, collection=collection)  # absent fields take the defaults
    for name, kind in (("methods", str), ("eps_grid", float), ("magnitude_grid", float)):
        if name in fields:
            fields[name] = tuple(map(kind, fields[name]))
    if fields.get("gamma") is not None:
        fields["gamma"] = float(fields["gamma"])
    try:
        cfg = ExperimentConfig(**fields)
    except ConfigError as exc:
        problems += exc.problems
    if problems:
        raise ConfigError(problems)
    return cfg


def override(cfg: ExperimentConfig, *, master_seed=None, replications=None,
             out=None, workers=None) -> ExperimentConfig:
    """Apply the CLI-level overrides that are not None to a loaded or preset config."""
    given = dict(master_seed=master_seed, replications=replications, out=out, workers=workers)
    return replace(cfg, **{k: v for k, v in given.items() if v is not None})
