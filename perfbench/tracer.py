"""Spans and counts around the layer functions a replication calls.

The tracer wraps, for the duration of a ``with`` block, the public functions
that ``mdpreg.harness`` calls per replication, plus ``planning.policy_evaluation``
for the LU solves inside policy iteration. ``mdpreg`` itself is not edited.
Spans are kept in memory; ``summary`` turns them into per-replication layer
times by self time (a span's duration minus its child spans).

Spans recorded in a process-pool child are not visible here, so traced runs
use ``workers=1``.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

import numpy as np

from mdpreg import harness, planning
from mdpreg.seeding import child_seed

REPLICATION = "harness.replication"
LU = "planning.lu"
POLICY_ITERATION = "planning.policy_iteration"

# (module, attribute, span name); span names are "<mdpreg module>.<layer>".
TARGETS = (
    (harness, "_replication_metrics", REPLICATION),
    (harness, "resolve_mdp", "environments.build"),
    (harness, "generate_dataset", "data.generate"),
    (harness, "count", "estimation.count"),
    (harness, "mle_model", "estimation.mle"),
    (harness, "regularize", "regularizers.regularize"),
    (harness, "policy_iteration", POLICY_ITERATION),
    (planning, "policy_evaluation", LU),
    (harness, "policy_evaluation", "evaluation.true_eval"),
    (harness, "transition_mse", "evaluation.transition_mse"),
)

# span name -> per-replication self-time metric
LAYER_MS = {
    "data.generate": "data.generate_ms",
    "estimation.count": "estimation.count_ms",
    "estimation.mle": "estimation.mle_ms",
    "regularizers.regularize": "regularizers.regularize_ms",
    POLICY_ITERATION: "planning.policy_iteration_self_ms",
    LU: "planning.lu_ms",
    "evaluation.true_eval": "evaluation.true_eval_ms",
    "evaluation.transition_mse": "evaluation.transition_mse_ms",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None


class Tracer:
    """Records spans while installed; one instance per traced job."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.label = ""

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            span.info = self._observe(name, args, result)
            return result
        return traced

    def _observe(self, name: str, args, result):
        """Counts taken at the span boundary, outside the timed interval."""
        if name == REPLICATION:
            ctx, rep = args
            return (self.label, rep, child_seed(ctx.master_seed, rep))
        if name == "data.generate":
            return result.n_steps
        if name == "estimation.count":
            return float(np.mean(result.visit_count == 0))
        return None

    def __enter__(self):
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _replication_of(self) -> list[int | None]:
        """Index of the enclosing replication span for each span, or None."""
        owner: list[int | None] = []
        for i, span in enumerate(self.spans):
            if span.name == REPLICATION:
                owner.append(i)
            else:
                owner.append(None if span.parent is None else owner[span.parent])
        return owner

    def counts(self) -> dict:
        """Exact counts of one traced job; two jobs at one seed must agree."""
        owner = self._replication_of()
        inside = [s for s, o in zip(self.spans, owner) if o is not None]
        lu_children = Counter(s.parent for s in inside if s.name == LU)
        sweeps = Counter(lu_children[i] for i, (s, o) in enumerate(zip(self.spans, owner))
                         if o is not None and s.name == POLICY_ITERATION)
        return {
            "replications": sum(s.name == REPLICATION for s in self.spans),
            "data.steps": sum(s.info for s in inside if s.name == "data.generate"),
            "regularizers.calls": sum(s.name == "regularizers.regularize" for s in inside),
            "planning.lu_solves": sum(s.name == LU for s in inside),
            "planning.pi_calls": sum(sweeps.values()),
            "planning.pi_sweeps_histogram": {str(k): v for k, v in sorted(sweeps.items())},
            "estimation.unvisited_frac": [s.info for s in inside
                                          if s.name == "estimation.count"],
        }


def summary(tracers: list[Tracer], wall_s: float, n_runs: int) -> dict:
    """Per-replication layer metrics pooled over traced jobs.

    ``wall_s`` is the summed wall time of the traced ``run_experiment`` calls
    and ``n_runs`` their number. Layer self times, ``environments.setup_ms``
    (spans outside any replication) and ``harness.self_ms`` add up to it.
    """
    self_ms = Counter()
    setup_ms = 0.0
    rep_ms = []
    for tracer in tracers:
        owner = tracer._replication_of()
        child_ms = Counter()
        for span in tracer.spans:
            if span.parent is not None:
                child_ms[span.parent] += (span.end - span.start) * 1e3
        for i, (span, o) in enumerate(zip(tracer.spans, owner)):
            dur = (span.end - span.start) * 1e3
            if span.name == REPLICATION:
                rep_ms.append((dur, span.info))
            elif o is None:
                if span.parent is None:
                    setup_ms += dur
            else:
                self_ms[LAYER_MS[span.name]] += dur - child_ms[i]
    n_reps = len(rep_ms)
    first = tracers[0].counts()
    harness_ms = wall_s * 1e3 - setup_ms - sum(self_ms.values())
    durations = np.array([d for d, _ in rep_ms])
    slowest_ms, (label, rep, seed) = max(rep_ms, key=lambda x: x[0])
    metrics = {name: self_ms[name] / n_reps for name in LAYER_MS.values()}
    metrics.update({
        "data.steps": first["data.steps"] / first["replications"],
        "estimation.unvisited_frac": float(np.mean(first["estimation.unvisited_frac"])),
        "regularizers.calls": first["regularizers.calls"] / first["replications"],
        "planning.lu_solves": first["planning.lu_solves"],
        "planning.pi_sweeps_per_cell": first["planning.lu_solves"] / first["planning.pi_calls"],
        "harness.self_ms": harness_ms / n_reps,
        "harness.rep_ms_p50": float(np.percentile(durations, 50)),
        "harness.rep_ms_p99": float(np.percentile(durations, 99)),
        "environments.setup_ms": setup_ms / n_runs,
    })
    detail = {
        "traced_replications": n_reps,
        "pi_sweeps_histogram": first["planning.pi_sweeps_histogram"],
        "slowest_replication": {"config": label, "replication": rep, "child_seed": seed,
                                "ms": slowest_ms},
        "accounted_ms": {"layers": sum(self_ms.values()), "environments.setup": setup_ms,
                         "harness.self": harness_ms, "wall": wall_s * 1e3},
    }
    return {"metrics": metrics, "detail": detail}
