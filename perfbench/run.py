"""mdpreg benchmark: replications per second on three workloads, plus a traced run.

Run from the root of a checkout (the directory holding ``src/mdpreg``):

    python3 perfbench/run.py --workload cliff-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end metrics:

  reps_per_s   replications per second after set-up: the median over the run
               of each job's replications over its ``run_experiment`` wall time,
               corrected for host speed (see calibration.py)
  setup_s      median over fresh interpreters of the time from spawning one to
               the return of a one-step, one-cell, one-replication run of the
               workload's first config: imports, config resolution, MDP build,
               true-MDP solve and, on a pooled workload, the process-pool start;
               corrected for host speed like reps_per_s
  peak_rss_mb  peak resident memory of the workload process and its pool

The uncorrected wall-clock values are printed as ``reps_per_s_wall`` and
``setup_s_wall``; on a host of the reference speed the two agree.

``--trace 1`` runs the job traced at ``workers=1`` and reports per-layer
metrics per replication (see ``tracer.py``). Both modes check the outputs
(``checks.py``); failures count in ``failed`` over ``attempted`` and make the
exit code 1. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
report each metric by name with its unit, spread and sample count, and a
``detail`` record with the machine, CSV digest and trace details.

Each workload process runs with ``src`` on ``PYTHONPATH`` and OpenBLAS and
OpenMP pinned to one thread, so the two pool workers of ``paper-mix`` use two
cores and no more.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# workloads.NAMES; this file imports no mdpreg code, so it fails fast without src/
WORKLOADS = ("cliff-sweep", "big-batch", "paper-mix")
DEFAULT_SEED = 1729
CHILD_TIMEOUT_S = 165.0  # the whole run must end within 180 s
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"reps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
STAT_UNITS = dict(END_TO_END_UNITS, reps_per_s_wall="1/s", setup_s_wall="s",
                  calibration_kernel_s="s")
PER_LAYER_UNITS = {
    "data.generate_ms": "ms", "data.steps": "count",
    "estimation.count_ms": "ms", "estimation.mle_ms": "ms",
    "estimation.unvisited_frac": "ratio",
    "regularizers.regularize_ms": "ms", "regularizers.calls": "count",
    "planning.policy_iteration_self_ms": "ms", "planning.lu_ms": "ms",
    "planning.lu_solves": "count", "planning.pi_sweeps_per_cell": "count",
    "evaluation.true_eval_ms": "ms", "evaluation.transition_mse_ms": "ms",
    "harness.self_ms": "ms", "harness.rep_ms_p50": "ms", "harness.rep_ms_p99": "ms",
    "harness.pool_speedup": "ratio", "environments.setup_ms": "ms",
    "tracing_overhead_pct": "%",
}


class ChildError(RuntimeError):
    pass


def run_child(args: list[str], env: dict, timeout: float) -> dict:
    """Run worker.py in its own process group; return its last stdout line as JSON."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"worker {args[0]} timed out after {timeout:.0f} s")
    finally:
        # pool workers left behind by a failed child share its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise ChildError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def cpu_steal_s() -> float | None:
    """Host CPU steal time so far, summed over CPUs (read-only /proc/stat)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count, as statistics.quantiles gives them."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def measure(workload: str, seed: int, seconds: float, env: dict, src: Path) -> dict:
    result = run_child(["measure", "--workload", workload, "--seed", str(seed),
                        "--src", str(src), "--seconds", str(seconds)], env, CHILD_TIMEOUT_S)
    stats = {name: spread(result[name]) if result[name] else None
             for name in ("reps_per_s", "reps_per_s_wall", "setup_s", "setup_s_wall")}
    stats["peak_rss_mb"] = spread([result["peak_rss_mb"]])
    stats["calibration_kernel_s"] = spread(result["kernel_s"])
    metrics = {name: stats[name]["median"] for name in END_TO_END_UNITS if stats[name]}
    return {"metrics": metrics, "stats": stats, "child": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through run_child's cleanup, which kills the worker's group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in 64 bits")

    root = Path.cwd()
    src = root / "src"
    if not (src / "mdpreg" / "__init__.py").is_file():
        print(f"error: no src/mdpreg package under {root}; run from a checkout root",
              file=sys.stderr)
        return 2

    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    run_dir = root / ".perfbench_run"
    run_dir.mkdir(exist_ok=True)
    steal_before = cpu_steal_s()
    started = time.monotonic()
    try:
        if args.trace:
            result = run_child(["trace", "--workload", args.workload, "--seed",
                                str(args.seed), "--seconds", str(args.seconds),
                                "--src", str(src)], env, CHILD_TIMEOUT_S)
            metrics, units, child = result["metrics"], PER_LAYER_UNITS, result
        else:
            result = measure(args.workload, args.seed, args.seconds, env, src)
            metrics, units, child = result["metrics"], END_TO_END_UNITS, result["child"]
    except (ChildError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    steal_after = cpu_steal_s()

    problems = child["problems"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems and set(metrics) == set(units)
    attempted, failed = child["attempted"], child["failed"]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": {
            "cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": child["numpy"],
            "openblas": child["openblas"], "blas_threads": 1,
            "cpu_steal_s": (None if steal_before is None or steal_after is None
                            else steal_after - steal_before),
            "wall_s": time.monotonic() - started,
        },
        "failed_frac": failed / attempted,
    }
    if args.trace:
        detail.update(child["detail"])
        for name in units:
            print(f"{name:<36} {metrics.get(name, float('nan')):14.4f} {units[name]}")
    else:
        detail.update({"csv_sha256": child["csv_sha256"], "stats": result["stats"]})
        for name, st in result["stats"].items():
            if st:
                unit = STAT_UNITS.get(name, "")
                print(f"{name:<20} {st['median']:12.4f} {unit:<4} "
                      f"(q1 {st['q1']:.4f}, q3 {st['q3']:.4f}, n {st['n']})")
    print(f"{'failed_frac':<20} {failed / attempted:12.4f} ratio "
          f"({failed} of {attempted} runs)")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
