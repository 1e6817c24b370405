"""One benchmark process: ``measure``, ``probe`` or ``trace`` a workload.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS pinned to one
thread. It prints its result as one JSON object on the last line of stdout.

  measure  repeat the workload's job untraced for --seconds; job rates and
           set-up times (as measured and corrected for host speed, see
           calibration.py), output checks, CSV digest and peak resident memory
  probe    run the workload's first config cut to a one-step, one-cell,
           one-replication run; print the CLOCK_MONOTONIC time it returned
  trace    untraced and traced jobs at workers=1 (and, for a pooled
           workload, untraced at its own worker count) for --seconds;
           per-layer metrics, count repeatability and CSV equality
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import mdpreg
from mdpreg.harness import emit_csv, run_experiment

import calibration
import checks
import tracer
import workloads

# every measure or trace run makes at least this many jobs (traced jobs)
MIN_JOBS = 2
# set-up probes per measure run, spread evenly over it so that host noise,
# which comes in bursts of seconds, hits them no harder than the jobs
SETUP_PROBES = 12


def run_job(cfgs, tmp: Path, trace: tracer.Tracer | None = None, labels=None):
    """Run every config once; return (wall seconds, per-config rows, CSV texts)."""
    rows = []
    elapsed = 0.0
    for i, cfg in enumerate(cfgs):
        if trace is not None:
            trace.label = labels[i]
        t0 = time.perf_counter()
        rows.append(run_experiment(cfg))
        elapsed += time.perf_counter() - t0
    texts = []
    for r in rows:
        path = tmp / "out.csv"
        emit_csv(r, path)
        texts.append(path.read_text(encoding="utf-8"))
    return elapsed, rows, texts


def check_job(cfgs, rows, texts) -> list[str]:
    problems = []
    for cfg, r, text in zip(cfgs, rows, texts):
        problems += checks.check_rows(cfg, r, text)
    return problems


def digest(texts) -> str:
    return hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()


def reference_checks(cfgs, labels) -> tuple[int, list[str]]:
    """Reference-replication check per config; returns (configs failed, problems)."""
    failed, problems = 0, []
    for cfg, label in zip(cfgs, labels):
        found = checks.check_reference(cfg)
        failed += bool(found)
        problems += [f"{label}: {p}" for p in found]
    return failed, problems


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def setup_probe(name: str, seed: int, src: Path) -> float:
    """Seconds from spawning a fresh interpreter to its probe run's return."""
    spawned = time.monotonic()
    out = subprocess.run([sys.executable, __file__, "probe", "--workload", name,
                          "--seed", str(seed), "--src", str(src)],
                         stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    return json.loads(out.stdout.splitlines()[-1])["returned_monotonic"] - spawned


def measure(name: str, seed: int, seconds: float, tmp: Path, src: Path) -> dict:
    """Jobs back to back for ``seconds``, with set-up probes spread between them.

    Every job and probe is preceded by the calibration kernel; its timing is
    reported both as measured (``*_wall``) and scaled to the reference speed.
    """
    cfgs = workloads.configs(name, seed)
    labels = workloads.config_labels(name)
    job_s, setup_s, attempted, failed, problems = [], [], 0, 0, []
    job_kernel_s, setup_kernel_s = [], []
    first_texts = None
    pool_rss_mb = 0.0
    calibration.kernel_s()  # the first run pays for lazy set-up in numpy
    start = time.perf_counter()
    while (attempted < MIN_JOBS or len(setup_s) < SETUP_PROBES
           or time.perf_counter() - start < seconds):
        due = (len(setup_s) < SETUP_PROBES and len(setup_s) * seconds
               <= (time.perf_counter() - start) * SETUP_PROBES)
        if due and attempted:  # the first job comes first: see pool_rss_mb
            setup_kernel_s.append(calibration.kernel_s())
            setup_s.append(setup_probe(name, seed, src))
            continue
        attempted += 1
        kernel_s = calibration.kernel_s()
        try:
            elapsed, rows, texts = run_job(cfgs, tmp)
        except Exception:  # a failed run is counted and reported, not fatal
            traceback.print_exc()
            failed += 1
            problems.append(f"job {attempted} raised")
            if failed >= MIN_JOBS:
                break
            continue
        finally:
            if attempted == 1:  # probes are children too: read the pool's peak first
                pool_rss_mb = children_peak_rss_mb()
        job_problems = check_job(cfgs, rows, texts)
        if first_texts is None:
            first_texts = texts
        elif texts != first_texts:
            job_problems.append(f"job {attempted}: CSV bytes differ from the first job")
        failed += bool(job_problems)
        problems += job_problems
        job_s.append(elapsed)
        job_kernel_s.append(kernel_s)
    ref_failed, ref_problems = reference_checks(cfgs, labels)
    reps = sum(c.replications for c in cfgs)
    ref = calibration.REFERENCE_S
    return {
        "reps_per_s": [reps / s * k / ref for s, k in zip(job_s, job_kernel_s)],
        "reps_per_s_wall": [reps / s for s in job_s],
        "setup_s": [s * ref / k for s, k in zip(setup_s, setup_kernel_s)],
        "setup_s_wall": setup_s,
        "kernel_s": job_kernel_s + setup_kernel_s,
        "attempted": attempted + len(cfgs),
        "failed": failed + ref_failed,
        "problems": problems + ref_problems,
        "csv_sha256": digest(first_texts) if first_texts else None,
        "peak_rss_mb": max(self_peak_rss_mb(), pool_rss_mb),
        "numpy": np.__version__,
        "openblas": openblas_version(),
    }


def probe(name: str, seed: int) -> dict:
    """Run the set-up probe config and report when it returned."""
    cfg = workloads.setup_probe_config(workloads.configs(name, seed)[0])
    run_experiment(cfg)
    return {"returned_monotonic": time.monotonic()}


def trace(name: str, seed: int, seconds: float, tmp: Path) -> dict:
    """One run at the workload's own worker count, then untraced and traced
    workers=1 pairs for ``seconds``; per-layer metrics from the traced jobs."""
    cfgs = workloads.configs(name, seed)
    labels = workloads.config_labels(name)
    serial = [replace(c, workers=1) for c in cfgs]
    pooled = any(c.workers > 1 for c in cfgs)
    reps = sum(c.replications for c in cfgs)

    own_s, rows, own_texts = run_job(cfgs, tmp)
    job_problems = [check_job(cfgs, rows, own_texts)]
    untraced_s, traced_s, tracers = [], [], []
    start = time.perf_counter()
    pair_s = 0.0
    # stop before a pair of jobs that would end past ``seconds``
    while len(tracers) < MIN_JOBS or time.perf_counter() - start + pair_s < seconds:
        pair_start = time.perf_counter()
        elapsed, _, texts = run_job(serial, tmp)
        untraced_s.append(elapsed)
        job_problems.append([] if texts == own_texts else
                            ["untraced workers=1 CSV bytes differ from the workload's run"])
        t = tracer.Tracer()
        with t:
            elapsed, rows, texts = run_job(serial, tmp, t, labels)
        traced_s.append(elapsed)
        tracers.append(t)
        found = check_job(serial, rows, texts)
        if texts != own_texts:
            found.append("traced workers=1 CSV bytes differ from the untraced run")
        if t.counts() != tracers[0].counts():
            found.append("traced counts differ between two traced runs at one seed")
        job_problems.append(found)
        pair_s = time.perf_counter() - pair_start
    if not pooled:
        untraced_s.append(own_s)

    traced = tracer.summary(tracers, sum(traced_s), len(tracers) * len(cfgs))
    if traced["detail"]["accounted_ms"]["harness.self"] < 0:
        job_problems[-1].append("layer spans exceed the traced wall time")
    serial_rate = reps / float(np.median(untraced_s))
    own_rate = reps / own_s if pooled else serial_rate
    metrics = dict(traced["metrics"])
    metrics["harness.pool_speedup"] = own_rate / serial_rate
    metrics["tracing_overhead_pct"] = (float(np.median(traced_s))
                                       / float(np.median(untraced_s)) - 1.0) * 100.0
    ref_failed, ref_problems = reference_checks(cfgs, labels)
    detail = dict(traced["detail"])
    detail.update({
        "pool_speedup_bases": {"workers": cfgs[0].workers, "reps_per_s": own_rate,
                               "workers_1_reps_per_s": serial_rate},
        "traced_jobs": len(tracers),
        "csv_sha256": digest(own_texts),
    })
    return {
        "metrics": metrics,
        "detail": detail,
        "attempted": len(job_problems) + len(cfgs),
        "failed": sum(bool(p) for p in job_problems) + ref_failed,
        "problems": [p for found in job_problems for p in found] + ref_problems,
        "numpy": np.__version__,
        "openblas": openblas_version(),
    }


def openblas_version() -> str | None:
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"].get("version")
    except (AttributeError, KeyError, TypeError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("measure", "probe", "trace"))
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    if src not in Path(mdpreg.__file__).resolve().parents:
        print(f"error: imported mdpreg from {mdpreg.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.mode == "probe":
        result = probe(args.workload, args.seed)
    else:
        with tempfile.TemporaryDirectory(dir=src.parent / ".perfbench_run") as tmp:
            if args.mode == "measure":
                result = measure(args.workload, args.seed, args.seconds, Path(tmp), src)
            else:
                result = trace(args.workload, args.seed, args.seconds, Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
