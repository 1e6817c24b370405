"""A fixed kernel that measures how fast the host runs at this moment.

The speed of a shared host drifts by a quarter or more over minutes (CPU time
tracks wall time, so it is not the scheduler). ``measure`` times this kernel
right before every job and set-up probe and scales the timing to the
reference speed: ``corrected = measured * REFERENCE_S / kernel_s``. The kernel
never calls ``mdpreg``, so a change to the program moves the corrected
numbers exactly as it moves the wall-clock ones, while host drift, which slows
the kernel too, largely cancels.

Its mix follows a replication's: interpreter-bound scalar random draws and
searches, as in dataset generation, and 48-state LU solves and matrix
products, as in policy iteration.
"""

from __future__ import annotations

import time

import numpy as np

# seconds the kernel takes on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4 with OpenBLAS on one thread); only a scale
REFERENCE_S = 0.06

_STATES, _ACTIONS, _SOLVES, _DRAWS = 48, 4, 500, 20


def kernel_s() -> float:
    """Wall seconds of one run of the fixed kernel."""
    rng = np.random.default_rng(0)
    t = rng.random((_ACTIONS, _STATES, _STATES))
    t /= t.sum(axis=2, keepdims=True)
    r = rng.random((_STATES, _ACTIONS))
    idx = np.arange(_STATES)
    cum = t[0, 0].cumsum()
    eye = np.eye(_STATES)
    acc = 0.0
    start = time.perf_counter()
    for i in range(_SOLVES):
        policy = (i * 7 + idx) % _ACTIONS
        v = np.linalg.solve(eye - 0.95 * t[policy, idx, :], r[idx, policy])
        acc += float((r + 0.95 * (t @ v).T).max())
        for _ in range(_DRAWS):
            acc += int(np.searchsorted(cum, rng.random()))
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed
