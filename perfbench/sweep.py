"""Kernel sweep through the public dispatcher.

Times ``holostar.kernels.apply_gate_inplace`` as callers use it, argument
validation included, on whichever backend the package selected.  The sizes
bracket the workloads: n=4 is near the 1- and 3-qubit local states verify
evolves, n=11 and n=15 are sim-small and sim-wide with the auxiliary, and
n=18 is a 4 MiB state that no longer fits in a per-core cache.  Times are
scaled to reference host speed by the calibrations between batches (see
hostspeed.py).
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

import numpy as np

from hostspeed import REFERENCE_S, calibration_s

SIZES = (4, 11, 15, 18)
ARITIES = (1, 3)
BATCH_NS = 20_000_000  # one timed batch of calls lasts about this long
BATCHES = 7


def _targets(n: int, m: int) -> tuple[int, ...]:
    return (n // 2,) if m == 1 else (0, n // 2, n - 1)


def _unitary(dim: int, rng) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return q


def kernel_sweep(apply_gate_inplace, seed: int) -> dict[str, tuple[float, str]]:
    """Median microseconds per call for each (n, m) at reference host speed,
    as per-layer metrics."""
    rng = np.random.default_rng([seed, 2])
    out = {}
    for n in SIZES:
        state = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        state /= np.linalg.norm(state)
        for m in ARITIES:
            gate, targets = _unitary(1 << m, rng), _targets(n, m)
            start = perf_counter_ns()
            apply_gate_inplace(state, gate, targets)
            reps = max(1, BATCH_NS // max(1, perf_counter_ns() - start))
            per_call, cal = [], [calibration_s()]
            for _ in range(BATCHES):
                start = perf_counter_ns()
                for _ in range(reps):
                    apply_gate_inplace(state, gate, targets)
                per_call.append((perf_counter_ns() - start) / reps / 1e3)
                cal.append(calibration_s())
            out[f"kernels.sweep.n{n}.m{m}.us"] = (
                statistics.median(per_call) * REFERENCE_S / statistics.median(cal), "us")
    return out
