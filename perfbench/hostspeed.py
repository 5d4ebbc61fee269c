"""Host-speed calibration, so op times from a shared host compare across runs.

On the shared 2-vCPU host the benchmark was defined on, the speed of the
whole machine drifted by up to 1.7x over tens of seconds: the median op time
of one 12 s window ranged from 21 to 32 ms on the same sim-small inputs, while
process CPU time tracked wall time (the process was slowed, not descheduled).
So a fixed calibration loop runs between ops, and each op's time is scaled
by REFERENCE_S / (calibration time around the op): a time in "reference ms"
is what the op would take while the calibration loop runs in REFERENCE_S.
On that host, across the four workloads, this cut the spread of 6 s window
medians from 0.07-0.46 to 0.01-0.13 (interquartile range over median);
across ten seeded 20 s runs the scaled medians spread at most 0.07.

The loop mixes the kinds of work holostar's ops do, in about equal time:
interpreted Python calls, small-matrix numpy dispatch, a gate pass over a
2^15-amplitude vector, and float formatting.  It uses no holostar code and
allocates no garbage-collected objects, so a change to the program does not
change the work the yardstick does.  It is not fully independent of the
program, though: it runs in the same process right after each op, so it
shares the CPU caches and the allocator's state (glibc's dynamic mmap
threshold, for one) with the op, and a change to the program's memory
footprint can move it and partly cancel a real gain or regression.  The
record line therefore shows the idle calibration median, taken before any op
ran, next to the in-loop median; when the two part, the op has shifted the
yardstick.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

# Median calibration time on the defining host (Intel Xeon, 2.1 GHz, 2 vCPU).
REFERENCE_S = 2.2e-3

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((4, 4)) + 0j
_WIDE = _rng.standard_normal(1 << 15) + 0j
_WIDE /= np.linalg.norm(_WIDE)
_GATE = np.linalg.qr(_rng.standard_normal((2, 2)))[0] + 0j
_FLOATS = _rng.standard_normal(400).tolist()


def _step(x: float) -> float:
    return x * 0.9999999 + 1e-9


def calibration_s() -> float:
    """Seconds the fixed calibration loop takes right now."""
    start = perf_counter_ns()
    x = 0.5
    for _ in range(5000):
        x = _step(x)
    for _ in range(40):
        np.moveaxis((_SMALL @ _SMALL).reshape(2, 2, 2, 2), [0, 1], [2, 3]).copy()
    t = np.moveaxis(_WIDE.reshape((2,) * 15), [7], [0])
    out = (_GATE @ t.reshape(2, -1)).reshape(t.shape)
    _WIDE[:] = np.moveaxis(out, [0], [7]).reshape(-1)
    ",".join(format(v, ".17g") for v in _FLOATS)
    return (perf_counter_ns() - start) / 1e9
