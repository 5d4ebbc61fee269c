"""holostar benchmark: drives ``holostar.cli.main`` in process, closed loop.

One client in one process sends the next op only after the previous one
returned.  Each op is a fresh document made from the workload seed (see
workloads.py); its output is checked outside the timed interval, and any
miss counts as a failed op.  Op and set-up times are scaled to reference
host speed (see hostspeed.py).

    python3 perfbench/run.py --workload sim-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5     # every metric, every workload

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced,
then traced (see tracer.py), then the kernel sweep (sweep.py), and reports
the per-layer metrics.  The last line of stdout is the JSON result; the line
before it records the run's provenance, sample counts and raw wall times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One client, one process, no extra threads: BLAS always runs single-threaded,
# whatever the caller's environment says, so every run measures the same
# configuration.  (On a shared 2-core host, 2 BLAS threads stalled single n=15
# gate applies for 8 ms.)  numpy reads these variables on import.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from hostspeed import REFERENCE_S, calibration_s  # noqa: E402
from workloads import WORKLOADS, make_op  # noqa: E402

HERE = Path(__file__).resolve()
SRC = HERE.parent.parent / "src"
SETUP_PROBES = 5
# Calibrations a traced run takes before its first op, for the idle median.
IDLE_CALIBRATIONS = 30
# With tracing on: share of --seconds spent on untraced ops (the overhead
# baseline) and on traced ops; the kernel sweep takes about one second more.
UNTRACED_SHARE, TRACED_SHARE = 0.3, 0.5


def import_holostar():
    """Import holostar from this checkout's sources, never from elsewhere."""
    if not (SRC / "holostar" / "__init__.py").is_file():
        sys.exit(f"error: holostar sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import holostar
    import holostar.cli
    if Path(holostar.__file__).resolve().parent != SRC / "holostar":
        sys.exit(f"error: imported holostar from {holostar.__file__}, not {SRC}")
    return holostar


def run_op(cli, op):
    """Run one op through ``cli.main``, looked up at call time so a traced
    binding is used; returns (seconds, exit code, stdout, stderr)."""
    sys.stdin = io.StringIO(op.stdin)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = cli.main(op.argv)
        except SystemExit as e:  # argparse rejects arguments this way
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a traceback is a failed op, not a crashed run
            code = f"{type(e).__name__}: {e}"
        elapsed = (time.perf_counter_ns() - start) / 1e9
    sys.stdin = sys.__stdin__
    return elapsed, code, out.getvalue(), err.getvalue()


class Loop:
    """The one closed-loop client: op 0 is the untimed warm-up, then ops 1, 2, ..."""

    def __init__(self, cli, workload, seed):
        self.cli, self.workload, self.seed = cli, workload, seed
        self.next_index = 0
        self.attempted = self.failed = 0
        self.raw: list[float] = []  # wall seconds of every op
        self.cal: list[float] = [calibration_s()]  # cal[i], cal[i + 1] bracket op i

    def step(self, on_done=None) -> bool:
        """Make, run, time and check the next op; returns whether it passed."""
        op = make_op(self.workload, self.seed, self.next_index)
        self.next_index += 1
        elapsed, code, out, err = run_op(self.cli, op)
        self.cal.append(calibration_s())
        reason = on_done(op) if on_done else None
        if reason is None:
            if isinstance(code, str):
                reason = code
            else:
                try:
                    reason = self.workload.check(op, code, out)
                except (ValueError, KeyError, TypeError) as e:
                    reason = f"unreadable output: {type(e).__name__}: {e}"
        self.attempted += 1
        self.raw.append(elapsed)
        if reason is not None:
            self.failed += 1
            print(f"op {op.argv[0]} #{self.next_index - 1} failed: {reason} "
                  f"{err.strip()[:200]}", file=sys.stderr)
        return reason is None

    def factor(self, i: int) -> float:
        """What scales op i's times to reference host speed.  The host's speed
        is the median of the 10 calibrations around the op: it drifts over
        seconds, while a single calibration also catches sub-millisecond
        hiccups."""
        return REFERENCE_S / statistics.median(self.cal[max(0, i - 4):i + 6])

    def scaled(self, i: int) -> float:
        """Op i's time at reference host speed."""
        return self.raw[i] * self.factor(i)

    def run_for(self, op_seconds, min_ops=1, on_done=None):
        """Time ops until their wall time adds up to ``op_seconds`` and at
        least ``min_ops`` ran; returns (their indices, how many passed)."""
        first, passed = len(self.raw), 0
        wall_end = time.monotonic() + 3 * op_seconds + 20
        while ((sum(self.raw[first:]) < op_seconds or len(self.raw) - first < min_ops)
               and time.monotonic() < wall_end):
            passed += self.step(on_done)
        return range(first, len(self.raw)), passed


def setup_probe(args):
    """Child process: everything a user pays before the first useful op."""
    holostar = import_holostar()
    run_op(holostar.cli, make_op(WORKLOADS[args.workload], args.seed, 0))
    print(time.monotonic_ns())


def measure_setup(args) -> tuple[list[float], list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to the end of its warm-up
    op, raw and at reference host speed, and the calibrations taken around
    the probes (before this process ran any op)."""
    raw, scaled, idle = [], [], []
    cmd = [sys.executable, str(HERE), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        cal = [calibration_s() for _ in range(3)]
        start = time.monotonic_ns()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            sys.exit(f"error: setup probe failed: {done.stderr.strip()[-300:]}")
        raw.append((int(done.stdout.split()[-1]) - start) / 1e9)
        cal += [calibration_s() for _ in range(3)]
        scaled.append(raw[-1] * REFERENCE_S / statistics.median(cal))
        idle += cal
    return raw, scaled, idle


def end_to_end(args, holostar, workload):
    setup_raw, setup, idle = measure_setup(args)
    loop = Loop(holostar.cli, workload, args.seed)
    loop.step()
    # enough ops that at least 10 lie beyond the tail percentile
    min_ops = math.ceil(10 / (1 - workload.tail_percentile / 100))
    ops, passed = loop.run_for(args.seconds, min_ops)
    times = [loop.scaled(i) for i in ops]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (passed / sum(times), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(times), "ms"),
        "op_ms_tail": (1e3 * float(np.percentile(times, workload.tail_percentile)), "ms"),
        "ok_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {
        "samples": {"setup_s": len(setup), "ops_per_s": len(times), "op_ms_p50": len(times),
                    "op_ms_tail": len(times), "ok_ratio": loop.attempted, "peak_rss_mb": 1},
        "tail_percentile": workload.tail_percentile,
        "wall": {"setup_s": statistics.median(setup_raw),
                 "op_ms_p50": 1e3 * statistics.median(loop.raw[1:]),
                 "calibration_s": statistics.median(loop.cal),
                 "idle_calibration_s": statistics.median(idle)},
    }
    return loop, metrics, report


def per_layer(args, holostar, workload):
    from sweep import kernel_sweep
    from tracer import Tracer, completeness_errors, layer_metrics

    idle = [calibration_s() for _ in range(IDLE_CALIBRATIONS)]
    loop = Loop(holostar.cli, workload, args.seed)
    loop.step()
    plain, _ = loop.run_for(UNTRACED_SHARE * args.seconds, min_ops=3)
    tracer, traced_ops = Tracer(), []

    def close_op(op):
        totals = tracer.reset()
        traced_ops.append(totals)
        errors = completeness_errors(totals, op.predicted)
        return "tracer incomplete: " + "; ".join(errors) if errors else None

    tracer.install()
    try:
        tracer.reset()
        traced, _ = loop.run_for(TRACED_SHARE * args.seconds, min_ops=3, on_done=close_op)
    finally:
        tracer.uninstall()
    for i, totals in zip(traced, traced_ops):
        totals.scale = loop.factor(i)
    metrics = layer_metrics(traced_ops)
    metrics["trace.overhead_ratio"] = (
        statistics.median(map(loop.scaled, traced)) / statistics.median(map(loop.scaled, plain)),
        "ratio")
    metrics.update(kernel_sweep(holostar.kernels.apply_gate_inplace, args.seed))
    report = {"samples": {"untraced_ops": len(plain), "traced_ops": len(traced)},
              "wall": {"calibration_s": statistics.median(loop.cal),
                       "idle_calibration_s": statistics.median(idle)}}
    return loop, metrics, report


def provenance(args, holostar) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "holostar": holostar.__version__,
        "backend": holostar.kernels.BACKEND,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "cpu": cpu, "nproc": NPROC, "reference_calibration_s": REFERENCE_S,
    }


def run_all(args):
    """Every workload, untraced then traced, as child runs; prints one table."""
    correct, attempted, failed, rows = True, 0, 0, []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                sys.exit(f"error: {name} --trace {trace} exited {done.returncode}")
            result = json.loads(done.stdout.splitlines()[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            rows += [(name, metric, m["value"], m["unit"])
                     for metric, m in result["metrics"].items()]
    for name, metric, value, unit in rows:
        print(f"{name:16} {metric:48} {value:14.6g} {unit}")
    print(f"outputs correct: {correct} ({failed} of {attempted} ops failed)")
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)

    holostar = import_holostar()
    workload = WORKLOADS[args.workload]
    loop, metrics, report = (per_layer if args.trace else end_to_end)(args, holostar, workload)
    print(json.dumps({"provenance": provenance(args, holostar), **report}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
