"""One run of one workload, in a child process started by ``run.py``.

    python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR [--spans PATH]

Imports entdistill before anything else so that its import time is
measured, repeats the workload's round of calls for S seconds, checks
every output and prints one JSON object as its last stdout line. With
``--trace 1`` it runs untraced for S/2 seconds, then a fixed number of
rounds under the tracer, and reports per-layer metrics instead of
end-to-end ones.
"""

import time

_t0 = time.perf_counter()
import entdistill  # noqa: E402,F401
IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Check, invoke  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Rounds run under the tracer: a fixed amount of work, so that per-layer
#: call counts repeat exactly from run to run.
TRACED_ROUNDS = {"sweep_grid_csv": 1, "sweep_het_json": 1, "verify_full": 1, "point_queries": 25}


@dataclass
class Round:
    """What one round measured; calls are not kept, so memory stays flat."""

    seconds: list[float]  # per call, in round order, in calibrated seconds
    check: Check
    failed: list


def run_rounds(workload, argvs, seconds=None, count=None, tracer=None) -> list[Round]:
    """Run and check rounds of ``argvs`` until the time or the count is reached.

    The tracer, if any, is installed only while a round's calls run, so
    the checks leave no spans.
    """
    done = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.run_id = len(done)
            tracer.install()
        try:
            calls = [invoke(argv) for argv in argvs]
        finally:
            if tracer is not None:
                tracer.uninstall()
        check = workload.check_round(calls)
        done.append(Round([c.scaled_s for c in calls], check,
                          [c for c in calls if c.failed]))
        if count is not None and len(done) >= count:
            return done
        if deadline is not None and time.perf_counter() >= deadline:
            return done


def medians(samples: list[dict]) -> dict:
    """Per key, the median of its values over the rounds that have it."""
    values: dict = {}
    for sample in samples:
        for key, value in sample.items():
            values.setdefault(key, []).append(value)
    return {key: statistics.median(v) for key, v in values.items()}


def call_seconds(rounds: list[Round]) -> list[float]:
    """Each call of the round at its median over the rounds."""
    return list(medians([dict(enumerate(r.seconds)) for r in rounds]).values())


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def end_to_end(plain: list[Round]) -> dict:
    """End-to-end metrics of the untraced rounds."""
    calls = call_seconds(plain)
    wall = sum(calls)
    check_s = medians([r.check.seconds for r in plain])
    points = {k: p for r in plain for k, p in r.check.points.items()}
    # A failed output has no checks; the run then reports a zero rate and correct: false.
    check_total = sum(check_s.values())
    return {
        "wall_s": (wall, "s"),
        "rows_per_s": (plain[0].check.rows / wall, "rows/s"),
        "verify_points_per_s": (sum(points[k] for k in check_s) / check_total
                                if check_total else 0.0, "points/s"),
        "call_p50_ms": (statistics.median(calls) * 1e3, "ms"),
        "call_p90_ms": (p90(calls) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    argvs = workload.round()
    try:
        # One untimed round first: allocator growth and lazy imports settle.
        warm = run_rounds(workload, workload.warmup(), count=1)
        plain = run_rounds(workload, argvs,
                           seconds=args.seconds / 2 if args.trace else args.seconds)
        if args.trace:
            tracer = Tracer()
            traced = run_rounds(workload, argvs, count=TRACED_ROUNDS[args.workload],
                                tracer=tracer)
            metrics = tracer.metrics()
            metrics["import.self_s"] = (IMPORT_S, "s")
            metrics["trace_overhead_frac"] = (
                sum(call_seconds(traced)) / sum(call_seconds(plain)) - 1, "ratio")
            if args.spans:
                tracer.write(args.spans)
        else:
            traced = []
            metrics = end_to_end(plain)
    finally:
        workload.cleanup()

    rounds = warm + plain + traced
    failed = [c for r in rounds for c in r.failed]
    print(json.dumps({
        "attempted": sum(len(r.seconds) for r in rounds),
        "failed": len(failed),
        "failures": [{"argv": c.argv, "rc": c.rc, "error": c.error} for c in failed[:3]],
        "rounds": len(rounds),
        "call_samples": sum(len(r.seconds) for r in plain),
        "env": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
