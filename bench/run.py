"""Benchmark entdistill: one workload per run, measured in a fresh child process.

    python3 bench/run.py --workload sweep_grid_csv --seed 1 --seconds 12 --trace 0

Run it from the repository root; it imports the package from ``src/``.
Children get ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1`` in
their own environment. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Timings are in calibrated seconds (see ``calib.py``).
Outputs and spans go to ``.bench_work/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calib import calibration_s, scaled

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep_grid_csv", "sweep_het_json", "verify_full", "point_queries")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 10
CHILD_TIMEOUT = 150
#: Length of the traced diagnostic pass of verify_full with default BLAS threads.
DIAGNOSTIC_SECONDS = 2


class BenchError(Exception):
    pass


def child_env(root: Path, pinned: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env.pop(var, None)
    if pinned:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def setup_seconds(env: dict) -> float:
    """Calibrated seconds from starting a child until its ``import entdistill`` returns."""
    code = "import entdistill, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    calibration = calibration_s()
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=CHILD_TIMEOUT)
    if line != b"ready\n" or proc.returncode != 0:
        raise BenchError("importing entdistill failed")
    return scaled(elapsed, calibration)


def run_child(env: dict, workload: str, seed: int, seconds: float, trace: int,
              work: Path, spans: Path) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(work), "--spans", str(spans)]
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} did not finish within {CHILD_TIMEOUT} s") from exc
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "entdistill" / "__init__.py").is_file():
        print("error: run from the repository root; src/entdistill not found", file=sys.stderr)
        return 2
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    pinned = child_env(root, pinned=True)
    try:
        setup_seconds(pinned)  # untimed: byte-compiles the package in a fresh checkout
        # Half the set-up samples before the workload and half after, so
        # that they span the run.
        samples = 0 if args.trace else SETUP_SAMPLES // 2
        setup = [setup_seconds(pinned) for _ in range(samples)]
        res = run_child(pinned, args.workload, args.seed, args.seconds, args.trace,
                        work, work / f"spans-{args.workload}.json")
        setup += [setup_seconds(pinned) for _ in range(samples)]
        diag = None
        if args.trace and args.workload == "verify_full":
            diag = run_child(child_env(root, pinned=False), args.workload, args.seed,
                             DIAGNOSTIC_SECONDS, 1, work, work / "spans-verify_full-default-threads.json")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    env = dict(res["env"], commit=git_commit(root))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_samples": setup,
        "attempted": res["attempted"], "failed": res["failed"],
        "ops_failed_frac": res["failed"] / res["attempted"],
        "call_samples": res["call_samples"], "metrics": metrics,
        "default_threads": diag and diag["metrics"],
    }
    (work / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for failure in res["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(f"environment: {json.dumps(env)}")
    print(f"{'ops_failed_frac':<44} {record['ops_failed_frac']:<14.6g} ratio"
          f" ({res['failed']} of {res['attempted']} operations)")
    if not args.trace:
        print(f"{'latency samples':<44} {res['call_samples']}")
    for name, m in sorted(metrics.items()):
        extra = f"  default threads: {diag['metrics'][name]['value']:.6g}" if diag else ""
        print(f"{name:<44} {m['value']:<14.6g} {m['unit']}{extra}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
