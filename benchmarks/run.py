"""Benchmark of the tontine solvers' public entry points.

Usage, from the root of the repository:

    python3 benchmarks/run.py --workload scaling-desk --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30
    python3 benchmarks/run.py --workload ez-grid --seed 1 --check

``--trace 0`` times the calls and prints the end-to-end metrics, scaled to a
reference machine speed (calibration.py); ``--trace 1``
prints the per-layer metrics of a traced run; ``--check`` runs one untimed
pass of every call and its checks. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

This launcher imports nothing beyond the standard library. It pins the
BLAS thread pools to one thread, measures set-up in fresh processes, and
runs the workload in one more process (worker.py), which it waits for.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scaling-desk", "ez-grid", "transfer-mc")
DEADLINE_S = 175.0  # every run ends within this, or fails
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"
)


class BenchmarkError(RuntimeError):
    pass


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py; echo its report and return its JSON result line."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=None if remaining == float("inf") else remaining,
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchmarkError(f"worker {args} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {args} exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    probe = [*common, "--mode", "setup"]
    if mode != "time":
        return worker([*common, "--seconds", str(seconds), "--mode", mode], deadline)
    # Set-up samples: a set-up-only process before and after the measuring
    # process, and the measuring process's own set-up.
    setup = [worker(probe, deadline)]
    result = worker([*common, "--seconds", str(seconds), "--mode", mode], deadline)
    setup += [result.pop("setup"), worker(probe, deadline)]
    value = statistics.median(s["setup_s"] for s in setup)
    raw = statistics.median(s["raw_s"] for s in setup)
    result["metrics"]["setup_s"] = {"value": value, "unit": "s"}
    print(f"  {'setup_s':<48} {value:>14.6g} s  (median of {len(setup)} fresh processes)")
    print(f"  {'set-up wall time, not scaled':<48} {raw:>14.6g} s")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="one untimed pass of every call and its checks")
    args = parser.parse_args()
    if not (ROOT / "src" / "tontine" / "optimizer.py").is_file():
        print(f"benchmark: the tontine sources are not under {ROOT / 'src'}", file=sys.stderr)
        return 2
    mode = "check" if args.check else ("trace" if args.trace else "time")
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, mode, deadline)
            print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0
        results = {}
        for workload in WORKLOADS:
            modes = ("check",) if args.check else ("time", "trace")
            for m in modes:
                results[f"{workload}/{m}"] = run_workload(workload, args.seed, args.seconds, m, float("inf"))
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
