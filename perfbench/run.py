"""entbound benchmark: one workload, measured for a fixed time, outputs checked.

Usage, from the repository root:
    python3 perfbench/run.py --workload large_n --seed 1 --seconds 12 --trace 0

Workloads: large_n, many_shots, split_gains, oracle_sandwich (see README.md).
Each round runs in a fresh worker process (worker.py) with BLAS/OpenMP
pinned to one thread. A run holds at least three rounds, and more until the
rounds' set-up and timed phases add up to --seconds. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the medians over rounds of the end-to-end metrics with
--trace 0, of the per-layer metrics of traced rounds with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("large_n", "many_shots", "split_gains", "oracle_sandwich")
# A round takes 5-10 s; the whole run must end within 180 s.
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 60
RUN_LIMIT_S = 150
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for name in PINNED_THREADS:
        env[name] = "1"
    return env


def run_round(workload: str, seed: int, trace: bool, full_checks: bool, env: dict) -> dict:
    workdir = os.path.join(WORKDIR, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           "1" if trace else "0", "full" if full_checks else "quick", workdir]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S, check=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # CLOCK_MONOTONIC is shared by all processes: from spawn to inputs ready.
    result["setup_s"] = result["ready"] - spawned
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "entbound", "__init__.py")):
        print(f"error: no entbound sources under {SRC}", file=sys.stderr)
        return 2

    env = worker_env()
    start = time.perf_counter()
    rounds = []
    try:
        # A run is whole rounds: at least MIN_ROUNDS, and until the rounds'
        # set-up and timed phases add up to --seconds. Check time does not
        # count, so the first round's extra shuffle checks leave the number
        # of rounds unchanged.
        while True:
            rounds.append(run_round(args.workload, args.seed, bool(args.trace), not rounds, env))
            measured = sum(r["setup_s"] + r["wall_s"] for r in rounds)
            elapsed = time.perf_counter() - start
            if len(rounds) >= MIN_ROUNDS and measured >= args.seconds:
                break
            # Start no round that would likely end past the run's limit.
            if elapsed + elapsed / len(rounds) >= RUN_LIMIT_S:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.isdir(WORKDIR) and not os.listdir(WORKDIR):
            os.rmdir(WORKDIR)

    # A failed operation counts in `failed`; a failed check makes the run
    # incorrect.
    for r in rounds:
        for e in r["failures"]:
            print(f"failed operation: {e}", file=sys.stderr)
    errors = [e for r in rounds for e in r["errors"]]
    for e in errors:
        print(e, file=sys.stderr)
    # Every metric is the median over the run's rounds.
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name][0] for r in rounds), "unit": unit}
            for name, (_, unit) in rounds[0]["layers"].items()
        }
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
            for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
                               ("peak_rss_mb", "MB"))
        }
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
