"""twistlab benchmark.

    python3 twistbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
src/, nothing is installed).  Each workload runs in a fresh worker
process with OpenBLAS/OMP/MKL pinned to one thread.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Set-up and op times are CPU seconds (see
worker.py).  The exit code is 1 when any output failed its
check and 2 on a usage error or when the checkout has no src/twistlab.

--rounds N replaces the time limit by exactly N rounds (quick mode).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("theta_verify", "theta_refactor", "algebra", "cli_cold")
SETUPS = 11  # processes whose set-up time is measured; the upper quartile is reported
# traced runs make a fixed number of rounds, so that their counts repeat
TRACE_ROUNDS = {"theta_verify": 20, "theta_refactor": 25, "algebra": 10, "cli_cold": 7}
DEADLINE_S = 175.0  # the whole command must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("TWISTLAB_SEED", "TWISTLAB_JIT"):
        env.pop(var, None)
    return env


def start_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run one worker to completion; returns its parsed result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                              timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {' '.join(args)} did not end within {DEADLINE_S:.0f} s of the start")
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "twistlab", "__init__.py")):
        print(f"no twistlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_file = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        rounds = args.rounds or TRACE_ROUNDS[args.workload]
        res = start_worker(common + ["--trace", "1", "--trace-file", trace_file, "--rounds", str(rounds)], env, deadline)
        metrics = res["layers"]
    else:
        def setup_only():
            return start_worker(common + ["--setup-only"], env, deadline)["ready"]

        # Process start-up drifts with the machine's load over tens of
        # seconds, so half the set-up samples are taken before the timed
        # worker and half after it.
        setups = [setup_only() for _ in range(SETUPS // 2)]
        res = start_worker(common + ["--rounds", str(args.rounds)], env, deadline)
        setups.append(res["ready"])
        setups += [setup_only() for _ in range(SETUPS - 1 - SETUPS // 2)]
        metrics = {
            "setup_s": {"value": statistics.quantiles(setups, n=4)[2], "unit": "s"},
            "op_cpu_p90_ms": {"value": 1e3 * res["op_p90_s"], "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload}: {res['rounds']} rounds, {res['ops']} timed ops", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if res["correct"] and not res["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
