"""Run one workload in this (fresh) process and print one JSON line.

Started by run.py.  With --setup-only the process imports twistlab,
builds the workload's inputs and reports when it was ready.  Otherwise
it runs whole rounds of ops, one at a time, until --seconds have passed
and at least MIN_OPS ops were timed (or exactly --rounds rounds), checks
every output between ops, stops at the first failure, and reports the
ops' CPU times, the peak resident set, and with --trace 1 the per-layer
metrics.

Times are CPU times (cpu_now): the work is single-threaded with BLAS
pinned to one thread, so on an idle machine an op's CPU time is its wall
time, and unlike wall time it leaves out the time the virtual CPU spent
descheduled by the host (on kernels that account steal time) or running
other processes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_OPS = 100
MAX_SECONDS = 120.0  # run.py ends the whole command, set-up processes included, within 175 s


def cpu_now() -> float:
    """CPU seconds used so far by this process and its waited-for children
    (a CLI op's work is in its child)."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def run_rounds(wl, seconds: float, rounds: int, tracer, log):
    """Run whole rounds until the time and MIN_OPS are reached (or exactly
    `rounds` rounds).  The first op that raises or output that fails its
    check ends the run, so a broken program stops at once; MAX_SECONDS
    ends a run whose ops became too slow to reach MIN_OPS in time.
    Returns the (op name, CPU seconds) of every op that completed."""
    durations: list[tuple[str, float]] = []
    attempted = failed = 0
    correct = True
    from checks import CheckFailed

    start = time.perf_counter()
    r = 0
    while failed == 0 and correct:
        gen = wl.round(r)
        try:
            op = next(gen)
            while True:
                attempted += 1
                if tracer is not None:
                    tracer.op, tracer.active = attempted, True
                t0 = cpu_now()
                try:
                    out = op.call()
                    elapsed = cpu_now() - t0
                except Exception as exc:  # the program rejected a valid input
                    failed += 1
                    log(f"round {r} op {op.name} failed: {type(exc).__name__}: {exc}")
                    gen.close()
                    break
                finally:
                    if tracer is not None:
                        tracer.active = False
                durations.append((op.name, elapsed))
                try:
                    op = gen.send(out)
                except CheckFailed as exc:
                    correct = False
                    log(f"round {r} op {op.name} output failed its check: {exc}")
                    break
        except StopIteration:
            pass
        r += 1
        spent = time.perf_counter() - start
        if rounds:
            if r >= rounds:
                break
        elif (spent >= seconds and len(durations) >= MIN_OPS) or spent >= MAX_SECONDS:
            break
    return durations, attempted, failed, correct, r


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    vals = sorted(values)
    pos = (len(vals) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def kind_percentile(durations, q: float) -> float:
    """Geometric mean over op kinds of each kind's q-quantile.

    A round mixes kinds whose times differ several-fold (theta_verify's
    m = 1 and m = 2 ops are exactly half each), so a quantile of all ops
    pooled can sit on the edge between two kinds and jump between them
    from run to run; a quantile per kind cannot.  Only the 90th percentile
    is reported: on a shared host the same op runs up to a third faster
    in the host's quiet spells, whose share of a run varies, so a kind's
    mean, median and lower quantiles move with that share while its 90th
    percentile stays on the host's usual speed."""
    kinds: dict[str, list[float]] = {}
    for name, t in durations:
        kinds.setdefault(name, []).append(t)
    if not kinds:
        return 0.0
    return math.exp(sum(math.log(percentile(v, q)) for v in kinds.values()) / len(kinds))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import twistlab

    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliCold:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        wl = cls(twistlab, args.seed, ROOT, dict(os.environ), out_dir, traced=bool(args.trace))
    else:
        wl = cls(twistlab, args.seed)
    ready = time.process_time()  # CPU seconds from the process's start to here
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    def log(msg):
        print(msg, file=sys.stderr)

    durations, attempted, failed, correct, rounds = run_rounds(wl, args.seconds, args.rounds, tracer, log)
    if cls is workloads.CliCold:
        peak_kb = wl.peak_rss_kb  # the largest CLI child's own peak
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "ready": ready,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "rounds": rounds,
        "ops": len(durations),
        "op_p90_s": kind_percentile(durations, 0.9),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if tracer is not None:
        cli_times = getattr(wl, "cli_times", [])
        for rec in getattr(wl, "cli_layers", []):
            tracer.merge(rec)
        result["layers"] = tracing.layer_metrics(tracer, cli_times)
        meta = {"workload": args.workload, "seed": args.seed, "rounds": rounds, "ops": attempted,
                "columns": ["id", "name", "start", "end", "parent", "op"]}
        tracer.write(args.trace_file, meta)
        if cls is workloads.CliCold:
            with open(args.trace_file, "a") as fh:
                for k, rec in enumerate(wl.cli_layers, start=1):
                    for span in rec["spans"]:
                        fh.write(json.dumps([span[0], span[1], span[2], span[3], span[4], k]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
