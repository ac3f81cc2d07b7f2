"""CLI child: python3 cli_entry.py [--trace] OUT.json SUBCOMMAND [ARGS...]

Without --trace it runs twistlab.cli as `python -m twistlab.cli` would
and, at exit, writes this process's peak resident set to OUT.json.  It
reads VmHWM from /proc/self/status: exec starts a new address space, so
unlike the parent's RUSAGE_CHILDREN figure it holds none of the parent's
memory.

With --trace it times the numpy and twistlab imports, installs the trace
wrappers, runs twistlab.cli.run on the arguments and writes the import
and run times with the span aggregates to OUT.json.

Either way it exits with the CLI's exit code.
"""

import json
import os
import sys
import time


def untraced(out: str, argv: list) -> None:
    import atexit
    import runpy

    def write_peak():
        with open("/proc/self/status") as fh:
            kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
        with open(out, "w") as fh:
            json.dump({"peak_rss_kb": kb}, fh)

    atexit.register(write_peak)
    sys.path[0] = os.getcwd()  # as under -m: the working directory, not this one
    sys.argv = [sys.argv[0]] + argv
    runpy.run_module("twistlab.cli", run_name="__main__", alter_sys=True)


def traced(out: str, argv: list) -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import twistlab.cli

    t2 = time.perf_counter()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.active = True
    tracer.op = 0
    t3 = time.perf_counter()
    code = twistlab.cli.run(argv)
    t4 = time.perf_counter()
    record = tracer.export()
    record["times"] = {
        "cli.import_numpy_s": t1 - t0,
        "cli.import_twistlab_s": t2 - t1,
        "cli.run_s": t4 - t3,
    }
    record["spans"] = list(tracer.spans())
    with open(out, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "--trace":
        sys.exit(traced(sys.argv[2], sys.argv[3:]))
    untraced(sys.argv[1], sys.argv[2:])
