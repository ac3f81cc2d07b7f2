"""Reference figures quoted in the README.

    python3 twistbench/baselines.py

Times the ROADMAP north-star baselines (100 involution and 100 braid
samples of theta_map at m = 1 and m = 2) with BLAS pinned to one thread,
and 20 m = 2 theta involution samples pinned and unpinned, each in a
fresh process from the checkout's src/.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SNIPPET = """
import sys, time
import twistlab as tl
m, check, samples = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
fn = {"involution": tl.verify_involution, "braid": tl.verify_braid}[check]
t0 = time.perf_counter()
rep = fn(tl.theta_map(m, 1j), samples=samples, seed=0)
assert rep.passed
print(time.perf_counter() - t0)
"""


def timed(m, check, samples, pinned):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    if pinned:
        env.update({k: "1" for k in THREAD_VARS})
    out = subprocess.run([sys.executable, "-c", SNIPPET, str(m), check, str(samples)],
                         env=env, capture_output=True, text=True, check=True)
    return float(out.stdout)


def main():
    import numpy

    sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    print(f"git {sha.stdout.strip() or 'unknown'}, nproc {os.cpu_count()}, numpy {numpy.__version__}")
    for m in (1, 2):
        for check in ("involution", "braid"):
            print(f"theta_map m={m}: 100 {check} samples {timed(m, check, 100, True):.2f} s (pinned)")
    for pinned in (True, False):
        label = "pinned" if pinned else "unpinned"
        print(f"theta_map m=2: 20 involution samples {1e3 * timed(2, 'involution', 20, pinned):.0f} ms ({label})")


if __name__ == "__main__":
    main()
