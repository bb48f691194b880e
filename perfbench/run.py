#!/usr/bin/env python3
"""Build the perfbench driver from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-grid|secure-rw|tenant-mix \
        --seed N --seconds S --trace 0|1 [--smoke]

The driver is configured as a Release build in .bench_build/perfbench
(the first run builds it; later runs re-configure, so the revision
stamps follow the tree, and rebuild only what changed), then run with
the same arguments. Its standard output is passed through unchanged, so
the last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Build output goes to .bench_build/perfbench/build.log. The exit status
is non-zero, and no result is printed, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper-grid", "secure-rw", "tenant-mix")
# A run must finish in 180 s; stop the driver a little before that.
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes (the smoke test)")
    return p.parse_args()


def jobs():
    return max(1, min(os.cpu_count() or 1, 4))


def build():
    """Configure and build the driver; returns its path."""
    build_dir = os.path.join(REPO_ROOT, ".bench_build", "perfbench")
    # Keep the compiler's scratch files inside the checkout too.
    tmp_dir = os.path.join(REPO_ROOT, ".bench_build", "tmp")
    os.makedirs(build_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    log_path = os.path.join(build_dir, "build.log")
    # Configure on every run: the git revision and code version stamps
    # are read at configure time, so a commit or checkout in the same
    # tree must reach them. With a cache present this is quick.
    steps = [["cmake", "-S", BENCH_DIR, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target",
              "perfbench_driver", "-j", str(jobs())]]
    with open(log_path, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               env=env) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (see %s)\n"
                                 % log_path)
                sys.exit(1)
    return os.path.join(build_dir, "perfbench_driver")


def main():
    args = parse_args()
    driver = build()
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--repo-root", REPO_ROOT]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: driver exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(1)
    sys.exit(rc)


if __name__ == "__main__":
    main()
