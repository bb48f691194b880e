#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes.

Usage (from the repository root):

    python3 perfbench/smoke_test.py

Builds the driver through run.py, checks the tail-percentile rule with
the driver's --self-test, then runs every workload of BENCHMARK.json
with --smoke, untraced and traced, and asserts that:

  - the run exits 0 and its last line is the result object with
    exactly the keys correct, attempted, failed and metrics;
  - every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is emitted with its unit, and no other metric is;
  - every check passed: failed is 0, and error_rate is 0;
  - the run is stamped with its build type, compiler, core count,
    crypto backend, code version, git revision and seed.

The smoke sizes (two Table VII workloads at a 4000-cycle cap, a 1 MiB
secure context, two short quantums) test the benchmark's plumbing, not
the program at scale.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
STAMPS = ("buildType", "compiler", "nproc", "cryptoBackend", "codeVersion",
          "gitRev", "seed")


class SmokeFailure(Exception):
    pass


def fail(msg):
    raise SmokeFailure(msg)


def run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        fail("%s trace=%d exited %d:\n%s" % (workload, trace, out.returncode,
                                            out.stderr[-2000:]))
    failed_checks = [l for l in out.stderr.splitlines()
                     if l.startswith("perfbench: check failed")]
    return out.stdout.strip().splitlines(), failed_checks


def check_result(workload, trace, run_output, expected):
    lines, failed_checks = run_output
    where = "%s trace=%d" % (workload, trace)
    config = [l for l in lines if l.startswith("config: ")]
    if not config:
        fail(where + ": no config line")
    stamps = json.loads(config[0][len("config: "):])
    for key in STAMPS:
        if key not in stamps or stamps[key] in ("", None):
            fail("%s: stamp %s missing" % (where, key))
    if stamps["buildType"] in ("", "Debug"):
        fail(where + ": timings from a %r build" % stamps["buildType"])

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (where, sorted(result)))
    if result["attempted"] < 1 or result["failed"] != 0 or not result["correct"]:
        fail("%s: %d of %d checks failed\n  %s" % (
            where, result["failed"], result["attempted"],
            "\n  ".join(failed_checks)))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail("%s: missing %s, unexpected %s" % (
            where, sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        m = metrics[name]
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            fail("%s: metric %s is %r, expected unit %s" % (where, name, m, unit))
    if trace and metrics["error_rate"]["value"] != 0:
        fail(where + ": error_rate is not 0")


def main():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, e2e), (1, layers)):
            try:
                check_result(workload, trace, run(workload, trace), expected)
                print("ok: %s trace=%d" % (workload, trace))
            except SmokeFailure as e:
                failures.append(str(e))
                print("FAILED: %s" % e)

    driver = os.path.join(REPO_ROOT, ".bench_build", "perfbench",
                          "perfbench_driver")
    out = subprocess.run([driver, "--self-test"], capture_output=True,
                         text=True)
    if out.returncode != 0:
        failures.append("tail-rule self test:\n" + out.stdout + out.stderr)
    else:
        print("ok: tail-rule self test")

    if failures:
        sys.stderr.write("smoke test FAILED (%d)\n" % len(failures))
        sys.exit(1)
    print("smoke test passed")


if __name__ == "__main__":
    main()
