#!/usr/bin/env python3
"""Same-host A/B of the repository benchmark: a base tree against a head tree.

Usage (from anywhere):

    python3 bench/perf_ab.py BASE_TREE HEAD_TREE

Runs `python3 <tree>/perfbench/run.py --trace 0` for every workload of
HEAD_TREE's BENCHMARK.json on both trees, PAIRS times in alternating
order (base first on even pairs, head first on odd ones) at a fixed
SECONDS, and compares the medians of each end-to-end metric. It prints
one row per workload and metric and exits 1 when, on any workload:

  - a metric's head median is worse than the base median by more than
    its BENCHMARK.json bound;
  - the share of failed checks (failed / attempted) rises;
  - a metric BENCHMARK.json names is missing from a head run;
  - paper-grid `ops_per_s` falls by more than 2% (OPS_GATE). Untraced
    paper-grid runs the timing simulator with no tracer attached, so
    this gate keeps disabled tracing (and any other change to the
    simulation hot path) within 2%.

Each tree builds its own Release driver in `<tree>/.bench_build/` on
its first run; the build is not part of any timing.
"""

import json
import os
import statistics
import subprocess
import sys

# SECONDS is BENCHMARK.json's run_seconds (4, 3 and 2 passes of
# paper-grid, secure-rw and tenant-mix), so each run is the run the
# benchmark itself makes.
PAIRS = 5
SECONDS = 30
SEED = 1
OPS_GATE = ("paper-grid", "ops_per_s", 0.02)


def parse_result(stdout):
    """The result object: the last line perfbench/run.py prints."""
    return json.loads(stdout.strip().splitlines()[-1])


def run(tree, workload):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-3000:])
        sys.exit("perf A/B: %s %s exited %d" % (tree, workload,
                                               out.returncode))
    return parse_result(out.stdout)


def worsening(better, base, head):
    """How much worse head is than base, as a fraction of base."""
    change = head - base if better == "lower" else base - head
    if base == 0:
        return float("inf") if change > 0 else 0.0
    return change / abs(base)


def quartiles(values):
    """The first quartile, median and third quartile of values."""
    return statistics.quantiles(values, n=4, method="inclusive")


def spread(q):
    return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])


def failed_share(results):
    return (sum(r["failed"] for r in results)
            / sum(r["attempted"] for r in results))


def compare(bench, base, head):
    """Compare {workload: [result, ...]} of two trees.

    Returns (report lines, failure lines); no failure lines means pass.
    """
    report, failures = [], []
    for workload in (w["name"] for w in bench["workloads"]):
        b_runs, h_runs = base[workload], head[workload]
        b_fail, h_fail = failed_share(b_runs), failed_share(h_runs)
        report.append("%s: failed share %.4f -> %.4f"
                      % (workload, b_fail, h_fail))
        if h_fail > b_fail:
            failures.append("%s: failed share rose %.4f -> %.4f"
                            % (workload, b_fail, h_fail))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            if any(name not in r["metrics"] for r in h_runs):
                failures.append("%s %s: missing from a head run"
                                % (workload, name))
                continue
            if any(name not in r["metrics"] for r in b_runs):
                report.append("  %-12s new metric, no base to compare"
                              % name)
                continue
            b = quartiles(r["metrics"][name]["value"] for r in b_runs)
            h = quartiles(r["metrics"][name]["value"] for r in h_runs)
            worse = worsening(metric["better"], b[1], h[1])
            limit = metric["bound"]
            if (workload, name) == OPS_GATE[:2]:
                limit = min(limit, OPS_GATE[2])
            verdict = "FAIL" if worse > limit else "ok"
            report.append("  %-11s base %s  head %s %s  worse %+6.2f%% "
                          "(limit %.0f%%)  %s"
                          % (name, spread(b), spread(h), metric["unit"],
                             100 * worse, 100 * limit, verdict))
            if verdict == "FAIL":
                failures.append("%s %s: %.2f%% worse (limit %.0f%%)"
                                % (workload, name, 100 * worse,
                                   100 * limit))
    return report, failures


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: perf_ab.py BASE_TREE HEAD_TREE")
    trees = {"base": os.path.abspath(sys.argv[1]),
             "head": os.path.abspath(sys.argv[2])}
    with open(os.path.join(trees["head"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    results = {side: {w: [] for w in workloads} for side in trees}
    for pair in range(PAIRS):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for workload in workloads:
            for side in order:
                results[side][workload].append(run(trees[side], workload))
                print("pair %d/%d %-10s %s done"
                      % (pair + 1, PAIRS, workload, side), flush=True)

    report, failures = compare(bench, results["base"], results["head"])
    print("median [quartiles] of %d runs per tree, --seconds %s --seed %d, "
          "base %s, head %s"
          % (PAIRS, SECONDS, SEED, trees["base"], trees["head"]))
    print("\n".join(report))
    if failures:
        print("perf A/B: FAIL\n  " + "\n  ".join(failures))
        sys.exit(1)
    print("perf A/B: PASS")


if __name__ == "__main__":
    main()
