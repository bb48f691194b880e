#!/usr/bin/env python3
"""Compare a fresh bench-self result against the committed baseline.

Usage: compare_baseline.py FRESH.json BASELINE.json
           [--threshold 0.10] [--strict]

Prints a GitHub Actions ::warning:: (and exits 0 — tracking, not
gating) when the fresh best_cells_per_second falls more than the
threshold below the baseline. With --strict the shortfall exits 1
instead: use that only for same-machine A/B comparisons (two builds
benched back to back on one host), where the noise a cross-machine
comparison has to tolerate does not apply. The comparison is skipped
with a notice when the two files measured different configurations
(cycle cap, grid size, or policy), since those numbers are not
comparable.
"""

import argparse
import json
import sys

# A fresh result must match the baseline on these fields for the
# throughput comparison to mean anything. "policy" keeps a
# --policy sieve run from being compared against the default-LRU
# baseline. "cryptoBackend" is deliberately not among them: the crypto
# kernel is the host CPU's pick, and none of the bench-* commands
# times functional crypto (the timing simulator never calls it), so
# the field is recorded for context but never skips a comparison.
# "resultsDir" and "zipf" scope bench-sweep results (BENCH_sweepcache.json): the cache
# state the bench started from and the Zipf grid shape both move its
# timings, so runs recorded against different values are not
# comparable. Both are absent from bench-self files on each side, so
# bench-self comparisons are unaffected. "scenario" and "tenants"
# scope bench-tenants results (BENCH_tenants.json): a multi-tenant
# run's cost scales with the mix, so only identically-shaped scenario
# benches compare — and the keys keep a bench-tenants file from ever
# being compared against a single-workload baseline. "schemes" and
# "mdcPolicy" scope bench-self grids recorded with --schemes or with a
# metadata-cache policy (mee.mdc_policy) that differs from the L2's,
# so a reshaped grid never compares against the classic 3x3.
CONFIG_KEYS = ("benchmark", "gpu", "policy", "max_cycles_per_kernel",
               "cells", "resultsDir", "zipf", "scenario", "tenants",
               "schemes", "mdcPolicy")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh")
    parser.add_argument("baseline")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="warn when fresh < (1-threshold) * baseline")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 (instead of warning) on a "
                             "shortfall beyond the threshold; for "
                             "same-machine A/B comparisons")
    args = parser.parse_args()

    fresh = load(args.fresh)
    base = load(args.baseline)

    for key in CONFIG_KEYS:
        if fresh.get(key) != base.get(key):
            print(f"::notice::bench-self configs differ on '{key}' "
                  f"({fresh.get(key)!r} vs baseline {base.get(key)!r}); "
                  "skipping throughput comparison")
            return 0

    fresh_cps = fresh["best_cells_per_second"]
    base_cps = base["best_cells_per_second"]
    if base_cps <= 0:
        print("::notice::baseline throughput is zero; nothing to compare")
        return 0

    ratio = fresh_cps / base_cps
    line = (f"bench-self: {fresh_cps:.2f} cells/s vs committed baseline "
            f"{base_cps:.2f} ({ratio:.2%})")
    if ratio < 1.0 - args.threshold:
        if args.strict:
            print(f"::error::{line} — regression beyond "
                  f"{args.threshold:.0%} on a same-machine A/B")
            return 1
        print(f"::warning::{line} — possible hot-path regression "
              f"(>{args.threshold:.0%} below baseline; non-gating, CI "
              "machines are noisy)")
    else:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
