#!/usr/bin/env python3
"""Same-run ratio gate with an A/A arm for Google Benchmark series.

A gate compares a test series with a baseline series measured in the same
process, interleaved. On a shared host the ratio of two identical series
already spreads by several percent, so a single reading of test / base
can pass or fail by noise alone. This gate also runs an A/A arm: the
baseline registered a second time under another name. Its median against
the baseline's median is the noise floor of the run. The series fix their
own iteration counts (the dispatch series time 16 sweeps each), so every
arm times the same work per repetition.

The gate runs rounds of 7 interleaved repetitions and pools their samples
until the A/A spread |median(aa) / median(base) - 1| is at most half the
bound, or 35 repetitions are reached. Then:

  - exit 1 when median(test) / median(base) exceeds 1 + bound;
  - exit 2 ("unresolved") when the A/A spread is still above half the
    bound at the cap: the run cannot tell the bound from noise;
  - exit 0 otherwise.

Every round prints the ratio, the A/A ratio and spread, and the
repetition count.

  python3 scripts/ab_gate.py --bench build/bench/bench_host_throughput \\
      --filter 'dispatch/(plan_engine|reference_loop(_aa)?)/' \\
      --test dispatch/plan_engine/iterations:16 \\
      --base dispatch/reference_loop/iterations:16 \\
      --aa dispatch/reference_loop_aa/iterations:16 --bound 0.05
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

REPS_PER_ROUND = 7  # interleaved repetitions per benchmark run
MAX_REPS = 35       # repetition cap over all rounds


def run_round(args, reps):
    """Runs `reps` interleaved repetitions; returns {name: [real_time]}."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "round.json")
        subprocess.run(
            [args.bench,
             f"--benchmark_filter={args.filter}",
             f"--benchmark_repetitions={reps}",
             "--benchmark_enable_random_interleaving=true",
             "--benchmark_report_aggregates_only=false",
             "--benchmark_format=json",
             f"--benchmark_out={out}",
             "--benchmark_out_format=json"],
            check=True, stdout=subprocess.DEVNULL)
        with open(out) as f:
            data = json.load(f)
    samples = {}
    for b in data["benchmarks"]:
        if b.get("run_type", "iteration") != "iteration":
            continue
        name = b.get("run_name", b["name"])
        samples.setdefault(name, []).append(b["real_time"])
    return samples


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--bench", required=True, help="benchmark binary")
    p.add_argument("--filter", required=True, help="--benchmark_filter")
    p.add_argument("--test", required=True, help="series under test")
    p.add_argument("--base", required=True, help="baseline series")
    p.add_argument("--aa", required=True,
                   help="second registration of the baseline")
    p.add_argument("--bound", type=float, required=True,
                   help="allowed overhead, e.g. 0.05 for 5%%")
    p.add_argument("--label", default="gate")
    args = p.parse_args()

    pooled = {args.test: [], args.base: [], args.aa: []}
    total = 0
    while True:
        reps = min(REPS_PER_ROUND, MAX_REPS - total)
        samples = run_round(args, reps)
        for name in pooled:
            if name not in samples:
                sys.exit(f"{args.label}: no samples of {name}; check --filter")
            pooled[name].extend(samples[name])
        total += reps
        base = statistics.median(pooled[args.base])
        ratio = statistics.median(pooled[args.test]) / base
        aa = statistics.median(pooled[args.aa]) / base
        spread = abs(aa - 1.0)
        resolved = spread <= args.bound / 2
        print(f"{args.label}: {args.test} / {args.base} = {ratio:.3f} "
              f"(bound {1 + args.bound:.3f}); A/A {args.aa} / {args.base} "
              f"= {aa:.3f}, spread {spread:.3f} (resolves at "
              f"{args.bound / 2:.3f}); {total} repetitions")
        if resolved or total >= MAX_REPS:
            break
    if not resolved:
        print(f"{args.label}: unresolved: the A/A spread {spread:.3f} is "
              f"above half the bound after {total} repetitions")
        sys.exit(2)
    if ratio > 1 + args.bound:
        print(f"{args.label}: {args.test} exceeds {args.base} by "
              f"{(ratio - 1) * 100:+.2f}% (bound {args.bound * 100:.1f}%)")
        sys.exit(1)
    print(f"{args.label}: passed")


if __name__ == "__main__":
    main()
