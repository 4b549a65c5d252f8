#!/usr/bin/env python3
"""Normalise a Google Benchmark JSON dump into the BENCH_*.json trajectory.

The perf-smoke CI job runs bench_host_throughput and calls

    python3 scripts/bench_to_trajectory.py bench_host_throughput.json \
        bench_host_throughput.trajectory.json

producing one flat, diff-friendly document per PR so throughput trends are
visible PR over PR. Committed schema (version amped-bench-trajectory/1):

    {
      "schema": "amped-bench-trajectory/1",
      "source": "<input file stem>",
      "metrics": {
        "<benchmark name>": {"nnz_per_s": <items_per_second>},   # throughput
        "<benchmark name>": {"ms": <real_time>},                 # time-only
        ...
      }
    }

Benchmarks that call SetItemsProcessed (every series in
bench_host_throughput) report nnz/s; anything else falls back to wall
milliseconds. Aggregate rows (mean/median/stddev) are skipped so repeated
runs stay comparable. Numbers from shared CI runners are noisy — the
trajectory is trend material, not a gating threshold.
"""

import json
import pathlib
import sys


def normalise(raw: dict) -> dict:
    metrics = {}
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        if "items_per_second" in bench:
            metrics[name] = {"nnz_per_s": bench["items_per_second"]}
        else:
            time = bench["real_time"]
            unit = bench.get("time_unit", "ns")
            to_ms = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[unit]
            metrics[name] = {"ms": time * to_ms}
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(f"usage: {argv[0]} <benchmark.json> <BENCH_N.json>",
              file=sys.stderr)
        return 2
    in_path, out_path = pathlib.Path(argv[1]), pathlib.Path(argv[2])
    with in_path.open() as f:
        raw = json.load(f)
    metrics = normalise(raw)
    if not metrics:
        print(f"error: no benchmark entries found in {in_path}",
              file=sys.stderr)
        return 1
    doc = {
        "schema": "amped-bench-trajectory/1",
        "source": in_path.stem,
        "metrics": dict(sorted(metrics.items())),
    }
    with out_path.open("w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {len(metrics)} metrics to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
