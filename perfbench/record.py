#!/usr/bin/env python3
"""Record a baseline: every workload on the main seed and on a held-out seed
(end-to-end), plus one traced run per workload on the main seed.

    python3 perfbench/record.py --out perfbench/results/baseline.json

Run from the root of a source checkout.  Every run measures the
``run_seconds`` of ``BENCHMARK.json``.  Runs one benchmark process at a time
and waits for each.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("small_mixed", "large_dense", "analyze_lab")
MAIN_SEED, HELD_OUT_SEED = 1, 2


def run(workload, seed, seconds, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = completed.stdout.splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    keep = ("outcomes", "error_rate", "untrusted_rate", "per_command", "residual_p90_log10",
            "outcomes_by_condition_decade", "latency_samples", "passes", "setup")
    entry = {"seed": seed, "trace": trace, "result": result, "report": {k: report[k] for k in keep}}
    if trace:
        entry["report"]["lapack_counts"] = report["lapack_counts"]
    return entry, report["environment"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    runs, environment = {}, None
    for workload in WORKLOADS:
        runs[workload] = []
        for seed, trace in ((MAIN_SEED, 0), (HELD_OUT_SEED, 0), (MAIN_SEED, 1)):
            entry, environment = run(workload, seed, seconds, trace)
            runs[workload].append(entry)
            print(workload, seed, trace, entry["result"]["correct"], flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"main_seed": MAIN_SEED, "held_out_seed": HELD_OUT_SEED, "seconds": seconds,
                   "environment": environment, "runs": runs}, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
