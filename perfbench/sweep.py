"""Run the benchmark over workloads and seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --workload ablation-default wide-labels bulk-eval --seeds 1
    python3 perfbench/sweep.py --workload wide-labels --seeds 1 2 3 4 5

Runs the command of BENCHMARK.json once per workload and seed, one run at a
time, from the root of the checkout, with `--seconds` taken from
BENCHMARK.json unless given. It echoes each run's metric lines (all of
them, also those outside the JSON result) and, per workload, prints for
every JSON metric the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), and the spread: the distance
between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sweep(command, workload, seeds, seconds, trace) -> bool:
    results = []
    for seed in seeds:
        cmd = command + ["--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return False
        *lines, last = proc.stdout.strip().splitlines()
        result = json.loads(last)
        results.append(result)
        if not result["correct"]:
            print(proc.stderr, file=sys.stderr)
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for line in lines:
            if not line.startswith("env "):
                print("  " + line, flush=True)

    print(f"{workload}: {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{workload}: {name:<36} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f}")
    return True


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for workload in args.workload:
        if not sweep(bench["command"], workload, args.seeds, args.seconds, args.trace):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
