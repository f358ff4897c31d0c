"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME|all [--seeds 0-9] [--json FILE]

Runs the benchmark once per seed for BENCHMARK.json's run_seconds, one run
at a time, and prints for each workload and end-to-end metric the median,
the quartiles (statistics.quantiles, n=4) and the spread (third minus first
quartile, over the median) next to the metric's bound from BENCHMARK.json.
--json appends the raw results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def measure(workload: str, spec: dict, args) -> None:
    seconds = spec["run_seconds"]
    runs = []
    for seed in seeds(args.seeds):
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        start = time.perf_counter()
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, timeout=600).stdout
        wall = time.perf_counter() - start
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
        runs.append({"seed": seed, "wall_s": wall, **result})
    walls = [r["wall_s"] for r in runs]
    print(f"{workload}: {len(runs)} runs of {seconds} s; wall per run "
          f"{min(walls):.1f}..{max(walls):.1f} s")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"  {metric['name']:18s} median {med:10.4g} {metric['unit']:6s} "
              f"q1 {q1:10.4g} q3 {q3:10.4g} spread {(q3 - q1) / med:6.3f} (bound {metric['bound']})")
    if args.json:
        with open(args.json, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": workload, "runs": runs}) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--json")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    for workload in names if args.workload == "all" else [args.workload]:
        measure(workload, spec, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
