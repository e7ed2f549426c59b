#!/usr/bin/env python3
"""Runs a workload once per seed and prints each end-to-end metric's median
and its spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, beside the metric's
bound from BENCHMARK.json.

    python3 perfbench/spread.py <workload> [runs=10] [first_seed=1]

Run from the repository root; each run goes through perfbench/run.py with
BENCHMARK.json's run_seconds.
"""

import json
import statistics
import subprocess
import sys


def main():
    workload = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    first = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    shares = set()
    for seed in range(first, first + runs):
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct is false", file=sys.stderr)
        shares.add(result["failed"] / result["attempted"])
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    print(f"{workload}: failed share(s) {sorted(shares)}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / statistics.median(vals)
        print(f"  {name:18} median {statistics.median(vals):.6g}  spread {spread:.4f}  "
              f"bound {bounds[name]}  ({spread / bounds[name]:.2f} of bound)")


if __name__ == "__main__":
    main()
