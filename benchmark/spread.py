#!/usr/bin/env python3
"""Steadiness check: runs one workload at several seeds and prints, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
next to a third of the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 benchmark/spread.py --workload cold --seeds 1-10

Each run is the command BENCHMARK.json names, with --trace 0.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n{args.workload}: {len(seeds(args.seeds))} runs of {seconds}s")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "ok" if spread < bounds[name] / 3 else ("WIDE" if spread < bounds[name] else "OVER")
        print(f"  {name:12} median {med:<14.6g} spread {spread:7.3f}  "
              f"bound/3 {bounds[name] / 3:.3f}  {flag}")


if __name__ == "__main__":
    main()
