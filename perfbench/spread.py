#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints, for every metric, the
median and the quartile spread (Q3 - Q1) / median, next to the bound
BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload plan_simulate --seeds 1-5
    python3 perfbench/spread.py --workload rack_fleet --seeds 11-20 --trace 1

Run it from the repository root. Runs are sequential.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", default="0")
    p.add_argument("--seconds", type=int)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        digest = next((l.split()[1] for l in lines if l.startswith("digest")), "?")
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"digest={digest}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            print(f"  {name} {m['value']:.6g}", flush=True)
    print(f"\n{'metric':<30} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"{name:<30} {med:>14.6g} {spread:>8.4f} {bound or '':>6} {flag}")


if __name__ == "__main__":
    main()
