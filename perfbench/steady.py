#!/usr/bin/env python3
"""Steadiness runner: how much each benchmark metric moves between runs.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]
                                [--first-seed 1] [--seconds S] [--trace 0|1]

Runs each workload --runs times, each in a fresh process through run.py,
with seeds first-seed, first-seed+1, ...; then prints, per metric, the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.
A spread at or above a third of its bound is flagged. Use it to set the
bounds and to check that a change to the benchmark kept it steady.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    limit = bounds()
    failed = False
    for w in args.workload or WORKLOADS:
        values = {}
        units = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            if proc.returncode != 0 or not last[0].startswith("{"):
                print(f"{w} seed {seed}: run failed (exit {proc.returncode})")
                failed = True
                continue
            result = json.loads(last[0])
            failed |= not result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{w}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                         else (v[0], v[0], v[0]))
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = limit.get(name)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {bound if bound is not None else '':>6} "
                  f"{units[name]}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
