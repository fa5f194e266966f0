#!/usr/bin/env python3
"""Steadiness check of the repository benchmark.

    python3 perfbench/steady.py                       # 10 runs per workload
    python3 perfbench/steady.py --workloads io-pipeline --runs 5 --seed0 500
    python3 perfbench/steady.py --save a.json         # keep the medians
    python3 perfbench/steady.py --against a.json      # compare with them

Runs each workload repeatedly through perfbench/run.py, one seed per run
(seed0, seed0 + 1, ...), for BENCHMARK.json's run_seconds, and prints per
end-to-end metric its median, first and third quartile
(statistics.quantiles(values, n=4)) and spread = (Q3 - Q1) / median
against the metric's bound. A spread above a third of the bound is
marked '~', above the bound '!'. With --against, a median worse than the
saved one by more than the bound is marked 'WORSE'. Exits 1 when any run
fails or reports incorrect output, when a spread other than setup_s's
exceeds its bound, or when a median is WORSE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", help="write the medians to this JSON file")
    parser.add_argument("--against", help="compare with medians saved earlier")
    args = parser.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    saved = {}
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)
    medians = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            result = run_once(workload, args.seed0 + i, args.seconds, 0)
            if result is None or not result["correct"]:
                print("%s seed %d: run failed or incorrect" %
                      (workload, args.seed0 + i))
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print("\n%s (%d runs, seeds %d..%d)" % (workload, args.runs, args.seed0,
                                               args.seed0 + args.runs - 1))
        print("  %-12s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        medians[workload] = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]["bound"]
            mark = ""
            if spread > bound:
                mark = "!"
                if name != "setup_s":
                    ok = False
            elif spread > bound / 3:
                mark = "~"
            if workload in saved and name in saved[workload]:
                old = saved[workload][name]
                lower = bounds[name]["better"] == "lower"
                worse = (med - old) / old if lower else (old - med) / old
                if old and worse > bound:
                    mark += " WORSE(%+.3f)" % worse
                    ok = False
            medians[workload][name] = med
            print("  %-12s %14.6g %14.6g %14.6g %8.4f %6.3f %s" %
                  (name, med, q1, q3, spread, bound, mark))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=2)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
