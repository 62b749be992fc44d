#!/usr/bin/env python3
"""Runs one workload N times and reports each metric's median and spread.

    python3 perfbench/repeat.py --workload disk_paper --runs 10 [--first-seed 1]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric it prints the median, the quartiles (statistics.quantiles, n=4)
and the spread, (Q3 - Q1) / median. An end-to-end metric whose spread
exceeds its bound in BENCHMARK.json is flagged, and so is one above a
third of its bound (the margin a steady benchmark keeps); setup_s is
reported but, being set-up time, not held to its bound. Deterministic
counters must read the same on every run of one seed, so --same-seed
repeats a single seed instead. Exits 1 if any run fails or a metric is
flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return None, None
    result = json.loads(lines[-1])
    env = json.loads(lines[-2]).get("env", {})
    return (result if result.get("correct") else None), env


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec, bounds = load_bounds()
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    units = {}
    failures = 0
    for i in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else i)
        started = time.monotonic()
        result, env = run_once(args.workload, seed, seconds, args.trace)
        took = time.monotonic() - started
        if result is None:
            failures += 1
            print("run %d (seed %d): FAILED" % (i + 1, seed), flush=True)
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("run %d (seed %d): %s" % (i + 1, seed, json.dumps(
            {k: v["value"] for k, v in result["metrics"].items()})),
            flush=True)
        print("    took %.1f s; env: %s" % (took, json.dumps(
            {k: env.get(k) for k in ("measured_s", "rounds", "quiet_rounds",
                                     "all_quiet", "data_fs", "nproc")})),
            flush=True)

    flagged = 0
    summary = {}
    print("\n%-34s %14s %14s %14s %8s %7s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "flag"))
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / abs(median) if median else 0.0
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            if spread > bound:
                flag = "OVER BOUND"
                flagged += 1
            elif spread > bound / 3:
                flag = "over bound/3"
                flagged += 1
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread, "unit": units[name],
                         "values": vals}
        print("%-34s %14.6g %14.6g %14.6g %8.4f %7s  %s" % (
            name, median, q1, q3, spread,
            "-" if bound is None else "%.2f" % bound, flag))
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "failed_runs": failures, "metrics": summary}))
    sys.exit(1 if failures or flagged else 0)


if __name__ == "__main__":
    main()
