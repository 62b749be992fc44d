#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 perfbench/run.py --workload mem_zipf --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which pulls in the
repository's libraries from source) into $CARGO_TARGET_DIR, or
.bench_build/ at the repository root when that is unset; later calls
only re-run the incremental build. Index files and span traces go to
<build dir>/data-<workload>/. The last line of standard output is the
result JSON; build logs go to standard error. Exits non-zero when the
build fails, the run fails, or an answer is wrong.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mem_zipf", "disk_paper", "update_swap")
# A run measures --seconds plus set-up; anything near this is a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if configured:
        return os.path.abspath(configured)
    return os.path.join(ROOT, ".bench_build")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "xks_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            sys.exit(2)
    return os.path.join(out_dir, "xks_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    data_dir = os.path.join(out_dir, "data-" + args.workload)
    os.makedirs(data_dir, exist_ok=True)
    for name in os.listdir(data_dir):
        os.remove(os.path.join(data_dir, name))

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", data_dir]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(2)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
