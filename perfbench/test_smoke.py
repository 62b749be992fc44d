#!/usr/bin/env python3
"""Smoke tests of the serving benchmark itself, at tiny sizes.

    python3 perfbench/test_smoke.py

Checks, for every workload, that a --smoke run passes its correctness
gate and prints exactly the metrics BENCHMARK.json names (end-to-end
without --trace, per-layer with it); that the deterministic counters
repeat exactly for one seed; and that run.py fails without printing a
result when the repository's sources are absent.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("slca.match_ops_per_query", "slca.postings_read_per_query",
                 "slca.results_per_query")

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)


def run(workload, seed, trace, cwd=ROOT, env=None):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900,
                          check=False)


class SmokeTest(unittest.TestCase):
    def result(self, workload, seed, trace):
        done = run(workload, seed, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        self.assertIn("env", json.loads(lines[-2]))
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if trace == 0:
                self.assertGreater(got["value"], 0, m["name"])
        return result

    def test_workloads_report_every_metric_and_repeat_counters(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                first = self.result(workload, 7, trace=0)
                again = self.result(workload, 7, trace=0)
                self.assertEqual(
                    first["metrics"]["index_bytes_per_xml_byte"],
                    again["metrics"]["index_bytes_per_xml_byte"])
                traced = self.result(workload, 7, trace=1)
                traced_again = self.result(workload, 7, trace=1)
                for name in DETERMINISTIC:
                    self.assertEqual(traced["metrics"][name],
                                     traced_again["metrics"][name], name)

    def test_fails_without_repository_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ,
                       CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
            done = run("mem_zipf", 1, 0, cwd=bare, env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
