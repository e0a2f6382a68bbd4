#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_smoke.py

Runs the smoke mode (every workload, briefly, untraced and traced, with all
checks on), and checks that the benchmark refuses to produce a result when
the simulator sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class PerfbenchTest(unittest.TestCase):
    def test_smoke_runs_every_workload_with_all_checks(self):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--smoke"], capture_output=True, text=True,
                              cwd=ROOT, timeout=900, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        self.assertIn("smoke: OK", proc.stdout)
        for workload in ("replay_knative", "mix_spec_bus", "cold_chain_jit"):
            for trace in (0, 1):
                self.assertIn(f"smoke {workload} trace={trace}", proc.stdout)

    def test_spec_lists_what_the_runners_report(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         ["requests_per_s", "peak_rss_mib", "setup_s"])
        names = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("trace.overhead_frac", names)

    def test_refuses_without_simulator_sources(self):
        build = os.path.join(ROOT, ".bench_build")
        os.makedirs(build, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=build)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "replay_knative", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=170,
                check=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
