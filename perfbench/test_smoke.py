#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_smoke.py

test_smoke runs the smoke configuration (every workload briefly, traced
and untraced) and expects every metric BENCHMARK.json names, with its
unit, plus passing correctness checks. test_refuses_without_sources runs
the benchmark from a directory holding only BENCHMARK.json and this
directory, where it must fail without printing a result.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


class BenchmarkTest(unittest.TestCase):
    def test_smoke(self):
        done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--smoke"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=900)
        self.assertEqual(done.returncode, 0, done.stdout)
        self.assertEqual(done.stdout.count("correct=True"), 6, done.stdout)

    def test_refuses_without_sources(self):
        os.makedirs(build_dir(), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir()) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "synth_dense", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
