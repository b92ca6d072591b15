#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload synth_dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root. A run prints the benchmark's report; its last line is
the result object {"correct", "attempted", "failed", "metrics"}.
--smoke runs every workload briefly, traced and untraced, and checks
that every metric BENCHMARK.json names is reported with its unit and
that the correctness checks ran.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synth_dense", "many_rules", "keyed_parallel")
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds both binaries; returns their dir."""
    out = build_dir()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: library sources not found next to perfbench/")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j4", "--target", "tpbench",
                  "tpbench_traced"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return out


def run_binary(binary_dir, workload, seed, seconds, trace, smoke):
    """Runs one workload; returns (report lines, result object)."""
    binary = os.path.join(binary_dir,
                          "tpbench_traced" if trace else "tpbench")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s timed out" % workload)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit("run.py: %s exited with %d" % (workload, done.returncode))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("run.py: malformed result line")
    return lines, result


def smoke(binary_dir):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines, result = run_binary(binary_dir, workload, 1, 2, trace, True)
            label = "%s trace=%d" % (workload, trace)
            metrics = result["metrics"]
            for m in names:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s: metric %s [%s] missing" %
                                    (label, m["name"], m["unit"]))
            extra = set(metrics) - {m["name"] for m in names}
            if extra:
                problems.append("%s: unexpected metrics %s" %
                                (label, sorted(extra)))
            checks = [l for l in lines if l.startswith("info checks_run=")]
            if not checks or checks[0].split()[1] == "checks_run=0":
                problems.append("%s: no correctness check ran" % label)
            if not any(l.startswith("metric failed_event_ratio") for l in lines):
                problems.append("%s: failed_event_ratio not printed" % label)
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: outputs incorrect" % label)
            print("smoke %-28s correct=%s attempted=%d metrics=%d" %
                  (label, result["correct"], result["attempted"], len(metrics)))
    for p in problems:
        print("SMOKE FAILED: " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke")
    binary_dir = build()
    if args.smoke:
        return smoke(binary_dir)
    lines, result = run_binary(binary_dir, args.workload, args.seed,
                               args.seconds, args.trace, False)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
