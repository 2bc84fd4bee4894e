#!/usr/bin/env python3
"""End-to-end DeepDirect benchmark: build, run one workload, check output.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (a CMake project that
compiles ../src) into .bench_build/perfbench; later calls rebuild only what
changed. Build output goes to stderr. The workload's human-readable lines
(starting with '#') and, last, its JSON result go to stdout. The result must
carry exactly the metrics BENCHMARK.json names for the trace mode; anything
else is a benchmark defect and exits non-zero without a result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark (both no-ops when up to date);
    False on any failure."""
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
              "--target", "perfbench", "perfbench_selftest"]]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return False
    return True


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"], spec["workloads"]


def check_result(line, trace):
    """Problems with the final JSON line, as a list of strings."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    declared, _ = declared_metrics(trace)
    names = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(names):
        problems.append("missing %s, unexpected %s" % (
            sorted(set(names) - set(metrics)), sorted(set(metrics) - set(names))))
    for name, unit in names.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append("%s has unit %s, not %s" % (name, m.get("unit"), unit))
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append("%s is not a finite number" % name)
        elif not trace and m["value"] <= 0:
            problems.append("end-to-end metric %s is %r" % (name, m["value"]))
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    return problems


def run_workload(workload, seed, seconds, trace, tiny=False):
    """Runs the binary; returns (stdout lines, problems)."""
    tag = "%s-%d-%d" % (workload, seed, os.getpid())
    out_dir = os.path.join(ROOT, ".bench_build", "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", "1" if trace else "0",
               "--work-dir", os.path.join(ROOT, ".bench_build", "work", tag)]
    if trace:
        command += ["--trace-out", os.path.join(out_dir, tag + "-trace.json")]
    if tiny:
        command.append("--tiny")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [], ["timed out after %d s" % RUN_TIMEOUT_S]
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        return lines, ["perfbench exited with %d" % proc.returncode]
    return lines, check_result(lines[-1], trace)


def self_test():
    """The C++ arithmetic tests, then every workload, shrunk, in both
    trace modes: each must emit exactly the declared metrics, correctly."""
    if subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode:
        return False
    ok = True
    _, workloads = declared_metrics(False)
    for workload in workloads:
        for trace in (False, True):
            lines, problems = run_workload(workload["name"], 1, 2, trace, tiny=True)
            if not problems and not json.loads(lines[-1])["correct"]:
                problems = [l for l in lines if l.startswith("# note")] or ["incorrect"]
            log("%-4s %s trace=%d %s" % ("ok" if not problems else "FAIL",
                                         workload["name"], trace, "; ".join(problems)))
            ok = ok and not problems
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not build():
        return 1
    if args.self_test:
        return 0 if self_test() else 1
    if not args.workload:
        parser.error("--workload is required")
    lines, problems = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    if problems:
        for line in lines:
            log(line)
        log("perfbench: " + "; ".join(problems))
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
