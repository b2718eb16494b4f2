#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds the simulator and the benchmark binary from source (CMake, into
.bench_build/campaign_bench under the checkout root), runs the binary's
self-test, then one workload's campaigns, and passes the binary's records
through. The last line of standard output is the result object.

    python3 campaign_bench/run.py --workload femnist_strike --seed 1 \
        --seconds 45 --trace 0
    python3 campaign_bench/run.py --workload all --seed 1 --seconds 45
    python3 campaign_bench/run.py --workload femnist_strike --seed 1 \
        --seconds 45 --threads 2 --trace 1

--workload all runs every workload, each in its own process, and ends
with one result whose metrics are named <workload>.<metric>. --threads
overrides the workloads' pool size (by-hand pool measurements).
See campaign_bench/README.md for the workloads, metrics and seeds.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "campaign_bench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "campaign_bench")
WORKLOADS = ["femnist_strike", "sentiment_crowd", "sentiment_async_durable"]
# Never used while developing a change; re-check claims on it.
HELD_OUT_SEED = 90210
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit code."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout, check=False)
    return proc.returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: simulator sources (src/) not found next to campaign_bench/")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_quiet(configure, 600) != 0:
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS],
                     800) == 0


def run_workload(workload, args):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                          check=False, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
        lines = lines[:-1]
    for line in lines:
        print(line, flush=True)
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int)
    args = parser.parse_args()

    if not build():
        log("error: build failed")
        return 1
    if run_quiet([BINARY, "--self-test"], 120) != 0:
        log("error: the correctness self-test did not catch a corrupted "
            "result")
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        code, result = run_workload(workload, args)
        if code != 0 or result is None:
            log("error: workload %s exited with code %d" % (workload, code))
            return 1
        if len(workloads) == 1:
            merged = result
            break
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "." + name] = metric
    print(json.dumps(merged), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as err:
        # subprocess.run has already killed and reaped the child.
        log("error: %s timed out after %s s" % (err.cmd[0], err.timeout))
        sys.exit(1)
