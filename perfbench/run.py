#!/usr/bin/env python3
"""Builds and runs the Gallium engine benchmark (see perfbench/NOTES.md).

Run from the repository root:

    python3 perfbench/run.py --workload nat-steady --seed 1 --seconds 30 --trace 0

The first call configures and builds the benchmark, together with the
library sources under src/, into the directory named by CARGO_TARGET_DIR
(default .bench_build); later calls only bring that build up to date. Build
output goes to stderr.

One run starts the benchmark binary in PROCESSES fresh processes, one after
another, each measuring for an equal share of --seconds, and combines their
results: every metric is the mean over the processes, except setup_s, which
is their median. The threaded engine's throughput changes from process to
process by up to a third on a shared 4-vCPU host while staying steady within
one, so a single process per run cannot give a repeatable figure. Each
process's own report goes to stdout; the last line is the combined JSON
result. With --trace 1 the first process also writes its spans as Chrome
trace events to <build dir>/traces/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("nat-steady", "lb-churn", "trojan-mixed")
PROCESSES = 3
# A run must end within 180 s; each process gets a share after building.
PROCESS_TIMEOUT_S = 55


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "-j", "4"]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def combine(results):
    """Merges the per-process results into one result object."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        pick = statistics.median if name == "setup_s" else statistics.fmean
        metrics[name] = {"value": pick(values), "unit": first["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    results = []
    for i in range(PROCESSES):
        cmd = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / PROCESSES),
               "--trace", str(args.trace)]
        if args.trace and i == 0:
            trace_dir = os.path.join(build_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: process exceeded %d s" % PROCESS_TIMEOUT_S,
                  file=sys.stderr)
            return 4
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results.append(json.loads(lines[-1]))
    print(json.dumps(combine(results), separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
