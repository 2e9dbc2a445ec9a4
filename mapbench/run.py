#!/usr/bin/env python3
"""Builds and runs the map-sweep benchmark.

Run from the repository root:

    python3 mapbench/run.py --workload cold_map --seed 42 --seconds 20 --trace 0

Configures and builds the `mapbench` package (mapbench/CMakeLists.txt, which
compiles the library from src/) into $CARGO_TARGET_DIR or .bench_build, then
runs it. Per-run files (cell caches, tiles, the traced run's
per-layer JSON and Chrome trace) go to .bench_out/<workload>/. The last line
of stdout is the program's JSON result. `--write-golden` regenerates
mapbench/golden.txt from a seed-42 run of the workload.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold_map", "warm_pool", "sharded_progressive")


def build(build_dir):
    """Configures (once) and builds mapbench; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("mapbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "mapbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.write_golden and (args.seed != 42 or args.trace != 0):
        p.error("--write-golden needs --seed 42 --trace 0")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(".bench_out", args.workload),
           "--golden", os.path.join(HERE, "golden.txt")]
    if args.write_golden:
        cmd.append("--write-golden")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print("mapbench: program exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
