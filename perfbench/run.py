#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload of it.

    python3 perfbench/run.py --workload ingest|budget_check|durable \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
tcdp library, the `tcdp` CLI and the load generator from source into
$CARGO_TARGET_DIR (default .bench_build); later calls only check the
build. The generator starts `tcdp serve`, drives it and prints one JSON
result line, which is this script's last line of standard output.
Build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4",
         "--target", "loadgen", "tcdp_cli"],
        check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=1200)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "loadgen"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--tcdp", os.path.join(build_dir, "tcdp", "tcdp"),
        "--work-dir", work_dir,
    ]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 170 s", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
