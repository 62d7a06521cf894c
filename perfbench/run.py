#!/usr/bin/env python3
"""Build and run one workload of the rascad end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload corpus_cold --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles the library
sources under src/) into .bench_build/, or into $CARGO_TARGET_DIR when that
is set; later calls only check the build is current. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("corpus_cold", "deep_sweep", "serve_mix")


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("perfbench: run from the repository root (src/ not found)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(
        ["cmake", "--build", out, "--target", "rascad_perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(out, "rascad_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: build failed ({e})")
    result = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
