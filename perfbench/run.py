#!/usr/bin/env python3
"""Build the benchmark from source (first run only) and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hashtable --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/ (CMake, Release); build output goes to
standard error, so the benchmark's last line of standard output stays its
JSON result. Arguments are passed to the perfbench binary unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(target):
    """Configure (once) and build `target`; returns the binary's path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def main():
    try:
        binary = build("perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
