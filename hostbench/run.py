#!/usr/bin/env python3
"""Host-time benchmark of the sx4ncar simulator.

Usage (from the repository root):

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny] [--expected PATH]
                             [--record-expected PATH]

Builds the driver (hostbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR/hostbench, or .bench_build/hostbench when the variable is
unset, then runs it. Build output goes to stderr; the driver prints a
summary, a configuration manifest and, as its last stdout line, one JSON
result object. Workloads, metrics and seeds are described in
hostbench/notes.json; BENCHMARK.json at the root lists the metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_root():
    return os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def jobs():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build():
    """Configure, then bring the driver up to date. Returns its path."""
    out = os.path.join(build_root(), "hostbench")
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "hostbench_driver",
                    "-j", str(jobs())], stdout=sys.stderr, check=True)
    return os.path.join(out, "hostbench_driver")


def main(argv):
    try:
        driver = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"hostbench: build failed: {err}", file=sys.stderr)
        return 2
    results = os.path.join(build_root(), "hostbench-results")
    os.makedirs(results, exist_ok=True)
    cmd = [driver, "--out-dir", results,
           "--expected", os.path.join(HERE, "expected.txt")] + argv
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
