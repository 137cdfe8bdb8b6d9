#!/usr/bin/env python3
"""Builds the fault-grading benchmark from source and runs one workload.

    python3 perfbench/run.py --workload table5_full --seed 1 --seconds 25 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root, as a Release build of
perfbench/CMakeLists.txt (the sbst library plus the benchmark binary).
Every argument is passed to the binary; the last line it prints is the
JSON result. The exit code is non-zero, with no result printed, when the
build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                         "perfbench")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    cmd = [os.path.join(build, "perfbench"), *sys.argv[1:],
           "--reference", os.path.join(HERE, "reference.txt"),
           "--work-dir", os.path.join(build, "work")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
