#!/usr/bin/env python3
"""Builds the SIMBA benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload portal|storm|chaos --seed N \
        [--seconds S] [--trace 0|1]

The first call configures and builds perfbench/CMakeLists.txt (the
repository's src/ tree plus the benchmark binary) into .bench_build/; later calls
only let CMake confirm the build is current. Build output goes to
stderr, so the last line on stdout is the binary's JSON result. The
arguments go to the binary unchanged; it rejects an unknown flag or an
unparsable value with usage and exit status 2.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build")


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    generated = [os.path.join(BUILD, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "simba_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


if __name__ == "__main__":
    build()
    binary = os.path.join(BUILD, "simba_perfbench")
    sys.exit(subprocess.run([binary] + sys.argv[1:]).returncode)
