#!/usr/bin/env python3
"""Builds the perfbench binary from the checkout's sources and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and is incremental; compiler output goes to stderr
so the last line of stdout stays the binary's JSON result. Exits non-zero
without a result when the sources or the build are missing.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run takes well under a minute; a hung engine is killed (and waited for)
# instead of outliving the benchmark.
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no AdaVP sources (src/) next to perfbench/\n")
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return 2
    sys.stdout.flush()
    try:
        result = subprocess.run([os.path.join(build, "perfbench")] + sys.argv[1:],
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
