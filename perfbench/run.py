#!/usr/bin/env python3
"""Builds perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The build (CMake, Release) goes to .bench_build/perfbench at the checkout
root and is incremental, so only the first run pays for it. Build output goes
to stderr; the benchmark's stdout passes through unchanged, so its last line is
the JSON result. Scratch files (the serve socket, the traced run's spans)
go to .bench_build/run. Exits 2 without a result when the checkout has no
punt sources to build.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "run")  # relative: keeps the socket path short
RUN_TIMEOUT_S = 175


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--parallel", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def main(argv):
    if not os.path.isdir(os.path.join(ROOT, "src")) or \
            not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no punt sources next to perfbench/; run it from a punt checkout",
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    command = [binary, *argv] if argv == ["--selftest"] else [binary, *argv, "--work-dir", WORK_DIR]
    child = subprocess.Popen(command, cwd=ROOT)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
