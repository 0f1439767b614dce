#!/usr/bin/env python3
"""Runs one workload of the gchase benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the benchmark package
(perfbench/CMakeLists.txt: the library sources plus the benchmark binary,
RelWithDebInfo as in the `default` preset) into .bench_build/ unless that
build is up to date, then runs the workload in one process of the benchmark
binary. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. A traced run (--trace 1) also
writes its spans to .bench_build/spans/. See perfbench/README.md.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "gchase_perfbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log_tail(path, lines=30):
    with open(path, errors="replace") as log:
        return "".join(log.readlines()[-lines:])


def build():
    """Configures (once) and builds the benchmark binary; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    stamp = os.path.join(BUILD, "configured.stamp")
    # One build at a time per checkout.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(stamp):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "gchase_perfbench",
                      "-j", jobs])
        with open(log_path, "a") as log:
            for step in steps:
                try:
                    done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                          timeout=BUILD_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    print("perfbench: build timed out", file=sys.stderr)
                    return False
                if done.returncode != 0:
                    print("perfbench: build step failed: " + " ".join(step),
                          file=sys.stderr)
                    print(log_tail(log_path), file=sys.stderr)
                    return False
                if step[1] == "-S":
                    open(stamp, "w").close()
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--size", args.size]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish within %d s"
              % (args.workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 3
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
