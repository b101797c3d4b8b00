#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload foodmart_carts --seed 1 \
        --seconds 40 --trace 0

Run it from the root of a goalrec source tree. It configures and builds
perfbench/ into .bench_build/ (the first run compiles the goalrec libraries),
generates the workload's inputs for the seed into .bench_work/ (cached per
source digest and seed), then runs the measurement. Everything the measured
process prints goes to stdout; its last line is the result as one JSON
object. Build and generation logs go to stderr.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("foodmart_carts", "fortythree_sessions")
# A run must finish within 180 s; leave room for this script.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the benchmark and the library sources it builds."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            if name.endswith((".cc", ".h", ".txt", ".py")):
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DPERFBENCH_BUILD_TESTS=OFF"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def inputs(workload, seed, digest):
    """The workload's generated inputs for `seed`, generated once."""
    directory = os.path.join(WORK, digest[:16], workload, "seed-%d" % seed)
    marker = os.path.join(directory, "complete")
    if not os.path.exists(marker):
        staging = directory + ".tmp"
        shutil.rmtree(staging, ignore_errors=True)
        subprocess.run([BINARY, "gen", "--workload=" + workload,
                        "--seed=%d" % seed, "--dir=" + staging],
                       stdout=sys.stderr, check=True, timeout=120)
        shutil.rmtree(directory, ignore_errors=True)
        os.replace(staging, directory)
        open(marker, "w").close()
    return directory


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no goalrec source tree around %s" % HERE)
        return 2

    started = time.monotonic()
    digest = source_digest()
    try:
        build()
        directory = inputs(args.workload, args.seed, digest)
    except (OSError, subprocess.SubprocessError) as error:
        log("perfbench: %s" % error)
        return 2
    command = [BINARY, "run", "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--dir=" + directory,
               "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
               "--git_sha=" + git_sha(), "--source_sha256=" + digest]
    if args.trace:
        command.append("--spans_out=" + os.path.join(directory, "spans.tsv"))
    timeout = max(10, RUN_TIMEOUT_S - (time.monotonic() - started))
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %.0f s" % timeout)
        return 3
    lines = run.stdout.splitlines()
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        log("perfbench: the run printed no result (exit %d)" % run.returncode)
        return run.returncode or 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
