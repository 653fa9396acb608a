#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The C++ benchmark program (perfbench/src) is compiled with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then run once.
Its human-readable report goes to stdout; the last stdout line is the JSON
result {"correct", "attempted", "failed", "metrics"}. Traced runs write
host spans and the simulator's flow trace as chrome JSON under
<build dir>/traces. Exits non-zero, printing no result, if the build or the
run fails.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("keepalive_small", "churn_crash", "bulk_stream", "fleet_failover")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "testbed.hpp")):
        raise RuntimeError("simulator sources (src/) not found next to perfbench/")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    jobs = max(1, min(4, os.cpu_count() or 1))
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", bdir, "-j", str(jobs)], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "neatbench")


def parse_result(stdout):
    """The JSON result on the last line, or None if it is malformed."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return None
    return res


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-dir", os.path.join(build_dir(), "traces")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=3 * args.seconds + 90)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write((e.stdout or b"").decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        print("perfbench: run timed out after %.0f s" % (time.monotonic() - t0),
              file=sys.stderr)
        return 1
    res = parse_result(proc.stdout) if proc.returncode == 0 else None
    if res is None:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        print("perfbench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
