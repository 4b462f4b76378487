#!/usr/bin/env python3
"""Builds and runs the WiLocator serving benchmark.

Usage (from the repository root):
  python3 servebench/run.py --workload ingest|read|routed --seed N \
      --seconds S --trace 0|1
  python3 servebench/run.py --selftest

The first call configures and builds servebench/ (and the library it
compiles from src/) into $CARGO_TARGET_DIR/servebench, default
.bench_build/servebench; later calls only rebuild what changed. Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result. Generated inputs are cached per seed in servebench/.inputs/.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "servebench")


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["ingest", "read", "routed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the tests of the benchmark's own code")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        return subprocess.run([os.path.join(out, "servebench_selftest")]).returncode

    state = os.path.join(out, f"state-{os.getpid()}")
    cmd = [os.path.join(out, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache-dir", os.path.join(BENCH_DIR, ".inputs"),
           "--state-dir", state]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("servebench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(state, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
