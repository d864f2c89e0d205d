#!/usr/bin/env python3
"""Builds the STEAC workspace's worker and this benchmark, then runs one
workload and prints its result as the last line of stdout.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload verify_stream --seed 1 --seconds 20 --trace 0

Every argument is passed on to the benchmark binary (see README.md).
Builds go to $CARGO_TARGET_DIR, or .bench_build when it is unset.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet", *args]
    # Cargo's own output goes to stderr, so stdout ends with the result.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    root = os.getcwd()
    for needed in ("Cargo.toml", os.path.join("src", "bin", "steac-worker.rs")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the root of a STEAC checkout: no {needed}")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo_build(["--bin", "steac-worker"], env)
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env)
    binary = os.path.join(target, "release", "steac-perfbench")
    worker = os.path.join(target, "release", "steac-worker")
    cmd = [binary, "--worker", worker,
           "--trace-dir", os.path.join(target, "perfbench-traces"), *sys.argv[1:]]
    done = subprocess.run(cmd, env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
