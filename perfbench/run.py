#!/usr/bin/env python3
"""Session benchmark entry point.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload hub_split --seed 1 --seconds 10 --trace 0

Builds perfbench/session.exe from source with dune (inside the checkout,
with dune's shared cache off, so nothing is read or written outside it),
then runs one workload for the given number of seconds. The session
prints a run header, every metric with its unit, and, as its last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones of the traced run, whose spans land in perfbench/out/.

Exits non-zero, printing no result, when the checkout lacks the program's
sources, the build fails, or the session fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("hub_split", "pivot_zipf", "star_durable")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "session.exe")
OUT = os.path.join("perfbench", "out")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be positive")

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(f"run from the repository root: {needed} is missing")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/session.exe"],
            env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not complete: {e}")
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed")

    os.makedirs(OUT, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT]
    try:
        run = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"session did not complete: {e}")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"session exited with {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("session printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
