#!/usr/bin/env python3
"""Build and run the end-to-end pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout of the repository. It builds
perfbench/bench.exe with dune inside the checkout (in _build, with the dune
cache off), runs it, and passes its output through. The last line of
standard output is the JSON result. It exits non-zero, without a result,
when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["pa_grid_rows", "construct_ktree", "mst_grid"]
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "--display", "quiet", "./perfbench/bench.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("benchmark failed: %s" % e)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if run.returncode != 0 or not ok:
        sys.stderr.write(run.stdout)
        fail("benchmark exited with code %d and no result" % run.returncode)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
