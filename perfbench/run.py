#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--window-start K]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); cargo's output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Exits
non-zero, printing no result, if the build fails or the run outlives
RUN_TIMEOUT_S.
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "mirage-perfbench")
    # Its own process group, so a timeout also stops the cluster
    # processes the host workload starts.
    run = subprocess.Popen([exe] + sys.argv[1:], env=env, start_new_session=True)
    try:
        return run.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
