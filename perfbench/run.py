#!/usr/bin/env python3
"""Builds concord-serve and the perfbench binary from source, then runs
one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. Both builds go to
$CARGO_TARGET_DIR (default: .bench_build at the root); server logs,
traces and span files go to perfbench-run/ inside it. Build output goes
to standard error, so the last line of standard output is the
benchmark's JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "concord-server", "--bin", "concord-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    run_dir = os.path.join(target, "perfbench-run")
    os.makedirs(run_dir, exist_ok=True)
    bench = os.path.join(target, "release", "perfbench")
    serve = os.path.join(target, "release", "concord-serve")
    args = [bench] + sys.argv[1:] + ["--serve", serve, "--run-dir", run_dir]
    sys.exit(subprocess.run(args, cwd=root, env=env).returncode)


if __name__ == "__main__":
    main()
