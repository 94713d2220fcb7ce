#!/usr/bin/env python3
"""Build `sprint` and the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rack-1m --seed 1 --seconds 20 --trace 0

Workloads: rack-1m, sweep-grid. `--trace 0` prints the end-to-end
metrics, `--trace 1` the per-layer ones (see README.md).
Build output goes to stderr; the last line of stdout is the JSON result.
Builds land in $CARGO_TARGET_DIR (default `.bench_build`); the traced
run's journal, spool and span file in `.bench_work`.
"""

import os
import signal
import subprocess
import sys
import time


def stop_group(pgid):
    """Kill whatever is left of the benchmark's process group and wait
    until every member has exited."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/serve")
            and os.path.isfile("perfbench/Cargo.toml")):
        print("perfbench: run from the root of a checkout of the repository "
              "(Cargo.toml, crates/ and perfbench/ are needed to build)", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    trace = "0"
    if "--trace" in args:
        i = args.index("--trace")
        trace = args[i + 1] if i + 1 < len(args) else ""
    binary = "perfbench-trace" if trace in ("1", "true") else "perfbench"
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "sprint-cli"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", "perfbench/Cargo.toml", "--bin", binary],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, binary), *args,
           "--sprint", os.path.join(release, "sprint"), "--work", ".bench_work"]
    # Its own process group, so every process the benchmark starts can be
    # stopped and waited for, even if the benchmark itself dies.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        stop_group(proc.pid)


if __name__ == "__main__":
    sys.exit(main())
