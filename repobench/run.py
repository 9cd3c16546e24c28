#!/usr/bin/env python3
"""Builds and runs the agave-rs repository benchmark.

    python3 repobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark package is built from
source with cargo (into $CARGO_TARGET_DIR, default `.bench_build`), then
run once; its last line of standard output is the result. This wrapper
waits for the benchmark process itself, so it can add the process's
peak resident set size (`peak_rss_mb`) to the end-to-end metrics.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "agave-repobench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, cwd=ROOT,
    )
    if build.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 2

    command = [os.path.join(target, "release", BINARY),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    out = child.stdout.read()
    child.stdout.close()
    # wait4 reports this one child's own resource usage; the cargo build
    # above is another child and must not count.
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        print(f"run.py: the benchmark exited with {child.returncode}", file=sys.stderr)
        return child.returncode if child.returncode > 0 else 1

    lines = out.decode().strip().splitlines()
    if not lines:
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if args.trace == 0:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
