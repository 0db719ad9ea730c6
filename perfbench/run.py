#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root).
The last line of standard output is the result object; everything cargo
prints goes to standard error. Exits non-zero, without a result, when
the build or the run fails.
"""

import os
import subprocess
import sys
import time

# Leave headroom under the three-minute limit of one run.
RUN_TIMEOUT_S = 170


def git_commit(root):
    """The commit of the checkout, or "unknown" outside a git checkout."""
    env = dict(os.environ)
    # Never pick up a repository above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(root)
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env["CARGO_TARGET_DIR"] = target

    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env["PERFBENCH_GIT_COMMIT"] = git_commit(root)
    binary = os.path.join(target, "release", "drybell-perfbench")
    started = time.monotonic()
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(
            "perfbench: run exceeded %ds after %.0fs" % (RUN_TIMEOUT_S, time.monotonic() - started),
            file=sys.stderr,
        )
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
