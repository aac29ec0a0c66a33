#!/usr/bin/env python3
"""Builds casa-seed, casa-serve and the benchmark harness from source, then
runs one benchmark workload.

    python3 perfbench/run.py --workload <batch-human|batch-unmapped|serve-small> \\
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. Build output goes to stderr; the harness
prints the result object as the last line of stdout. Builds land in
$CARGO_TARGET_DIR (default .bench_build); per-run inputs live in
.bench_work and are removed when the run ends.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(cmd, env):
    """Runs a cargo build with its output on stderr; raises on failure."""
    subprocess.run(cmd, env=env, stdout=sys.stderr, check=True)


def main():
    workspace = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(workspace) or not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: the repository sources are missing next to perfbench/", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    try:
        build(["cargo", "build", "--release", "--offline", "--manifest-path", workspace,
               "-p", "casa", "--bin", "casa-seed", "--bin", "casa-serve"], env)
        build(["cargo", "build", "--release", "--offline", "--manifest-path",
               os.path.join(HERE, "Cargo.toml")], env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:], "--bin-dir", release,
           "--work-dir", os.path.join(ROOT, ".bench_work")]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
