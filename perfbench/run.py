#!/usr/bin/env python3
"""Build the `qgx` server and the benchmark from source, then run one
benchmark invocation. Run from the repository root:

    python3 perfbench/run.py --workload seed_cycles --seed 1 --seconds 15 --trace 0

Build output goes to stderr; the benchmark's last stdout line is its
JSON result. Artifacts go to $CARGO_TARGET_DIR (default .bench_build)
and scratch files to .perfbench/.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cargo(*args):
    result = subprocess.run(
        ["cargo", "build", "--release", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if result.returncode != 0:
        sys.exit(f"error: cargo build {' '.join(args)} failed")


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("error: no Cargo.toml at the repository root; nothing to build")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    cargo("-p", "querygraph-bench", "--bin", "qgx")
    cargo("--manifest-path", os.path.join("perfbench", "Cargo.toml"))
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        "--qgx",
        os.path.join(release, "qgx"),
        "--workdir",
        os.path.join(ROOT, ".perfbench"),
        *sys.argv[1:],
    ]
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
