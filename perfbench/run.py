#!/usr/bin/env python3
"""Builds the `leased` daemon and the benchmark from source, then runs one
benchmark workload.

    python3 perfbench/run.py --workload lockstep --seed 1 --seconds 30 --trace 0

Workloads: lockstep, pipelined, mixed-open. `--trace 1` runs the layer
ladder instead of the end-to-end measurement. Builds go to
$CARGO_TARGET_DIR (default `.bench_build` at the repository root). The
last line printed is the result JSON; without a buildable repository
around it the script exits non-zero and prints no result. The
benchmark's own tests: `cargo test --release --manifest-path
perfbench/Cargo.toml`.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILDS = [
    ["cargo", "build", "--release", "--offline", "-q", "-p", "leased", "--bin", "leased"],
    ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
     os.path.join("perfbench", "Cargo.toml")],
]


def revision():
    """The git commit when there is one, else a digest of the daemon's sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            return out[1]
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "Cargo.toml", "Cargo.lock"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sources-" + digest.hexdigest()[:16]


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for command in BUILDS:
        if subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(command), file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "leased-perfbench")
    leased = os.path.join(target, "release", "leased")
    sys.stdout.flush()
    os.execv(bench, [bench, *sys.argv[1:], "--leased", leased, "--commit", revision()])


if __name__ == "__main__":
    sys.exit(main())
