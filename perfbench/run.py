#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-irregular --seed 1 --seconds 15 --trace 0

It builds the shipped `crisp-serve` binary (root workspace) and the
`perfbench` package (its own workspace) in release mode under
$CARGO_TARGET_DIR (default `.bench_build`), then runs one measurement.
The last line of standard output is the JSON result; build output and
the human-readable report go to standard error. Exits 2 when the
checkout is not a CRISP source tree.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The git commit, or a content hash of the sources outside git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, cwd=ROOT, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for f in sorted(files):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
        if os.path.isfile(os.path.join(ROOT, top)):
            with open(os.path.join(ROOT, top), "rb") as fh:
                h.update(top.encode() + fh.read())
    return "tree:" + h.hexdigest()[:16]


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "serve"))):
        fail("run from the root of a CRISP checkout (Cargo.toml and crates/ not found)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "crisp-bench", "--bin", "crisp-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        except OSError as e:
            fail(f"cannot run cargo: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    env["PERFBENCH_GIT"] = source_revision()
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(release, "crisp-serve"),
           "--work", ".bench_work"]
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
