#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

Run from the root of a checkout:

    python3 cashbench/run.py --workload repro|serve|fuzz --seed N \
        --seconds S --trace 0|1

The driver (cashbench/main.ml) prints its full result record and, as the
last line of standard output, the summary JSON object. This wrapper adds
the commit and a digest of the built sources to the record's host
fingerprint, and exits non-zero without a result when the checkout
cannot build the driver.
"""

import hashlib
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "cashbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
SOURCE_DIRS = ["lib", "bin", "cashbench"]
SOURCE_SUFFIXES = (".ml", ".mli", "dune", "dune-project", ".txt")


def fail(msg):
    print("cashbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the path and bytes of every source the driver builds."""
    h = hashlib.sha256()
    paths = ["dune-project"]
    for top in SOURCE_DIRS:
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d not in ("out", "_build"))
            paths += [os.path.join(root, f) for f in files if f.endswith(SOURCE_SUFFIXES)]
    for p in sorted(paths):
        h.update(p.encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a full checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./cashbench/main.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("the build timed out")
    if build.returncode != 0:
        fail("the build failed")
    args = sys.argv[1:] + ["--commit", commit(), "--source-digest", source_digest()]
    try:
        run = subprocess.run([EXE] + args, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
