#!/usr/bin/env python3
"""Build and run one serving-benchmark run (see perfbench/NOTES.md).

Run from the repository root:

    python3 perfbench/run.py --workload edit-stream --seed 1 --seconds 45 \
        --trace 0

Builds the parct library from src/ plus perfbench_serve into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
perfbench_serve. Build output goes to stderr; stdout carries its
metadata line and, last, its result object.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def source_digest():
    """sha256 over the sources that make up the measured program."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--parallel", "3"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_serve")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no parct sources next to perfbench/",
              file=sys.stderr)
        return 2
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_root = os.path.join(ROOT, out_root, "perfbench")
    try:
        binary = build(os.path.join(out_root, "build"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(out_root, "run"),
           "--commit", commit_id(), "--source-sha256", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    if proc.returncode != 0:
        print(f"perfbench: perfbench_serve exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 5
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
