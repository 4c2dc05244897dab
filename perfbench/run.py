#!/usr/bin/env python3
"""Builds and runs the D2STGNN benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload fleet_reload --seed 1 --seconds 30 --trace 0

The library (src/) and the benchmark driver (perfbench/src/) are compiled
from the checkout into .bench_build/ (Release), then the driver runs one
workload. Its standard output is passed through; the last line is the JSON
result. Build output goes to standard error. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over every file under src/ and perfbench/ (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_stamp(root):
    """(sha, dirty) of the checkout, or ("unknown", "unknown") outside git."""
    if not os.path.isdir(os.path.join(root, ".git")) or not shutil.which("git"):
        return "unknown", "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                             capture_output=True, text=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                check=True, capture_output=True,
                                text=True).stdout
        return sha, "1" if status.strip() else "0"
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"


def build(root):
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(build_root) or ".." in build_root.split(os.sep):
        build_root = ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                        build_dir, "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "perfbench/workloads.json",
                   "perfbench/CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a source checkout")
    if not shutil.which("cmake"):
        fail("cmake is required to build the benchmark")

    try:
        binary = build(root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    env = dict(os.environ)
    env["PERFBENCH_GIT_SHA"], env["PERFBENCH_GIT_DIRTY"] = git_stamp(root)
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest(root)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(command, cwd=root, env=env,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
