#!/usr/bin/env python3
"""Run one ezRealtime benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compile_mix|exhaustive_search|serve_mix
        --seed N --seconds S --trace 0|1 [--pool main|heldout]

Run from the repository root. The first run builds perfbench/ (the
repository's libraries from src/ plus the benchmark program) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
check that build. Build output goes to stderr.

Standard output ends with two lines: a detail object (percentiles with
sample counts, per-layer calls and shares, host fingerprint) and the result
object {"correct", "attempted", "failed", "metrics"}, each metric with its
unit. --trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is 0 only when every output of the run was correct.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile_mix", "exhaustive_search", "serve_mix")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base) if not os.path.isabs(base) else base


def build(build_dir):
    """Configures once, then lets the build tool bring the binaries up to date."""
    for needed in ("src/CMakeLists.txt", "tools/ezrt.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("repository sources missing: " + needed)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(["ninja", "--version"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL) == 0:
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs, "--target",
                        "perfbench", "ezrt"], stdout=sys.stderr) != 0:
        fail("build failed")


def cmake_cache(build_dir):
    values = {}
    with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


def source_digest():
    """SHA-256 over the sources the benchmark builds and reads."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools", "ezrt.cpp"),
             HERE]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(root) for f in files)
        for path in paths:
            if "__pycache__" in path:
                continue
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def fingerprint(build_dir):
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"nproc": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE"), "commit": commit,
            "source_sha256": source_digest()}


def stop_group(pgid):
    """Kills what is left of a process group and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--pool", default="main", choices=("main", "heldout"))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build_dir = os.path.join(build_root(), "perfbench")
    build(build_dir)
    scratch = os.path.join(build_root(), "run")
    os.makedirs(scratch, exist_ok=True)
    # Relative to the working directory: a unix socket path is short.
    scratch = os.path.relpath(scratch, ROOT)
    command = [os.path.join(build_dir, "perfbench"), "run",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--data", HERE, "--pool", args.pool,
               "--ezrt", os.path.join(build_dir, "ezrt"), "--scratch", scratch]
    # Its own process group, so the server it spawns cannot outlive it.
    run = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, start_new_session=True)
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(run.pid)
        run.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    stop_group(run.pid)
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        fail("no result (exit code %d)" % run.returncode, run.returncode or 2)
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail("malformed result line")
    detail["host"] = fingerprint(build_dir)
    print(json.dumps(detail))
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
