#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary (perfbench/CMakeLists.txt, which compiles the
rlgraph libraries from src/) into .bench_build/, then runs one workload in
the default configuration: RLGRAPH_NUM_THREADS and RLGRAPH_TRACE are removed
from the binary's environment. The binary's stdout ends with the result JSON
line; its exit code is passed through (1 = a correctness check failed).
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ("act_pong", "apex_pong", "impala_dmlab", "serve_low", "serve_high")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(root):
    """Configure (once) and build the binary; returns its path."""
    build_dir = os.path.join(root, BUILD_DIR)
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
            check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")) or not shutil.which("git"):
        return "unknown"
    out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            log("missing %s: run from the repository root" % needed)
            return 2
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2

    env = dict(os.environ)
    caller_threads = env.pop("RLGRAPH_NUM_THREADS", None)
    env.pop("RLGRAPH_TRACE", None)
    env["PERFBENCH_GIT_SHA"] = git_sha(root)
    if caller_threads is not None:
        log("ignoring RLGRAPH_NUM_THREADS=%s: the benchmark measures the "
            "default configuration" % caller_threads)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench timed out after %d s" % RUN_TIMEOUT_S)
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
