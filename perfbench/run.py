#!/usr/bin/env python3
"""Build (on first use) and run one workload of the benchmark.

    python3 perfbench/run.py --workload eager_ring --seed 1 --seconds 25 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
reuse the build. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. The exit code is the benchmark's: 0 when every
message checked out, non-zero otherwise (and on any build failure).
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("eager_ring", "lossy_ring", "bulk_mixed")
RUN_TIMEOUT_S = 170


def build(targets=("perfbench",)):
    """Configure and build perfbench/ into BUILD_DIR; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no dkf sources next to perfbench/ (expected src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                    "--target", *targets],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    try:
        build_dir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
