#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Builds perfbench/ (the library modules,
vulnds_cli and the benchmark binary; Release) into .bench_build, then runs one
workload and prints its result as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads: hot_cached, zipf_mixed, update_requery, fig6_grid (README.md in
this directory says what each measures). --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics. Exit status 0 only when every
output oracle and workload guard held.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("hot_cached", "zipf_mixed", "update_requery", "fig6_grid")
DEFAULT_SEED = 1
# A second seed the workload guards must also pass on; a gain claimed from
# runs on DEFAULT_SEED must also hold here.
HOLDOUT_SEED = 2
RUN_TIMEOUT_S = 170

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
WORK_DIR = os.path.join(ROOT, ".bench_out")


def source_digest():
    """Digest of everything the build reads, so cached inputs follow the code."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "vulnds_cli"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")) or not build():
        sys.stderr.write("perfbench: build failed\n")
        return 1
    binary = os.path.join(BUILD_DIR, "perfbench")
    cli = os.path.join(BUILD_DIR, "vulnds", "vulnds_cli")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cli", cli, "--work-dir", WORK_DIR, "--source", source_digest()]
    # The benchmark binary and the servers it spawns share a fresh process
    # group, so nothing outlives the run even if the binary dies or times out.
    bench_proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                   text=True, start_new_session=True)
    try:
        stdout, _ = bench_proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(bench_proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        bench_proc.wait()
    if stdout is None:
        sys.stderr.write("perfbench: run exceeded %ds\n" % RUN_TIMEOUT_S)
        return 1
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("perfbench: no result printed (exit %d)\n" % bench_proc.returncode)
        return 1
    print(json.dumps(result))
    return 0 if bench_proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
