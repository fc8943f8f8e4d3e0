#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload point --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first call configures and builds
perfbench/ (the repository's libraries plus the perfbench program,
RelWithDebInfo) under $CARGO_TARGET_DIR (default .bench_build); later
calls only rebuild what changed.  The program's output is relayed: a
context line, then, as the last line, the result object with the keys
correct, attempted, failed and metrics.  With --trace 1 the program also writes
its spans as Perfetto trace-event JSON, which this script checks
parses before it reports the run as correct.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point", "sweep", "serve", "kernels")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = (os.environ.get("CARGO_TARGET_DIR")
            or os.path.join(ROOT, ".bench_build"))
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configure once, then build the program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no repository sources next to perfbench/ (expected ../src)")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=log,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                die("build step failed: %s (%s)" % (" ".join(cmd), e))
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def check_trace(path):
    """The Perfetto file parses and its B/E slices balance per lane."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return "trace file does not parse: %s" % e
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return "trace file has no traceEvents list"
    depth = {}
    for e in events:
        ph = e.get("ph")
        if ph == "B":
            depth[e["tid"]] = depth.get(e["tid"], 0) + 1
        elif ph == "E":
            depth[e["tid"]] = depth.get(e["tid"], 0) - 1
            if depth[e["tid"]] < 0:
                return "trace slice ends before it begins (tid %s)" % (
                    e["tid"])
    if not depth or any(depth.values()):
        return "trace slices missing or unbalanced"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 < args.seconds <= 120 or args.seed < 0:
        die("--seconds must be in (0, 120] and --seed non-negative")

    bdir = build_dir()
    exe = build(bdir)
    trace_out = os.path.join(
        bdir, "trace-%s-%d.json" % (args.workload, args.seed))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        die("perfbench failed (exit %d)" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("perfbench's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("perfbench's result has unexpected keys")

    if args.trace:
        problem = check_trace(trace_out)
        if problem:
            print("perfbench: " + problem, file=sys.stderr)
            result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
