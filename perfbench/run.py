#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/BENCHMARK.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the libraries, ingest_server and the
benchmark driver from source into .bench_build/ (Release), runs one workload,
and prints the driver's report; the last line of standard output is the JSON
result. Exits non-zero, printing no result, when the sources are missing, the
build fails, or the driver fails or trips a validity guard.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("fleet-zipf1.5", "readmix-zipf0.8")
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root):
    here = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        fail("repository sources not found next to perfbench/")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench_driver",
         "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                print(tail, file=sys.stderr)
                fail(f"build step failed ({rc}): {' '.join(cmd)}")
    driver = os.path.join(build_dir, "perfbench_driver")
    server = os.path.join(build_dir, "cots", "examples", "ingest_server")
    for path in (driver, server):
        if not os.access(path, os.X_OK):
            fail(f"build produced no {path}")
    return build_dir, driver, server


def check_trace(root, trace_path):
    """Validates the span file with the repository's trace_summary tool."""
    tool = os.path.join(root, "tools", "trace_summary.py")
    if not os.path.isfile(tool):
        print("perfbench: tools/trace_summary.py absent; trace not validated")
        return
    proc = subprocess.run([sys.executable, tool, trace_path],
                          capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    print(lines[0] if lines else "trace_summary: no output")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"trace_summary rejected {trace_path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be > 0 and --seed >= 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir, driver, server = build(root)
    cmd = [driver, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--server={server}"]
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        trace_path = os.path.join(build_dir, "traces",
                                  f"{args.workload}-seed{args.seed}.json")
        cmd.append(f"--trace-out={trace_path}")
    # The driver runs in its own process group so that a timeout also stops
    # the ingest_server processes it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # anything the driver left behind
    except ProcessLookupError:
        pass
    if out is None:
        proc.communicate()
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail(f"driver exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver printed no JSON result")
    print("\n".join(lines[:-1]))
    if trace_path is not None:
        check_trace(root, trace_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
