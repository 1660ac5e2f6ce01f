#!/usr/bin/env python3
"""Build the rtv benchmark from source and run it.

    python3 rtvbench/run.py --workload table1|slack|service --seed N \
        [--seconds S] --trace 0|1
    python3 rtvbench/run.py --small        # every workload and mode, small inputs

Run from the repository root.  The build goes to $CARGO_TARGET_DIR when it
is set, else to .bench_build/; its output goes to stderr.  The benchmark's
last stdout line is one JSON object: correct, attempted, failed, metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1", "slack", "service")


def run_seconds():
    """The run length BENCHMARK.json fixes, which its bounds describe."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build(out_dir):
    """Configure (first time) and build; exits non-zero on failure."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "--target", "rtvbench", "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            sys.exit("rtvbench: build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "rtvbench")


def run(binary, out_dir, workload, seed, seconds, trace, small):
    """Runs the benchmark; returns (exit code, last stdout line)."""
    # A relative socket directory keeps the Unix socket path short.
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.relpath(out_dir, ROOT)]
    if small:
        cmd.append("--small")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def small_suite(binary, out_dir):
    """Every workload in both modes on small inputs: every check, quickly."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, last = run(binary, out_dir, workload, 1, 1, trace, True)
            try:
                result = json.loads(last)
            except ValueError:
                result = {}
            good = (rc == 0 and result.get("correct") is True
                    and result.get("failed") == 0
                    and result.get("attempted", 0) > 0)
            print(f"small {workload} trace={trace}: {'ok' if good else 'FAILED'}",
                  file=sys.stderr)
            ok = ok and good
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="small inputs, one round; without --workload, "
                         "every workload in both modes")
    args = ap.parse_args()
    if not args.workload and not args.small:
        ap.error("--workload is required (or --small for the small suite)")

    out_dir = build_dir()
    if not args.workload:
        return small_suite(build(out_dir), out_dir)
    if args.seconds is None:
        args.seconds = run_seconds()
    binary = build(out_dir)
    rc, _ = run(binary, out_dir, args.workload, args.seed, args.seconds,
                args.trace, args.small)
    return rc


if __name__ == "__main__":
    sys.exit(main())
