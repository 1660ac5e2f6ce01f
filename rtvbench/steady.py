#!/usr/bin/env python3
"""Noise floor of the rtv benchmark.

Runs each workload --runs times, each with another seed, and prints every
end-to-end metric's median, first and third quartiles and spread
((Q3 - Q1) / median) against its bound from BENCHMARK.json, plus the share
of failed operations.  The set fails if any run fails an operation or a
check, or if any spread, setup_s included, is over its bound.  --save keeps
the raw results; --compare checks a second set's medians against a saved
first set, as a later change would.

    python3 rtvbench/steady.py --runs 10 --save first.json
    python3 rtvbench/steady.py --runs 10 --first-seed 101 --compare first.json

Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output checks failed")
    return result


def summarize(bench, results, baseline):
    """Prints one table per workload; returns False on a bound overrun."""
    ok = True
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, failed share "
              f"{sorted(shares)}")
        if any(r["failed"] for r in runs):
            ok = False
            print("  FAILED OPERATIONS: run.py on that seed names them on stderr")
        print(f"  {'metric':<14} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'spread':>8} {'bound':>6}  {'vs first':>9}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            note = ""
            if spread > bound:
                ok, note = False, " SPREAD OVER BOUND"
            elif spread > bound / 3:
                note = " (over a third of the bound)"
            shift = ""
            if baseline and workload in baseline:
                first = statistics.median(
                    r["metrics"][name]["value"] for r in baseline[workload])
                worse = (med - first) / first
                if m["better"] == "higher":
                    worse = -worse
                shift = f"{worse:+9.3f}"
                if worse > bound:
                    ok, note = False, note + " MEDIAN WORSE THAN BOUND"
            print(f"  {name:<14} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.2f}  {shift:>9}{note}")
    return ok


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeatable; default: every workload")
    ap.add_argument("--save", help="write the raw results to this JSON file")
    ap.add_argument("--compare", help="a --save file of an earlier set")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    baseline = None
    if args.compare:
        with open(args.compare) as f:
            baseline = json.load(f)
    results = {}
    for workload in args.workload or names:
        results[workload] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            results[workload].append(run_once(bench, workload, seed, args.seconds))
            print(f"{workload} seed {seed}: done", file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if summarize(bench, results, baseline) else 1


if __name__ == "__main__":
    sys.exit(main())
