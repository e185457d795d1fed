#!/usr/bin/env python3
"""Steadiness command: runs each benchmark workload repeatedly and reports
how much each metric moves between runs.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10]

Every workload of BENCHMARK.json runs untraced for its run_seconds. Run r
(from 0) uses seed r + 1 and visits the workloads in declaration order on
even r and in reverse order on odd r, so slow drift of the host does not
land on one workload. For every metric it prints the median,
the quartiles (statistics.quantiles, n=4), min, max, the spread
(Q3 - Q1) / median, the metric's bound from BENCHMARK.json, and the gap
between the medians of the first and second half of the runs as a share
of the first. A spread above a third of its bound is flagged with `!`.
It also checks that every run is correct, exits 0, and fails the same
share of its operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    notes = [l[2:] for l in lines if l.startswith("# target")]
    return result, notes


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    opts = ap.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = {w: [] for w in workloads}
    for r in range(opts.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = r + 1
            res, notes = run_once(bench["command"], w, seed, bench["run_seconds"])
            results[w].append(res)
            print(f"run {r + 1}/{opts.runs} {w} seed {seed}: attempted {res['attempted']}"
                  f" failed {res['failed']} {' '.join(notes)}", file=sys.stderr, flush=True)

    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n== {w}: {len(runs)} runs, failed share {shares}")
        print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12}"
              f" {'spread':>7} {'bound':>6} {'halfgap':>8}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("nan")
            half = len(vals) // 2
            gap = float("nan")
            if half >= 1:
                m1 = statistics.median(vals[:half])
                m2 = statistics.median(vals[half:])
                gap = (m2 - m1) / m1 if m1 else float("nan")
            bound = bounds.get(name)
            flag = "!" if bound and spread > bound / 3 else " "
            bstr = f"{bound:.2f}" if bound else "-"
            print(f"{name + ' [' + unit + ']':<28} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vals):12.6g}"
                  f" {max(vals):12.6g} {spread:7.3f}{flag}{bstr:>6} {gap:8.3f}")


if __name__ == "__main__":
    main()
