#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs every workload repeatedly, alternating the workload order from round
to round, in several time windows separated by a pause. Prints, per
workload and metric, the median, quartiles, min and max over all runs, the
spread (interquartile range over median) and how far each window's median
lies from the first window's. These spreads are what the bounds in
BENCHMARK.json are set from.

Run from the repository root:

    python3 e2ebench/steady.py --rounds 5 --windows 2 --gap 120

It builds the benchmark once (offline, release) and then runs the binary
directly, so build time is not measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["running_example", "large_orders", "durable_history"]


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--quiet", "--release", "--offline", "--manifest-path", manifest],
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    return os.path.join(target, "release", "e2ebench")


def run_once(binary, workload, seed, seconds, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed: {out.stderr.strip()}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=5, help="runs per workload per window")
    ap.add_argument("--windows", type=int, default=2, help="separate time windows")
    ap.add_argument("--gap", type=float, default=120.0, help="pause between windows, seconds")
    ap.add_argument("--seconds", type=float, default=30.0, help="--seconds of each run")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="first seed; each run uses the next")
    args = ap.parse_args()

    binary = build()
    workloads = args.workloads.split(",")
    # runs[workload][window] = list of metric dicts
    runs = {w: [[] for _ in range(args.windows)] for w in workloads}
    seed = args.seed
    for window in range(args.windows):
        if window:
            time.sleep(args.gap)
        for r in range(args.rounds):
            order = workloads if r % 2 == 0 else list(reversed(workloads))
            for w in order:
                runs[w][window].append(run_once(binary, w, seed, args.seconds, args.trace))
                seed += 1

    for w in workloads:
        print(f"== {w}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'min':>12s} "
              f"{'max':>12s} {'iqr/med':>8s} {'win/win0':>9s}")
        all_runs = [m for win in runs[w] for m in win]
        for name in all_runs[0]:
            values = [m[name] for m in all_runs]
            q1, q2, q3 = summarize(values)
            spread = (q3 - q1) / q2 if q2 else 0.0
            base = statistics.median(m[name] for m in runs[w][0])
            drift = max(
                (abs(statistics.median(m[name] for m in win) / base - 1.0) if base else 0.0)
                for win in runs[w]
            )
            print(f"  {name:34s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {min(values):12.6g} "
                  f"{max(values):12.6g} {spread:8.3f} {drift:9.3f}")


if __name__ == "__main__":
    main()
