#!/usr/bin/env python3
"""Steadiness mode: runs the benchmark back to back and reports, for each
end-to-end metric, its median, quartiles and spread against its bound.

Run from the repository root:

    python3 coordbench/steadiness.py --workload churn-steps --runs 10
    python3 coordbench/steadiness.py --workload paper-mix --runs 10 --vary-seed --sets 2

By default every run uses the same seed (`--seed`, default 1), which
isolates host noise; `--vary-seed` gives run i the seed `seed + i`, which
adds the spread between inputs. The spread is (Q3 - Q1) / median with the
quartiles of `statistics.quantiles(values, n=4)`; a metric is steady when
its spread is below a third of its bound. With `--sets 2` the whole set is
repeated and the second median is compared with the first. The command and
bounds come from BENCHMARK.json; the summary is printed as JSON last.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"incorrect run (seed {seed}): {result}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summarise(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    spread = (q3 - q1) / mid if mid else float("inf")
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "steady": spread < bound / 3,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()

    with open(args.benchmark) as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics = spec["end_to_end"]

    sets = []
    for set_index in range(args.sets):
        values = {metric["name"]: [] for metric in metrics}
        for run in range(args.runs):
            seed = args.seed + run if args.vary_seed else args.seed
            measured = run_once(spec["command"], args.workload, seed, seconds, 0)
            for name in values:
                values[name].append(measured[name])
            print(f"set {set_index} run {run} seed {seed}: "
                  + " ".join(f"{k}={v:.6g}" for k, v in measured.items()),
                  file=sys.stderr)
        sets.append({
            metric["name"]: summarise(values[metric["name"]], metric["bound"])
            for metric in metrics
        })

    print(f"{'metric':<20} {'median':>14} {'spread':>8} {'bound':>6} steady")
    for metric in metrics:
        name = metric["name"]
        for index, summary in enumerate(sets):
            print(f"{name:<20} {summary[name]['median']:>14.6g} "
                  f"{summary[name]['spread']:>8.4f} {summary[name]['bound']:>6} "
                  f"{'yes' if summary[name]['steady'] else 'NO'}"
                  + (f" (set {index})" if len(sets) > 1 else ""))
    drift = {}
    if len(sets) > 1:
        for metric in metrics:
            name = metric["name"]
            first, second = sets[0][name]["median"], sets[-1][name]["median"]
            worse = (second - first) if metric["better"] == "lower" else (first - second)
            drift[name] = worse / first if first else 0.0
            ok = drift[name] <= metric["bound"]
            print(f"drift {name:<20} {drift[name]:+.4f} {'ok' if ok else 'WORSE THAN BOUND'}")
    print(json.dumps({
        "workload": args.workload,
        "mode": "varied seeds" if args.vary_seed else "fixed seed",
        "host_cores": os.cpu_count(),
        "runs": args.runs,
        "sets": sets,
        "drift": drift,
    }))


if __name__ == "__main__":
    main()
