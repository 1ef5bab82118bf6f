#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

Runs each workload of BENCHMARK.json repeatedly, each time with another
seed, and prints for every end-to-end metric its median and spread --
the distance between the first and third quartile as a share of the
median -- next to the bound BENCHMARK.json sets for it. A spread
under a third of the bound is steady; one over the bound fails. Seeds
run from 1 up.

With --sets 2 it runs two interleaved sets, judges the worse set's
spread, and also reports how far the second set's median moved from
the first's, against the same bound.

Run from the repository root:

    python3 perfbench/steady.py [--runs 10] [--sets 1]
                                [--workloads paper-cold,stream-fleet]

Exit code 1 when any spread or drift exceeds its bound or any
run fails its correctness checks.
"""

import argparse
import json
import statistics
import subprocess
import sys

FIRST_SEED = 1

def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"  {workload} seed {seed}: exit {proc.returncode}, "
              f"correct={result.get('correct')}", file=sys.stderr)
        print("\n".join(lines[-8:]), file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else float("inf"), median


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=[1, 2])
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    ok = True
    for workload in workloads:
        # sets[s][metric] -> values, runs of the two sets interleaved.
        sets = [{m["name"]: [] for m in metrics} for _ in range(args.sets)]
        for i in range(args.runs):
            for s in range(args.sets):
                seed = FIRST_SEED + i
                values = run_once(bench["command"], workload, seed,
                                  bench["run_seconds"])
                if values is None:
                    ok = False
                    continue
                for name, vals in sets[s].items():
                    vals.append(values[name])
        print(f"== {workload}: {args.runs} runs x {args.sets} set(s), "
              f"seeds {FIRST_SEED}..{FIRST_SEED + args.runs - 1}")
        print(f"   {'metric':<28} {'median':>14} {'spread per set':>16} "
              f"{'bound':>6} {'drift':>8}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = sets[0][name]
            if len(first) < 2:
                continue
            median = spread(first)[1]
            spreads = [spread(v)[0] for v in (st[name] for st in sets)
                       if len(v) >= 2]
            s = max(spreads)
            drift = ""
            verdict = "steady"
            if s > bound:
                verdict, ok = "FAIL", False
            elif s > bound / 3:
                verdict = "loose"
            if args.sets == 2 and len(sets[1][name]) >= 2:
                second = statistics.median(sets[1][name])
                change = (second - median) / abs(median) if median else 0.0
                worse = change if m["better"] == "lower" else -change
                drift = f"{change:+.3f}"
                if worse > bound:
                    verdict, ok = "DRIFT", False
            shown = "/".join(f"{v:.4f}" for v in spreads)
            print(f"   {name:<28} {median:>14.6g} {shown:>16} {bound:>6.3f} "
                  f"{drift:>8}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
