#!/usr/bin/env python3
"""Repeat every workload and print the spread of each end-to-end metric.

Run from the repository root:

    python3 perfbench/stability.py                 # 10 seeds per workload
    python3 perfbench/stability.py --runs 5 --workloads deep_sweep
    python3 perfbench/stability.py --runs 1 --seconds 5   # every metric once
    python3 perfbench/stability.py --save set1.json       # keep the values
    python3 perfbench/stability.py --against set1.json    # compare two sets

Each run uses another seed (first-seed, first-seed + 1, ...). For every
metric the runner prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json. A spread at or above a third of
its bound is marked WIDE: the bound cannot then separate a regression from
noise. setup_s is reported but not held to its bound, which only limits how
far its median may move between two sets of runs. With --against, each
median is also compared with the median of an earlier set saved by --save,
and a move in the metric's worse direction by more than its bound is
marked WORSE. Exits 1 if any run fails or reports correct = false, or if
any metric is WORSE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--save", help="write every metric value to FILE")
    parser.add_argument("--against", help="compare with a set saved earlier")
    args = parser.parse_args()
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    ok = True
    saved = {}
    for workload in args.workloads:
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.first_seed + i, args.seconds)
            if r is None or not r["correct"]:
                ok = False
                print(f"{workload}: run with seed {args.first_seed + i} failed")
                continue
            results.append(r)
        if not results:
            continue
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}: {len(results)} runs, {attempted} ops, "
              f"error_rate {failed / attempted:.6g}")
        print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>10}{'bound':>8}"
              + (f"{'earlier':>14}{'move':>9}" if earlier else ""))
        saved[workload] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            saved[workload][name] = values
            if len(values) > 1:
                q1, med, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = med = q3 = values[0]
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread >= metric["bound"] / 3:
                flag = "  WIDE"
            before = earlier.get(workload, {}).get(name)
            compared = ""
            if before:
                # The move in the metric's worse direction, as a share of
                # the earlier median; negative when the metric improved.
                old = statistics.median(before)
                move = (med - old) / old
                if metric["better"] == "higher":
                    move = -move
                compared = f"{old:>14.6g}{move:>+9.4f}"
                if move > metric["bound"]:
                    flag += "  WORSE"
                    ok = False
            print(f"  {name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>10.4f}{metric['bound']:>8}{compared}{flag}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
