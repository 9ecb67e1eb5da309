#!/usr/bin/env python3
"""Steadiness check: run one workload N times and report each metric's spread.

    python3 perfbench/steady.py --workload churn --runs 10
    python3 perfbench/steady.py --workload kv-point --runs 10 --save a.json
    python3 perfbench/steady.py --workload kv-point --runs 10 --against a.json

Run from the root of the repository. Each run is
`python3 perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0` with its own seed (S = --first, --first + 1, ...). For every
end-to-end metric of BENCHMARK.json the script prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the relative spread
(q3 - q1) / median, and flags a metric whose spread exceeds its bound
("OVER") or a third of it ("over 1/3"). setup_s is exempt from the spread
rule but is printed. --save writes the values to a JSON file; --against
compares these medians with a saved set and flags a metric whose median
got worse by more than its bound. Exits 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def one_run(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    r = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.time() - t0
    if r.returncode != 0:
        sys.exit("run %s failed with exit code %d" % (" ".join(args), r.returncode))
    result = json.loads(r.stdout.strip().splitlines()[-1])
    return result, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first", type=int, default=1, help="seed of the first run")
    ap.add_argument("--save")
    ap.add_argument("--against")
    a = ap.parse_args()
    if a.runs < 2:
        sys.exit("--runs must be at least 2")
    bench = load_benchmark()
    metrics = bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    walls = []
    correct = True
    for i in range(a.runs):
        seed = a.first + i
        res, wall = one_run(bench["command"], a.workload, seed, bench["run_seconds"])
        walls.append(wall)
        correct = correct and res["correct"]
        for m in metrics:
            values[m["name"]].append(res["metrics"][m["name"]]["value"])
        print("run %2d seed %d  %.1f s wall  correct=%s failed=%d/%d" % (
            i + 1, seed, wall, res["correct"], res["failed"], res["attempted"]), flush=True)
    against = None
    if a.against:
        with open(a.against) as f:
            against = json.load(f)
    flagged = False
    print("\n%-20s %14s %14s %14s %8s %6s  %s" % ("metric", "median", "q1", "q3", "spread", "bound", "flag"))
    for m in metrics:
        name, bound = m["name"], m["bound"]
        v = values[name]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if name != "setup_s":
            if spread > bound:
                flag = "OVER"
            elif spread > bound / 3:
                flag = "over 1/3"
        if against is not None and name in against:
            old = statistics.median(against[name])
            worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
            if worse > bound:
                flag += " median worse by %.3f" % worse
        flagged = flagged or flag != ""
        print("%-20s %14.6g %14.6g %14.6g %8.4f %6.3f  %s" % (name, med, q1, q3, spread, bound, flag))
    print("\nwall per run: median %.1f s, max %.1f s; all correct: %s" % (
        statistics.median(walls), max(walls), correct))
    if a.save:
        with open(a.save, "w") as f:
            json.dump(values, f)
    sys.exit(1 if flagged or not correct else 0)


if __name__ == "__main__":
    if not os.path.isfile("BENCHMARK.json"):
        sys.exit("run from the repository root (BENCHMARK.json not found)")
    main()
