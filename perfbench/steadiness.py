#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs two sets of untraced runs of each workload, every run with its own
seed, interleaving the sets (and alternating which set goes first) so both
see the same machine. For every end-to-end metric it prints each set's
median and quartiles, the spread (interquartile distance over the median)
and the ratio of the second set's median to the first's, next to the
metric's bound from BENCHMARK.json. A spread above a third of the bound is
flagged; a spread above the bound, or a second median worse than the first
by more than the bound, fails the check.

    python3 perfbench/steadiness.py [--runs 10] [--workloads traffic,verified]
                                    [--first-seed 1] [--out FILE]

Exits 1 when any check fails. Raw values go to --out (JSON).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("steadiness: %s failed (exit %d)" % (" ".join(cmd),
                                                       proc.returncode))
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=os.path.join(
        ROOT, ".bench_build", "steadiness.json"))
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    values = {w: [{}, {}] for w in workloads}  # per set: metric -> [values]
    for i in range(args.runs):
        sets = (0, 1) if i % 2 == 0 else (1, 0)
        for s in sets:
            seed = args.first_seed + s * args.runs + i
            for w in (workloads if i % 2 == 0 else workloads[::-1]):
                got = run_once(w, seed, spec["run_seconds"])
                for name, v in got.items():
                    values[w][s].setdefault(name, []).append(v)
                print("# run %d set %d %s seed %d: %s" % (
                    i, s, w, seed,
                    " ".join("%s=%.4g" % kv for kv in sorted(got.items()))),
                    flush=True)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(values, f, indent=1)

    ok = True
    print("%-9s %-20s %10s %10s %10s %7s %10s %7s %6s %6s  %s" % (
        "workload", "metric", "median1", "q1", "q3", "spread1", "median2",
        "spread2", "ratio", "bound", "verdict"))
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summary(values[w][0][name])
            b = summary(values[w][1][name])
            ratio = b["median"] / a["median"]
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            spread = max(a["spread"], b["spread"])
            verdict = "steady"
            if spread > bound / 3:
                verdict = "noisy (spread > bound/3)"
            if spread > bound or worse > bound:
                verdict = "FAIL"
                ok = False
            print("%-9s %-20s %10.4g %10.4g %10.4g %7.3f %10.4g %7.3f %6.3f "
                  "%6.2f  %s" % (w, name, a["median"], a["q1"], a["q3"],
                                 a["spread"], b["median"], b["spread"], ratio,
                                 bound, verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
