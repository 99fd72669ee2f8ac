#!/usr/bin/env python3
"""Self-test of the perfbench benchmark at a tiny size (a minute or so).

    python3 perfbench/selftest.py

For every workload: an untraced run prints every end-to-end metric with its
unit and a value above zero; two traced runs with one seed print every
per-layer metric, none of them negative apart from the tracing overhead,
and their exact counts (calls, rules, ARP bindings, verifier classes,
packet outcomes, ...) are identical; the span tree each traced run writes
is well formed (children inside parents, self time >= 0).
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run as bench  # noqa: E402
import shares  # noqa: E402

SEED = 7
EXACT = {"update_live.samples", "bgp.best_changes", "sdx.rules_added",
         "sdx.rules_per_update", "dataplane.rules_end", "arp.bindings_end",
         "verify.classes", "verify.edges", "dataplane.router_blackholed",
         "dataplane.table_matched", "dataplane.table_missed",
         "dataplane.delivered_frac", "failed_frac"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    check(proc.returncode == 0, "%s exited %d" % (" ".join(cmd),
                                                   proc.returncode))
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    check(result["correct"] and result["failed"] == 0,
          "%s trace=%d reported failures" % (workload, trace))
    return result["metrics"]


def check(ok, what):
    if not ok:
        sys.exit("selftest FAILED: " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (w["name"] for w in spec["workloads"]):
        plain = run(w, 0)
        for m in spec["end_to_end"]:
            got = plain.get(m["name"])
            check(got is not None and got["unit"] == m["unit"],
                  "%s: %s missing or wrong unit" % (w, m["name"]))
            check(got["value"] > 0, "%s: %s is not positive" % (w, m["name"]))

        first, second = run(w, 1), run(w, 1)
        for m in spec["per_layer"]:
            name = m["name"]
            check(first.get(name, {}).get("unit") == m["unit"],
                  "%s: %s missing or wrong unit" % (w, name))
            check(first[name]["value"] >= 0 or name == "trace.overhead_pct",
                  "%s: %s is negative" % (w, name))
            if name in EXACT or name.endswith(".calls"):
                check(first[name]["value"] == second[name]["value"],
                      "%s: exact count %s differs between runs (%r vs %r)" % (
                          w, name, first[name]["value"],
                          second[name]["value"]))

        spans_path = os.path.join(bench.build_dir(), "spans",
                                  "%s-tiny-seed%d.csv" % (w, SEED))
        spans = shares.load(spans_path)
        check(len(spans) > 0, "%s: no spans written" % w)
        problems = shares.check_tree(spans)
        check(not problems, "%s: span tree: %s" % (w, problems[:5]))
        layer, _ = shares.self_times(spans)
        check(all(v >= 0 for v in layer.values()),
              "%s: negative self time" % w)
        print("selftest %s: ok (%d spans, %d per-layer metrics)" % (
            w, len(spans), len(first)))


if __name__ == "__main__":
    main()
