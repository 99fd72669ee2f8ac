#!/usr/bin/env python3
"""Per-layer self time from a perfbench spans file.

    python3 perfbench/shares.py .bench_build/perfbench/spans/<file>.csv

A traced run (run.py --trace 1) writes one span per public call the driver
made: episode, id, parent, layer, burst, start_ns, end_ns. A layer's self
time is its span's duration minus its children's. For each phase -- set-up,
the update loop, packets through send_batch -- this prints every layer's
self time per episode and its share of the phase, after checking that the
span tree is well formed.
"""

import collections
import csv
import sys

PHASE_OF_ROOT = {"setup": "setup", "update": "update",
                 "dataplane.send_batch": "packets"}


def load(path):
    with open(path) as f:
        spans = []
        for row in csv.DictReader(f):
            for key in ("episode", "id", "parent", "burst", "start_ns",
                        "end_ns"):
                row[key] = int(row[key])
            spans.append(row)
    return spans


def check_tree(spans):
    """Returns a list of problems: every child lies inside its parent, in
    the same episode and burst, and children never overlap (so every self
    time is >= 0)."""
    problems = []
    by_key = {(s["episode"], s["id"]): s for s in spans}
    children = collections.defaultdict(list)
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            problems.append("span %s ends before it starts" % s["id"])
        if s["parent"] < 0:
            if s["layer"] not in PHASE_OF_ROOT:
                problems.append("unexpected root %s" % s["layer"])
            continue
        p = by_key.get((s["episode"], s["parent"]))
        if p is None or s["parent"] >= s["id"]:
            problems.append("span %s has no earlier parent" % s["id"])
            continue
        if s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
            problems.append("%s %s outside parent %s" % (
                s["layer"], s["id"], p["layer"]))
        if s["burst"] != p["burst"]:
            problems.append("span %s burst differs from parent" % s["id"])
        children[(s["episode"], s["parent"])].append(s)
    for key, kids in children.items():
        kids.sort(key=lambda k: k["start_ns"])
        for a, b in zip(kids, kids[1:]):
            if b["start_ns"] < a["end_ns"]:
                problems.append("children %s and %s of %s overlap" % (
                    a["id"], b["id"], key[1]))
    return problems


def self_times(spans):
    """{(phase, layer): self seconds per episode}, {phase: seconds}."""
    by_key = {(s["episode"], s["id"]): s for s in spans}
    child_ns = collections.Counter()
    for s in spans:
        if s["parent"] >= 0:
            child_ns[(s["episode"], s["parent"])] += s["end_ns"] - s["start_ns"]

    def phase(s):
        while s["parent"] >= 0:
            s = by_key[(s["episode"], s["parent"])]
        return PHASE_OF_ROOT[s["layer"]]

    episodes = len({s["episode"] for s in spans}) or 1
    layer = collections.Counter()
    total = collections.Counter()
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        ph = phase(s)
        layer[(ph, s["layer"])] += (dur - child_ns[(s["episode"], s["id"])])
        if s["parent"] < 0:
            total[ph] += dur
    scale = 1e-9 / episodes
    return ({k: v * scale for k, v in layer.items()},
            {k: v * scale for k, v in total.items()})


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    spans = load(sys.argv[1])
    problems = check_tree(spans)
    for p in problems[:20]:
        print("PROBLEM", p)
    layer, total = self_times(spans)
    print("%-8s %-26s %12s %8s" % ("phase", "layer", "self_s/ep", "share"))
    for ph in ("setup", "update", "packets"):
        if not total.get(ph):
            continue
        rows = sorted(((v, k[1]) for k, v in layer.items() if k[0] == ph),
                      reverse=True)
        for v, name in rows:
            print("%-8s %-26s %12.6f %7.2f%%" % (ph, name, v,
                                                 100 * v / total[ph]))
        print("%-8s %-26s %12.6f" % (ph, "(phase total)", total[ph]))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
