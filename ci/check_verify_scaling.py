#!/usr/bin/env python3
"""Gate the incremental safety check's growth in the prefix count.

Usage:
    bench_verify_cost > verify-cost.csv      # full size, not smoke
    check_verify_scaling.py verify-cost.csv

Reads the CSV that bench/bench_verify_cost prints and compares the
incremental rows' per-check `check_ms` at 50 participants × 2000 prefixes
against 50 × 500, the first rows of those sizes in the bench's fixed config
list; both must have the same clause count. The incremental re-check walks
only the dirty prefix, so its cost must not grow with the deployment: the
gate fails when large/small exceeds MAX_RATIO. Both figures come from the
same run on the same machine, so the ratio holds on a noisy CI runner where
an absolute bound would not. If the ratio proves noisy, raise the bench's
check count rather than the bound.

When GITHUB_STEP_SUMMARY is set the verdict is appended to the job's step
summary as markdown, and a failure is also annotated with ::error.

Exit status: 0 when within bound, 1 when the ratio exceeds it, 2 when the
CSV cannot be read or lacks the rows to compare.
"""

import os
import sys

COLUMNS = ["mode", "participants", "prefixes", "clauses", "classes", "edges",
           "checks", "check_ms"]

# Sizes of bench_verify_cost's full-mode configs that the gate compares.
PARTICIPANTS = 50
SMALL = 500
LARGE = 2000
MAX_RATIO = 2.5


def load_rows(path):
    """Returns the CSV's data rows as dicts; comments and the metrics
    snapshot that follows the table are skipped."""
    rows = []
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    for line in lines:
        fields = line.strip().split(",")
        if len(fields) != len(COLUMNS) or fields[0] not in ("full",
                                                            "incremental"):
            continue
        try:
            row = dict(zip(COLUMNS, fields))
            for key in COLUMNS[1:-1]:
                row[key] = int(row[key])
            row["check_ms"] = float(row["check_ms"])
        except ValueError:
            continue
        rows.append(row)
    return rows


def pick(rows, prefixes):
    for row in rows:
        if (row["mode"] == "incremental"
                and row["participants"] == PARTICIPANTS
                and row["prefixes"] == prefixes):
            return row
    return None


def fail_input(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def summarize(text):
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write(text + "\n")


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = sys.argv[1]

    rows = load_rows(path)
    small = pick(rows, SMALL)
    large = pick(rows, LARGE)
    if large is None or small is None:
        return fail_input(f"{path} has no incremental rows at "
                          f"{PARTICIPANTS}x{SMALL} and "
                          f"{PARTICIPANTS}x{LARGE}")
    if small["clauses"] != large["clauses"]:
        return fail_input(f"{PARTICIPANTS}x{SMALL} has {small['clauses']} "
                          f"clauses but {PARTICIPANTS}x{LARGE} has "
                          f"{large['clauses']}")
    if small["check_ms"] <= 0:
        return fail_input(f"{PARTICIPANTS}x{SMALL} check_ms is "
                          f"{small['check_ms']}; raise the bench's check "
                          "count")

    ratio = large["check_ms"] / small["check_ms"]
    ok = ratio <= MAX_RATIO
    verdict = "ok" if ok else "FAIL"
    line = (f"incremental check_ms {PARTICIPANTS}x{LARGE} / "
            f"{PARTICIPANTS}x{SMALL} = {large['check_ms']:.3f} / "
            f"{small['check_ms']:.3f} = {ratio:.2f} "
            f"(bound {MAX_RATIO}): {verdict}")
    print(line)
    summarize("### Verification scaling\n\n"
              "| prefixes | clauses | checks | check_ms |\n"
              "|---:|---:|---:|---:|\n"
              f"| {SMALL} | {small['clauses']} | {small['checks']} | "
              f"{small['check_ms']:.3f} |\n"
              f"| {LARGE} | {large['clauses']} | {large['checks']} | "
              f"{large['check_ms']:.3f} |\n\n"
              f"ratio {ratio:.2f}, bound {MAX_RATIO}: **{verdict}**\n")
    if not ok:
        print(f"::error title=verify scaling::{line}")
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
