#!/usr/bin/env python3
"""Gate a benchmark metrics snapshot against a committed baseline.

Usage:
    check_bench_regression.py BASELINE.prom CURRENT.prom \
        [--histogram NAME --max-regression 0.25 --min-delta 5e-5] \
        [--require-equal-counters]

Two independent checks:

* Latency regression: for each --histogram, the median is interpolated
  from the cumulative bucket counts of both snapshots and the run fails
  when the current median exceeds the baseline median by more than
  --max-regression (relative) AND --min-delta (absolute floor, so runner
  jitter on a sub-100us metric cannot trip the gate; a real regression —
  e.g. the fast path degrading into full recompiles — moves the median by
  orders of magnitude).

* Workload determinism: with --require-equal-counters, every counter-typed
  series must be byte-for-byte equal between the two snapshots. The
  benches are seeded and the pipelines are deterministic, so a counter
  drift (more compiles, more rules, fewer batched updates) is a behavior
  change even when timing still looks fine. The same flag requires both
  snapshots to hold the same gauge families: a gauge that vanishes from
  the run (or appears in it) is a change to what the bench observes, even
  though gauge values themselves are not gated.

Output: plain text on stdout always. When GITHUB_STEP_SUMMARY is set (a
GitHub Actions step), a markdown table — baseline vs current per gated
counter with a pass/fail column — is appended to the step summary, and
each failure is also emitted as a `::error` workflow annotation naming
the offending counter so it surfaces on the PR checks tab.

Exit status: 0 pass, 1 fail, 2 usage/parse error.
"""

import argparse
import os
import sys


def parse_prom(path):
    """Returns (series: {name{labels} -> float}, types: {family -> type})."""
    series = {}
    types = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        sys.exit(f"error: cannot read {path}: {exc}")
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        try:
            key, value = line.rsplit(None, 1)
            series[key] = float(value)
        except ValueError:
            sys.exit(f"error: unparsable metrics line in {path}: {line!r}")
    return series, types


def family_of(key):
    return key.split("{", 1)[0]


def histogram_median(series, name):
    """Interpolated median from cumulative buckets (no extra labels)."""
    buckets = []
    for key, value in series.items():
        if not key.startswith(name + "_bucket{"):
            continue
        labels = key[key.index("{") + 1 : key.rindex("}")]
        le = None
        extra = False
        for part in labels.split(","):
            k, _, v = part.partition("=")
            if k == "le":
                le = v.strip('"')
            elif part:
                extra = True
        if extra or le is None:
            continue  # per-stage variants are not the update-latency series
        buckets.append((float("inf") if le == "+Inf" else float(le), value))
    if not buckets:
        return None
    buckets.sort()
    total = buckets[-1][1]
    if total == 0:
        return 0.0
    half = total / 2.0
    prev_le, prev_cum = 0.0, 0.0
    for le, cum in buckets:
        if cum >= half:
            if le == float("inf"):
                return prev_le  # everything above the largest finite bucket
            span = cum - prev_cum
            frac = (half - prev_cum) / span if span > 0 else 0.0
            return prev_le + frac * (le - prev_le)
        prev_le, prev_cum = le, cum
    return prev_le


def write_step_summary(baseline_path, hist_rows, counter_rows, failures):
    """Markdown table per gated series in the job's step summary."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [f"### Bench regression gate — `{os.path.basename(baseline_path)}`",
             ""]
    if hist_rows:
        lines += ["| histogram median | baseline | current | limit | status |",
                  "|---|---|---|---|---|"]
        for name, base, cur, limit, ok in hist_rows:
            lines.append(
                f"| `{name}` | {base:.3e}s | {cur:.3e}s | {limit:.3e}s "
                f"| {'✅ pass' if ok else '❌ FAIL'} |")
        lines.append("")
    if counter_rows:
        big = len(counter_rows) > 20
        if big:
            lines += [f"<details><summary>{len(counter_rows)} gated counters "
                      f"({sum(not ok for *_, ok in counter_rows)} drifted)"
                      "</summary>", ""]
        lines += ["| counter | baseline | current | status |",
                  "|---|---|---|---|"]
        for key, base, cur, ok in counter_rows:
            fmt = lambda v: "absent" if v is None else f"{v:g}"
            lines.append(f"| `{key}` | {fmt(base)} | {fmt(cur)} "
                         f"| {'✅ pass' if ok else '❌ FAIL'} |")
        if big:
            lines += ["", "</details>"]
        lines.append("")
    lines.append("**FAIL**" if failures else "**OK** — no regression")
    lines.append("")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def annotate_failures(failures):
    """`::error` workflow annotations, one per failure, naming the series."""
    if not os.environ.get("GITHUB_STEP_SUMMARY"):
        return
    for failure in failures:
        print(f"::error title=bench regression::{failure}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--histogram", action="append", default=[],
                    help="histogram family to gate on median latency")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="maximum allowed relative median increase")
    ap.add_argument("--min-delta", type=float, default=5e-5,
                    help="absolute median increase below which regressions "
                         "are considered runner jitter")
    ap.add_argument("--require-equal-counters", action="store_true",
                    help="all counter series must match the baseline exactly")
    args = ap.parse_args()

    base_series, base_types = parse_prom(args.baseline)
    cur_series, cur_types = parse_prom(args.current)

    failures = []
    hist_rows = []
    counter_rows = []

    for name in args.histogram:
        base_median = histogram_median(base_series, name)
        cur_median = histogram_median(cur_series, name)
        if base_median is None:
            failures.append(f"{name}: no buckets in baseline {args.baseline}")
            continue
        if cur_median is None:
            failures.append(f"{name}: no buckets in current {args.current}")
            continue
        delta = cur_median - base_median
        limit = base_median * (1.0 + args.max_regression)
        print(f"{name}: median baseline={base_median:.3e}s "
              f"current={cur_median:.3e}s delta={delta:+.3e}s "
              f"(limit {limit:.3e}s, floor {args.min_delta:.0e}s)")
        regressed = cur_median > limit and delta > args.min_delta
        hist_rows.append((name, base_median, cur_median, limit, not regressed))
        if regressed:
            failures.append(
                f"{name}: median regressed "
                f"{base_median:.3e}s -> {cur_median:.3e}s "
                f"(+{100.0 * delta / base_median:.0f}% > "
                f"{100.0 * args.max_regression:.0f}% allowed)")

    if args.require_equal_counters:
        counter_families = {f for f, t in base_types.items() if t == "counter"}
        counter_families |= {f for f, t in cur_types.items() if t == "counter"}
        checked = 0
        for family in sorted(counter_families):
            base_keys = {k for k in base_series if family_of(k) == family}
            cur_keys = {k for k in cur_series if family_of(k) == family}
            for key in sorted(base_keys | cur_keys):
                checked += 1
                b = base_series.get(key)
                c = cur_series.get(key)
                counter_rows.append((key, b, c, b == c))
                if b != c:
                    failures.append(
                        f"counter drifted: {key} baseline={b} current={c}")
        print(f"counters: {checked} series compared against baseline")
        base_gauges = {f for f, t in base_types.items() if t == "gauge"}
        cur_gauges = {f for f, t in cur_types.items() if t == "gauge"}
        for family in sorted(base_gauges ^ cur_gauges):
            where = "missing from the run" if family in base_gauges else \
                "absent from the baseline"
            failures.append(f"gauge family {where}: {family}")
        print(f"gauges: {len(base_gauges | cur_gauges)} families compared "
              "against baseline")

    write_step_summary(args.baseline, hist_rows, counter_rows, failures)
    annotate_failures(failures)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench regression gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
