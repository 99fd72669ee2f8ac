#!/usr/bin/env python3
"""Closed-loop SDX update-to-forwarding benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload traffic|verified --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Builds the driver and the repository's libraries from source on first use
(into $CARGO_TARGET_DIR, default .bench_build), runs the workload's
instances one after another, each in its own driver process, pools their
samples into the metrics BENCHMARK.json names, and prints the result as the
last line of standard output. A run does a fixed amount of work, the same
for every seed: --seconds is accepted for the harness and not used (the
work is sized so its timed part takes about run_seconds on the reference
machine). Exits non-zero when the build fails, a run fails or times out,
or any correctness check failed.
"""

import argparse
import csv
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170

# Independent instances (exchange, trace, traffic) per run. Pooling several
# keeps the figures steady from seed to seed.
INSTANCES = {"traffic": {"full": 7, "tiny": 3},
             "verified": {"full": 16, "tiny": 3}}

# Layers with spans, in report order ("setup" and "update" are the roots).
LAYERS = ["sdx.register", "ingest.rib_replay", "bgp.rib_apply", "sdx.install",
          "compile.snapshot", "compile.reach", "compile.fec_vnh",
          "compile.synth", "compile.compose", "verify.full", "ingest.decode",
          "ingest.drain", "bgp.apply", "sdx.flush", "sdx.fast_path",
          "sdx.install_readvertise", "verify.incremental",
          "dataplane.send_batch"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures and builds the driver; returns the binary path."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target", "sdx_perfbench"]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.exit("perfbench: build failed (%s)" % " ".join(cmd))
    return os.path.join(out, "sdx_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def quantile(values, q):
    """Linear interpolation between closest ranks; 0 for no values."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def run_instance(cmd, deadline):
    """Runs one driver process in its own process group; returns its JSON
    result. A timeout stops the whole group."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    try:
        result = json.loads(stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        sys.exit("perfbench: driver printed no result (exit %d)"
                 % proc.returncode)
    if proc.returncode != 0 and not result.get("failed"):
        sys.exit("perfbench: driver exited %d" % proc.returncode)
    return result


def report(what, k, r):
    print("# %s %d: rib_routes=%s bursts=%s updates=%s setup_s=%.4f "
          "update_s=%.4f packet_s=%.4f p50_ms=%.4f p99_ms=%.4f rules_end=%d "
          "peak_rss_mb=%.1f failed=%d" % (
              what, k, r.get("rib_routes"), r.get("bursts"),
              r.get("trace_updates"), r["setup_s"], r["update_s"],
              r["packet_s"], quantile(r["flush_ms"], 0.5),
              quantile(r["flush_ms"], 0.99), r["counts"]["rules_end"],
              r["peak_rss_mb"], r["failed"]), flush=True)
    for f in r["failures"]:
        print("# FAIL %s" % f)


def end_to_end(plain):
    flush_ms = [x for r in plain for x in r["flush_ms"]]
    updates = sum(r["counts"]["applied"] for r in plain)
    packets = sum(r["counts"]["packets"] for r in plain)
    print("# samples: flushes=%d setups=%d packets=%d"
          % (len(flush_ms), len(plain), packets))
    return [
        ("update_live_p50_ms", quantile(flush_ms, 0.5), "ms"),
        ("update_live_p99_ms", quantile(flush_ms, 0.99), "ms"),
        ("updates_per_s", updates / sum(r["update_s"] for r in plain), "1/s"),
        ("mpps", packets / sum(r["packet_s"] for r in plain) * 1e-6,
         "Mpkt/s"),
        ("peak_rss_mb", statistics.median(r["peak_rss_mb"] for r in plain),
         "MB"),
        ("setup_s", statistics.median(r["setup_s"] for r in plain), "s"),
    ]


def span_layers(paths):
    """{layer: [durations ns]} and the covered ns from span files: the
    layers directly under the set-up and update roots, and the send_batch
    roots, cover the timed wall time."""
    durations = {name: [] for name in LAYERS}
    covered = 0
    for path in paths:
        with open(path) as f:
            rows = csv.reader(f)
            next(rows)
            parents = []
            for _, _, parent, layer, _, start, end in rows:
                parent = int(parent)
                parents.append(parent)
                d = int(end) - int(start)
                if layer in durations:
                    durations[layer].append(d)
                if ((parent < 0 and layer == "dataplane.send_batch") or
                        (parent >= 0 and parents[parent] < 0)):
                    covered += d
    return durations, covered


def per_layer(plain0, traced, span_paths):
    metrics = []
    durations, covered = span_layers(span_paths)
    for name in LAYERS:
        d = durations[name]
        metrics += [(name + ".busy_s", sum(d) * 1e-9, "s"),
                    (name + ".calls", len(d), "count"),
                    (name + ".p50_us", quantile(d, 0.5) * 1e-3, "us"),
                    (name + ".p99_us", quantile(d, 0.99) * 1e-3, "us")]
    timed_s = sum(r["timed_s"] for r in traced)
    after = [x for r in traced for x in r["after_flush_us"]]
    steady = [x for r in traced for x in r["steady_us"]]
    c = {k: sum(r["counts"][k] for r in traced) for k in traced[0]["counts"]}
    metrics += [
        ("dataplane.burst_after_flush_us", quantile(after, 0.5), "us"),
        ("dataplane.burst_steady_us", quantile(steady, 0.5), "us"),
        ("trace.overhead_pct",
         100.0 * (traced[0]["timed_s"] / plain0["timed_s"] - 1.0), "%"),
        ("trace.coverage_pct", 100.0 * covered * 1e-9 / timed_s, "%"),
        ("update_live.samples", sum(len(r["flush_ms"]) for r in traced),
         "count"),
        ("bgp.best_changes", c["best_changes"], "count"),
        ("sdx.rules_added", c["rules_added"], "count"),
        ("sdx.rules_per_update",
         c["rules_added"] / c["applied"] if c["applied"] else 0,
         "rules/update"),
        ("dataplane.rules_end", c["rules_end"], "count"),
        ("arp.bindings_end", c["arp_bindings_end"], "count"),
        ("verify.classes", c["verify_classes"], "count"),
        ("verify.edges", c["verify_edges"], "count"),
        ("dataplane.router_blackholed",
         c["packets"] - c["table_matched"] - c["table_missed"], "count"),
        ("dataplane.table_matched", c["table_matched"], "count"),
        ("dataplane.table_missed", c["table_missed"], "count"),
        ("dataplane.delivered_frac",
         c["delivered"] / c["packets"] if c["packets"] else 0, "fraction"),
    ]
    return metrics


def merge_spans(paths, out):
    with open(out, "w") as dst:
        for i, path in enumerate(paths):
            with open(path) as src:
                lines = src.readlines()
            dst.writelines(lines if i == 0 else lines[1:])
            os.remove(path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(INSTANCES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    deadline = time.time() + RUN_TIMEOUT_S
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size]
    instances = INSTANCES[args.workload][args.size]
    print("# workload=%s size=%s seed=%d instances=%d"
          % (args.workload, args.size, args.seed, instances), flush=True)

    # Traced runs time instance 0 untraced first, for the tracing overhead
    # and to check that its exact counts repeat.
    plain = []
    for k in range(1 if args.trace else instances):
        plain.append(run_instance(
            base + ["--instance", str(k), "--trace", "0"], deadline))
        report("instance", k, plain[-1])
    print("# compile_threads=%d" % plain[0]["compile_threads"])
    traced = []
    span_paths = []
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        for k in range(instances):
            span_paths.append(os.path.join(spans, "instance%d.csv" % k))
            traced.append(run_instance(
                base + ["--instance", str(k), "--trace", "1",
                        "--spans", span_paths[-1]], deadline))
            report("traced instance", k, traced[-1])

    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    if args.trace:
        attempted += 1
        if plain[0]["counts"] != traced[0]["counts"]:
            failed += 1
            print("# FAIL instance 0: exact counts differ between its "
                  "untraced and traced run")
        metrics = per_layer(plain[0], traced, span_paths)
        metrics.append(("failed_frac", failed / attempted, "fraction"))
        merge_spans(span_paths, os.path.join(
            spans, "%s-%s-seed%d.csv" % (args.workload, args.size, args.seed)))
    else:
        metrics = end_to_end(plain)

    want = expected_metrics(args.trace)
    got = {name: unit for name, _, unit in metrics}
    if got != want:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: missing %s, "
                 "extra or mis-united %s"
                 % (sorted(set(want.items()) - set(got.items())),
                    sorted(set(got.items()) - set(want.items()))))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in metrics}}))
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
