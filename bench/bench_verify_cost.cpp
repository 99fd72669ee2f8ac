/// Verification-cost benchmark — what the safety checker charges for its
/// proofs, across exchange sizes and policy densities, in two modes:
///
///   full        — a from-scratch pass over every packet equivalence class
///                 (every known prefix × sender × header variant), the cost
///                 the runtime pays after a full recompilation;
///   incremental — re-checking only the classes of a dirty prefix while
///                 cached findings cover the rest, the cost charged on the
///                 §4.3.2 fast path and on partitioned policy updates.
///
/// The interesting gap is full vs incremental: the incremental re-check
/// touches O(senders × variants) classes instead of O(prefixes × senders ×
/// variants), so its cost must stay flat in the prefix count while the
/// full pass grows linearly — the property that makes it affordable to
/// verify after every update. ci/check_verify_scaling.py gates that
/// flatness on this CSV (incremental 50×2000 against 50×500).
///
/// CSV: mode,participants,prefixes,clauses,classes,edges,framings,checks,
///      check_ms
///
/// check_ms is the per-check mean, so the full and incremental rows are
/// directly comparable. classes, edges and framings are the work of the
/// row's checks (SafetyReport::work): an incremental check re-checks only
/// its dirty prefix and serves the rest of the proof from its per-prefix
/// cache. The checker frames each prefix once per sender, so framings track
/// prefixes × senders while classes grow with the variants too; edges are
/// the switch traversals actually probed, one walk per distinct rule a
/// (sender, prefix)'s classes hit, so they grow with the distinct rules
/// rather than the variants.
///
/// The metrics snapshot (last configuration) captures the runtime-staged
/// verification counters: one full run from enable_verification(), one
/// incremental run from a post-install announcement, and zero violations —
/// the stock workloads must verify clean.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "sdx/runtime.hpp"
#include "verify/safety.hpp"

namespace {

using namespace sdx;

/// Deterministic /24 universe: index i → 100.<i/256>.<i%256>.0/24.
net::Ipv4Prefix prefix_of(std::size_t i) {
  return net::Ipv4Prefix(
      net::Ipv4Address((100u << 24) | static_cast<std::uint32_t>(i << 8)),
      24);
}

/// Builds the exchange through the runtime API. Every `clause_stride`-th
/// participant steers port-80/443 traffic to its clockwise neighbour, so
/// the clause count (and with it the checker's header-variant fan-out)
/// scales with the stride knob.
std::size_t build_base(core::SdxRuntime& rt, std::size_t participants,
                       std::size_t prefixes, std::size_t clause_stride) {
  std::size_t clauses = 0;
  for (std::size_t j = 1; j <= participants; ++j) {
    rt.add_participant("P" + std::to_string(j),
                       static_cast<net::Asn>(65000 + j));
  }
  for (std::size_t j = 1; j <= participants; j += clause_stride) {
    const auto to = static_cast<bgp::ParticipantId>(j % participants + 1);
    rt.set_outbound(
        static_cast<bgp::ParticipantId>(j),
        {core::OutboundClause{core::ClauseMatch{}.dst_port(80), to},
         core::OutboundClause{core::ClauseMatch{}.dst_port(443), to}});
    clauses += 2;
  }
  for (std::size_t i = 0; i < prefixes; ++i) {
    const auto owner = static_cast<bgp::ParticipantId>(i % participants + 1);
    rt.announce(owner, prefix_of(i),
                net::AsPath{static_cast<net::Asn>(65000 + owner),
                            static_cast<net::Asn>(1000 + i % 7)});
  }
  rt.install();
  return clauses;
}

}  // namespace

int main() {
  const bool smoke = bench::smoke();
  core::CompileOptions options;
  options.threads = bench::bench_threads();
  // Enough checks (~0.1 s of them per configuration) that a ~0.1 ms
  // incremental re-check is measurable and one scheduler stall cannot swing
  // the scaling gate; the smoke count feeds the CI counter baseline.
  const std::size_t incremental_checks = smoke ? 4 : 1024;

  struct Config {
    std::size_t participants;
    std::size_t prefixes;
    std::size_t clause_stride;
  };
  const auto configs = smoke
                           ? std::vector<Config>{{10, 100, 3}}
                           : std::vector<Config>{{20, 500, 3},
                                                 {50, 500, 3},
                                                 {50, 2000, 3},
                                                 {50, 500, 1}};

  std::printf("# verification cost — full pass vs incremental re-check\n");
  std::printf(
      "mode,participants,prefixes,clauses,classes,edges,framings,checks,"
      "check_ms\n");

  for (const auto& cfg : configs) {
    core::SdxRuntime rt(bgp::DecisionConfig{}, options);
    const std::size_t clauses =
        build_base(rt, cfg.participants, cfg.prefixes, cfg.clause_stride);

    // full: a from-scratch proof over every class (report.seconds is the
    // checker's own wall time, excluding the audit that verify_now folds in).
    const auto full = rt.verify_now();
    std::printf("full,%zu,%zu,%zu,%zu,%zu,%zu,1,%.3f\n", cfg.participants,
                cfg.prefixes, clauses, full.work.classes, full.work.edges,
                full.work.framings, full.seconds * 1e3);
    std::fflush(stdout);

    // incremental: prime a standalone checker with the full pass, then
    // re-check one dirty prefix at a time — the per-update re-verify cost.
    const auto view = rt.deployment_view();
    verify::SafetyChecker checker;
    checker.full(view);
    bench::Stopwatch timer;
    verify::SafetyReport::Work work;
    for (std::size_t k = 0; k < incremental_checks; ++k) {
      const auto report =
          checker.incremental(view, {prefix_of(k % cfg.prefixes)});
      work.classes += report.work.classes;
      work.edges += report.work.edges;
      work.framings += report.work.framings;
    }
    std::printf("incremental,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%.3f\n",
                cfg.participants, cfg.prefixes, clauses, work.classes,
                work.edges, work.framings, incremental_checks,
                timer.seconds() * 1e3 / static_cast<double>(incremental_checks));
    std::fflush(stdout);

    // The snapshot of the last configuration is the artifact CI scrapes:
    // one full stage (enable at an installed state), one incremental stage
    // (a post-install announcement), zero violations of any kind.
    if (&cfg == &configs.back()) {
      rt.enable_verification();
      rt.announce(1, prefix_of(0),
                  net::AsPath{static_cast<net::Asn>(65001)});
      bench::emit_metrics_snapshot(rt.dump_metrics());
    }
  }
  return 0;
}
