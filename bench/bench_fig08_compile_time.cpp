/// Figure 8 — initial compilation time as a function of the number of
/// prefix groups, for 100/200/300 participants.
///
/// Paper result: minutes of (Python) compilation, growing super-linearly
/// with prefix groups and with participant count. Expected shape here:
/// time grows with both axes; absolute numbers are far lower (optimized
/// C++ vs Python Pyretic). The stats break compilation into the paper's
/// stages (VNH computation vs policy compilation).

#include "bench_common.hpp"

int main() {
  using namespace sdx;
  std::printf("# Figure 8 — initial compilation time vs prefix groups\n");
  std::printf(
      "participants,prefixes,prefix_groups,threads,vnh_ms,synth_ms,"
      "compose_ms,total_ms,final_rules\n");
  core::CompileOptions options;
  options.threads = bench::bench_threads();
  telemetry::Telemetry telemetry;
  for (std::size_t participants : {100, 200, 300}) {
    for (std::size_t policy_prefixes :
         {2000u, 5000u, 10000u, 15000u, 20000u, 25000u}) {
      auto ixp =
          bench::make_workload(participants, 25000, policy_prefixes);
      core::SdxCompiler compiler(ixp.participants, ixp.ports, ixp.server,
                                 options);
      compiler.set_telemetry(&telemetry);
      core::VnhAllocator vnh;
      auto compiled = compiler.compile(vnh);
      const auto& s = compiled.stats;
      std::printf("%zu,%zu,%zu,%u,%.2f,%.2f,%.2f,%.2f,%zu\n", participants,
                  policy_prefixes, s.prefix_groups, s.threads_used,
                  s.vnh_seconds * 1e3, s.synth_seconds * 1e3,
                  s.compose_seconds * 1e3, s.total_seconds * 1e3,
                  s.final_rules);
      std::fflush(stdout);
    }
  }
  // Aggregate per-stage latency histograms and rule counters across every
  // row above, in comment-prefixed Prometheus form.
  bench::emit_metrics_snapshot(telemetry.metrics.render_prometheus());
  return 0;
}
