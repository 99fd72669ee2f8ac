/// Figure 7 — number of forwarding rules as a function of the number of
/// prefix groups, for 100/200/300 participants — plus the participant
/// sweep that motivated partitioned compilation.
///
/// Paper result: rules grow roughly linearly with prefix groups (each group
/// occupies a disjoint slice of flow space), reaching ~30k rules at 1000
/// groups with 300 participants. The iSDX follow-up's result is the
/// `mode` column: the pairwise pipeline materializes the sender×receiver
/// cross product (rules and compile time grow super-linearly with
/// participants), while the partitioned pipeline compiles each
/// participant's policies into an independent partition of masked
/// attribute-bit rules — sub-linear growth at the full prefix universe,
/// benchmarked here up to 1000 participants (the pairwise side is capped
/// at 300: beyond that the cross product is exactly the wall this bench
/// documents).
///
/// Two sweeps, both tagged in the `sweep` column:
///   groups        — the paper's fig 7 x-axis (policy-prefix knob) at fixed
///                   participant counts, pairwise and partitioned;
///   participants  — fixed full prefix universe, growing participant count.
///
/// Smoke mode (SDX_BENCH_SMOKE=1) shrinks both sweeps and emits the
/// telemetry snapshot the CI bench-regression job diffs against
/// bench/baselines/fig07-metrics.prom.

#include <vector>

#include "bench_common.hpp"

namespace {

void run_one(const char* sweep, bool partitioned, std::size_t participants,
             std::size_t prefixes, std::size_t px,
             sdx::telemetry::Telemetry& telemetry) {
  using namespace sdx;
  auto ixp = bench::make_workload(participants, prefixes, px);
  core::CompileOptions options;
  options.threads = bench::bench_threads();
  options.partitioned = partitioned;
  core::SdxCompiler compiler(ixp.participants, ixp.ports, ixp.server,
                             options);
  compiler.set_telemetry(&telemetry);
  core::VnhAllocator vnh;
  auto compiled = compiler.compile(vnh);
  const auto& s = compiled.stats;
  std::printf("%s,%s,%zu,%zu,%zu,%zu,%zu,%.3f\n",
              partitioned ? "partitioned" : "pairwise", sweep, participants,
              prefixes, px, s.prefix_groups, s.final_rules, s.total_seconds);
  std::fflush(stdout);
}

}  // namespace

int main() {
  using namespace sdx;
  const bool smoke = bench::smoke();
  std::printf("# Figure 7 — flow rules vs prefix groups and participants\n");
  std::printf(
      "mode,sweep,participants,prefixes,policy_prefixes,prefix_groups,"
      "flow_rules,compile_seconds\n");
  telemetry::Telemetry telemetry;

  // The paper's prefix-group sweep at fixed participant counts.
  const auto group_participants =
      smoke ? std::vector<std::size_t>{40}
            : std::vector<std::size_t>{100, 200, 300};
  const auto group_px =
      smoke ? std::vector<std::size_t>{100, 200}
            : std::vector<std::size_t>{2000, 5000, 10000, 15000, 20000,
                                       25000};
  const std::size_t group_universe = smoke ? 600 : 25000;
  for (bool partitioned : {false, true}) {
    for (std::size_t participants : group_participants) {
      for (std::size_t px : group_px) {
        run_one("groups", partitioned, participants, group_universe, px,
                telemetry);
      }
    }
  }

  // The participant sweep at the full prefix universe (no 1:10 scaling):
  // the partitioned pipeline holds sub-linear rule and compile-time growth
  // where the pairwise cross product cannot be run at all.
  const std::size_t sweep_universe = smoke ? 600 : 25000;
  const std::size_t sweep_px = smoke ? 200 : 10000;
  const auto pairwise_counts =
      smoke ? std::vector<std::size_t>{20, 40, 60}
            : std::vector<std::size_t>{100, 200, 300};
  const auto partitioned_counts =
      smoke ? std::vector<std::size_t>{20, 40, 60}
            : std::vector<std::size_t>{100, 200, 300, 500, 1000};
  for (std::size_t participants : pairwise_counts) {
    run_one("participants", false, participants, sweep_universe, sweep_px,
            telemetry);
  }
  for (std::size_t participants : partitioned_counts) {
    run_one("participants", true, participants, sweep_universe, sweep_px,
            telemetry);
  }

  bench::emit_metrics_snapshot(telemetry.metrics.render_prometheus());
  return 0;
}
