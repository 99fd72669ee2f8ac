/// Figure 10 — CDF of the time to process a single BGP update (the §4.3.2
/// fast path: assume a fresh VNH, recompile only the parts of the policy
/// related to the updated prefix, compose through the memoized stage-2
/// classifiers).
///
/// Paper result: under 100 ms most of the time, growing with participant
/// count. Expected here: the same shape at far lower absolute numbers
/// (optimized C++ vs Python).
///
/// Every mode runs the one fast stage, fast_update_batch. Three `mode`
/// series per participant count:
///   per-update      — each update its own batch of one: one restricted
///                     compilation per update (the paper's setting);
///   batched         — updates flushed in batches of 32; the per-update
///                     figure is the batch latency amortized over its
///                     members;
///   async-recompile — per-update latency of batches of one while a full
///                     optimal recompilation of a snapshot runs
///                     concurrently on a pool worker (the §4.3.2 background
///                     stage actually in the background).

#include <algorithm>
#include <future>
#include <vector>

#include "bench_common.hpp"
#include "netbase/parallel.hpp"
#include "netbase/rng.hpp"
#include "sdx/incremental.hpp"

namespace {

void print_percentiles(std::size_t participants, const char* mode,
                       std::vector<double> times_ms) {
  std::sort(times_ms.begin(), times_ms.end());
  for (int pct : {10, 25, 50, 75, 90, 95, 99}) {
    const auto idx = std::min<std::size_t>(
        times_ms.size() - 1,
        static_cast<std::size_t>(pct / 100.0 *
                                 static_cast<double>(times_ms.size())));
    std::printf("%zu,%s,p%d,%.3f\n", participants, mode, pct, times_ms[idx]);
  }
  std::fflush(stdout);
}

}  // namespace

int main() {
  using namespace sdx;
  const bool smoke = bench::smoke();
  const int kUpdates = smoke ? 64 : 500;
  constexpr std::size_t kBatch = 32;
  std::printf("# Figure 10 — single-update fast-path processing time\n");
  std::printf("participants,mode,percentile,time_ms\n");
  core::CompileOptions options;
  options.threads = bench::bench_threads();
  telemetry::Telemetry telemetry;
  auto& fast_seconds = telemetry.metrics.histogram(
      "sdx_fast_path_seconds", "per-update fast-path latency (seconds)");
  auto& fast_rules = telemetry.metrics.counter(
      "sdx_fast_path_rules_total",
      "additional higher-priority rules installed by the fast path");
  const std::size_t prefixes = smoke ? 2000 : 25000;
  const auto participant_counts =
      smoke ? std::vector<std::size_t>{20}
            : std::vector<std::size_t>{100, 200, 300};
  for (std::size_t participants : participant_counts) {
    auto ixp = bench::make_workload(participants, prefixes, prefixes);
    core::SdxCompiler compiler(ixp.participants, ixp.ports, ixp.server,
                               options);
    core::IncrementalEngine engine(compiler);
    engine.set_telemetry(&telemetry);
    core::VnhAllocator vnh;
    engine.full_recompile(vnh);

    std::vector<net::Ipv4Prefix> covered;
    for (const auto& [prefix, _] : engine.current().fecs.group_of) {
      covered.push_back(prefix);
    }
    std::sort(covered.begin(), covered.end());
    net::SplitMix64 rng(10 + participants);

    auto announce_update = [&](int i) {
      const auto prefix = covered[rng.below(covered.size())];
      const auto& who = ixp.participants[rng.below(ixp.participants.size())];
      bgp::Route r;
      r.prefix = prefix;
      r.attrs.as_path = net::AsPath{who.asn};
      r.attrs.local_pref = 150 + static_cast<std::uint32_t>(i % 50);
      r.attrs.next_hop = who.is_remote() ? net::Ipv4Address{}
                                         : who.primary_port().router_ip;
      r.learned_from = who.id;
      r.peer_router_id = net::Ipv4Address(1);
      ixp.server.announce(std::move(r));
      return prefix;
    };

    // --- per-update: one batch of one per update -------------------------
    std::vector<double> times_ms;
    times_ms.reserve(static_cast<std::size_t>(kUpdates));
    for (int i = 0; i < kUpdates; ++i) {
      const auto prefix = announce_update(i);
      auto result = engine.fast_update_batch({prefix}, vnh);
      fast_seconds.observe(result.seconds);
      fast_rules.inc(result.additional_rules);
      times_ms.push_back(result.seconds * 1e3);
    }
    print_percentiles(participants, "per-update", std::move(times_ms));
    engine.full_recompile(vnh);

    // --- batched: flushes of kBatch, amortized per-update latency ---------
    times_ms.clear();
    for (int i = 0; i < kUpdates; i += static_cast<int>(kBatch)) {
      std::vector<net::Ipv4Prefix> burst;
      for (std::size_t k = 0; k < kBatch; ++k) {
        burst.push_back(announce_update(i + static_cast<int>(k)));
      }
      auto batch = engine.fast_update_batch(burst, vnh);
      fast_rules.inc(batch.additional_rules);
      const double amortized_ms =
          batch.items.empty()
              ? 0.0
              : batch.seconds * 1e3 / static_cast<double>(batch.items.size());
      for (std::size_t k = 0; k < batch.items.size(); ++k) {
        fast_seconds.observe(amortized_ms / 1e3);
        times_ms.push_back(amortized_ms);
      }
    }
    print_percentiles(participants, "batched", std::move(times_ms));
    engine.full_recompile(vnh);

    // --- async-recompile: batches of one racing a background compile -----
    // Copy the compiler inputs and run the full pipeline on a pool worker
    // while the control loop keeps absorbing updates through the fast path.
    // (The workload's route server has no telemetry attached, so the copy
    // is plain state.)
    auto snap_participants = ixp.participants;
    auto snap_ports = ixp.ports;
    auto snap_server = ixp.server;
    net::ThreadPool async_pool(2);
    core::VnhAllocator snap_vnh;
    core::CompiledSdx background;
    std::future<void> done = async_pool.submit([&] {
      core::SdxCompiler snap_compiler(snap_participants, snap_ports,
                                      snap_server, options);
      background = snap_compiler.compile(snap_vnh);
    });
    times_ms.clear();
    for (int i = 0; i < kUpdates; ++i) {
      const auto prefix = announce_update(i);
      auto result = engine.fast_update_batch({prefix}, vnh);
      fast_seconds.observe(result.seconds);
      fast_rules.inc(result.additional_rules);
      times_ms.push_back(result.seconds * 1e3);
    }
    done.wait();
    print_percentiles(participants, "async-recompile", std::move(times_ms));
    std::printf("# async-recompile background table: %zu rules\n",
                background.fabric.rules().size());
    engine.full_recompile(vnh);
  }
  // Fast-path latency histogram and rule counters across all updates, in
  // comment-prefixed Prometheus form.
  bench::emit_metrics_snapshot(telemetry.metrics.render_prometheus());
  return 0;
}
