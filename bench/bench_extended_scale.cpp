/// Extended scale — beyond the paper's evaluation envelope: the paper
/// stops at 300 participants; AMS-IX had 639 members in 2014 and ~900
/// today. This bench pushes the full pipeline to 600 participants with a
/// full policy-prefix set and reports compilation cost, rule count and
/// fast-path latency (each update run as a batch of one through
/// fast_update_batch), demonstrating headroom for a full-size IXP.

#include <algorithm>

#include "bench_common.hpp"
#include "netbase/rng.hpp"
#include "sdx/incremental.hpp"

int main() {
  using namespace sdx;
  std::printf("# Extended scale — full pipeline beyond the paper's 300\n");
  std::printf(
      "participants,prefix_groups,final_rules,total_ms,"
      "fast_path_p50_us,fast_path_p99_us\n");
  core::CompileOptions options;
  options.threads = bench::bench_threads();
  for (std::size_t participants : {300u, 450u, 600u}) {
    auto ixp = bench::make_workload(participants, 25000, 25000);
    core::SdxCompiler compiler(ixp.participants, ixp.ports, ixp.server,
                               options);
    core::IncrementalEngine engine(compiler);
    core::VnhAllocator vnh;
    bench::Stopwatch watch;
    engine.full_recompile(vnh);
    const double total_ms = watch.seconds() * 1e3;
    const auto& stats = engine.current().stats;

    std::vector<net::Ipv4Prefix> covered;
    for (const auto& [prefix, _] : engine.current().fecs.group_of) {
      covered.push_back(prefix);
    }
    std::sort(covered.begin(), covered.end());
    net::SplitMix64 rng(600 + participants);
    std::vector<double> fast_us;
    for (int i = 0; i < 200; ++i) {
      const auto prefix = covered[rng.below(covered.size())];
      const auto& who = ixp.participants[rng.below(ixp.participants.size())];
      bgp::Route r;
      r.prefix = prefix;
      r.attrs.as_path = net::AsPath{who.asn};
      r.attrs.local_pref = 200;
      r.attrs.next_hop = who.primary_port().router_ip;
      r.learned_from = who.id;
      r.peer_router_id = net::Ipv4Address(1);
      ixp.server.announce(std::move(r));
      fast_us.push_back(engine.fast_update_batch({prefix}, vnh).seconds *
                        1e6);
    }
    std::sort(fast_us.begin(), fast_us.end());
    std::printf("%zu,%zu,%zu,%.1f,%.1f,%.1f\n", participants,
                stats.prefix_groups, stats.final_rules, total_ms,
                fast_us[fast_us.size() / 2],
                fast_us[fast_us.size() * 99 / 100]);
    std::fflush(stdout);
  }
  return 0;
}
