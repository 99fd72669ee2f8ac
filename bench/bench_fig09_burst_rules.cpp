/// Figure 9 — number of additional forwarding rules installed by the fast
/// path as a function of BGP update burst size, for 100/200/300
/// participants.
///
/// Worst-case scenario as in the paper: every update in the burst changes
/// the best path of a distinct policy-covered prefix, so each one gets a
/// fresh VNH and its own restricted recompilation. Paper result: additional
/// rules grow linearly with burst size, steeper with more participants
/// (~2.5k rules for a 100-update burst at 300 participants).
///
/// The `mode` column contrasts two ways of feeding the one fast stage,
/// fast_update_batch, the *same* burst: `per-update` (each update its own
/// batch of one — one restricted compilation per update, the paper's
/// Figure 9 setting) and `batched` (the whole burst as one batch, whose
/// mini-FEC shares bindings across equal-signature prefixes and
/// de-duplicates the installed rules).

#include <algorithm>

#include "bench_common.hpp"
#include "netbase/rng.hpp"
#include "sdx/incremental.hpp"

int main() {
  using namespace sdx;
  const bool smoke = bench::smoke();
  std::printf("# Figure 9 — additional (fast-path) rules vs burst size\n");
  std::printf("participants,burst_size,mode,additional_rules\n");
  core::CompileOptions options;
  options.threads = bench::bench_threads();
  const std::size_t prefixes = smoke ? 2000 : 25000;
  const auto participant_counts =
      smoke ? std::vector<std::size_t>{20}
            : std::vector<std::size_t>{100, 200, 300};
  const auto bursts = smoke
                          ? std::vector<std::size_t>{10, 50}
                          : std::vector<std::size_t>{10, 20, 30, 40, 50,
                                                     60, 70, 80, 90, 100};
  const int kTrials = smoke ? 1 : 3;
  for (std::size_t participants : participant_counts) {
    auto ixp = bench::make_workload(participants, prefixes, prefixes);
    core::SdxCompiler compiler(ixp.participants, ixp.ports, ixp.server,
                               options);
    core::IncrementalEngine engine(compiler);
    core::VnhAllocator vnh;
    engine.full_recompile(vnh);

    // Policy-covered prefixes (the grouped ones) — updating one of these
    // is the worst case, forcing a new VNH.
    std::vector<net::Ipv4Prefix> covered;
    for (const auto& [prefix, _] : engine.current().fecs.group_of) {
      covered.push_back(prefix);
    }
    std::sort(covered.begin(), covered.end());
    net::SplitMix64 rng(9 + participants);

    for (std::size_t burst : bursts) {
      std::size_t per_update = 0;
      std::size_t batched = 0;
      for (int trial = 0; trial < kTrials; ++trial) {
        // One burst of best-path changes, applied to the RIB up front so
        // both modes recompile the identical post-burst state.
        std::vector<net::Ipv4Prefix> updated;
        updated.reserve(burst);
        for (std::size_t i = 0; i < burst; ++i) {
          const auto prefix = covered[rng.below(covered.size())];
          const auto& who =
              ixp.participants[rng.below(ixp.participants.size())];
          bgp::Route r;
          r.prefix = prefix;
          r.attrs.as_path = net::AsPath{who.asn};
          r.attrs.local_pref = 200;
          r.attrs.next_hop = who.is_remote()
                                 ? net::Ipv4Address{}
                                 : who.primary_port().router_ip;
          r.learned_from = who.id;
          r.peer_router_id = net::Ipv4Address(1);
          ixp.server.announce(std::move(r));
          updated.push_back(prefix);
        }
        for (auto prefix : updated) {
          per_update +=
              engine.fast_update_batch({prefix}, vnh).additional_rules;
        }
        // Background pass between bursts (the paper's two-stage design) —
        // also the reset that lets the batched mode replay the same burst.
        engine.full_recompile(vnh);
        batched += engine.fast_update_batch(updated, vnh).additional_rules;
        engine.full_recompile(vnh);
      }
      std::printf("%zu,%zu,per-update,%zu\n", participants, burst,
                  per_update / static_cast<std::size_t>(kTrials));
      std::printf("%zu,%zu,batched,%zu\n", participants, burst,
                  batched / static_cast<std::size_t>(kTrials));
      std::fflush(stdout);
    }
  }
  return 0;
}
