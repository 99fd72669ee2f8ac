/// Packet-throughput benchmark for the data-plane classification pipeline:
/// millions of lookups per second (Mpps) over rule-count × traffic-mix
/// sweeps, classified vs the linear reference scan over identical tables.
///
/// The installed population mirrors what the compiler actually emits
/// (see ARCHITECTURE.md "Data-plane classification"): exact per-group VMAC
/// defaults, masked attribute-bit clause rules with a dst-port leg, and
/// /24 dst-IP prefix rules. Traffic mixes steer packets at each lane:
///
///   vmac    — VMAC-tagged packets hitting the exact-match fast lane;
///   clause  — tagged packets with the policy attribute bit set and
///             dst_port 80, hitting the attribute-bit lane;
///   prefix  — untagged packets hitting the prefix tuple (trie-pruned);
///   miss    — untagged packets matching nothing (full pruning path);
///   mixed   — the four above round-robin;
///   traffic — a 32-flow generated mix with linear-decay rank skew: the
///             same flow headers recur across the stream, so consecutive
///             bursts carry the duplicate structure real inter-domain
///             traffic has (the batch dedup/memo path's home turf).
///
/// Next to that synthetic population, two tables the compiler itself
/// emits — ixp::generate_ixp + ixp::synthesize_policies, compiled pairwise
/// and partitioned and installed under the runtime's VMAC lane spec — are
/// priced with the packets that reach the switch from the members' border
/// routers (mixes `compiled_pairwise` and `compiled_partitioned`). These
/// carry the shapes an end-to-end run pays for: in a pairwise table nearly
/// every rule pins an exact VMAC next to an in-port, protocol or port.
/// Each compiled table's lane populations and MAC bucket lengths are
/// printed as a `#` comment line before its rows.
///
/// Miss packets use the reserved top octet 0x0C — unicast and globally
/// administered, so no VMAC encoding (top octet 0x02, locally
/// administered) or future lane spec can alias it and the miss-rate
/// columns stay exact by construction.
///
/// Modes: `classified` times single-threaded lookup() and `linear` the
/// reference scan (dp::reference_lookup over the table's rules());
/// `batch<B>` (B in {8, 64, 1024}) times lookup_batch() over consecutive
/// B-packet windows of the same stream; `mt` runs the classified table
/// through process() from N concurrent threads and `mtbatch` through
/// process_batch() in 64-packet bursts — the thread-safe counter paths
/// (Σ matched+missed and Σ per-rule packet_count must equal the offered
/// load; the bench asserts it). The linear reference is skipped at rule
/// counts ≥ 100k, where a full scan per packet is pointlessly slow.
///
/// Lookup counts are FIXED per phase (not timed loops), so the counter
/// series in the metrics snapshot are byte-stable run to run and the CI
/// bench-regression job gates them with --require-equal-counters. Besides
/// lookups and matches, each phase sums its winning rules' priorities: a
/// compiled table ends in a catch-all, so every lookup matches, and the
/// sum is what tells which rule won. Timing (mpps, ns_per_lookup) is
/// reported in the CSV only.
///
/// CSV: mix,rules,mode,threads,lookups,matched,seconds,mpps,ns_per_lookup

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dataplane/flow_table.hpp"
#include "sdx/compiler.hpp"
#include "netbase/rng.hpp"
#include "policy/compile.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace sdx;

/// The iSDX default VMAC geometry, as the runtime wires it.
dp::VmacLaneSpec vmac_spec() {
  dp::VmacLaneSpec s;
  s.enabled = true;
  s.top_value = 0x02ull << 40;
  s.top_mask = 0xFFull << 40;
  s.group_bits = 20;
  s.nexthop_bits = 12;
  s.attr_bits = 8;
  return s;
}

/// Compiled-table-shaped population: per 8 rules, five exact per-group
/// VMAC defaults, one masked attribute-bit clause rule (with a dst-port
/// leg, higher priority — outbound policy beats the default), and two /24
/// dst-IP prefix rules. No catch-all, so the miss mix truly misses.
void fill_rules(dp::FlowTable& table, std::size_t n) {
  const auto spec = vmac_spec();
  for (std::size_t i = 0; i < n; ++i) {
    dp::FlowRule r;
    if (i % 8 == 5) {
      const std::uint64_t bit =
          1ull << (spec.attr_shift() + (i / 8) % spec.attr_bits);
      r.priority = static_cast<std::uint32_t>(2000 + (n - i));
      r.match.set(net::Field::kDstMac,
                  net::FieldMatch::masked(spec.top_value | bit,
                                          spec.top_mask | bit));
      r.match.set(net::Field::kDstPort, net::FieldMatch::exact(80));
    } else if (i % 4 == 3) {
      r.priority = static_cast<std::uint32_t>(500 + (n - i));
      r.match = net::FlowMatch::on_prefix(
          net::Field::kDstIp,
          net::Ipv4Prefix(
              net::Ipv4Address(0x0A000000u |
                               (static_cast<std::uint32_t>(i) << 8)),
              24));
    } else {
      r.priority = static_cast<std::uint32_t>(1000 + (n - i));
      r.match = net::FlowMatch::on(net::Field::kDstMac,
                                   spec.top_value | (i & 0xFFFFF));
    }
    r.actions = {policy::ActionSeq::set(net::Field::kPort, 2)};
    table.install(std::move(r));
  }
}

/// One lane-targeted packet, drawn over the installed rule indices.
net::PacketHeader make_packet(const char* kind, net::SplitMix64& rng,
                              std::size_t n, std::size_t k) {
  const auto spec = vmac_spec();
  if (std::string_view(kind) == "vmac") {
    std::uint64_t i = rng.below(n);
    while (i % 8 == 5 || i % 4 == 3) i = (i + 1) % n;  // land on a default
    return net::PacketBuilder()
        .dst_mac(net::MacAddress(spec.top_value | (i & 0xFFFFF)))
        .build();
  }
  if (std::string_view(kind) == "clause") {
    const std::uint64_t i = 5 + 8 * rng.below(n / 8);
    const std::uint64_t bit =
        1ull << (spec.attr_shift() + (i / 8) % spec.attr_bits);
    return net::PacketBuilder()
        .dst_mac(
            net::MacAddress(spec.top_value | bit | rng.below(1u << 10)))
        .dst_port(80)
        .build();
  }
  if (std::string_view(kind) == "prefix") {
    const std::uint64_t i = 3 + 4 * rng.below(n / 4);
    return net::PacketBuilder()
        .dst_ip(net::Ipv4Address(0x0A000000u |
                                 (static_cast<std::uint32_t>(i) << 8) |
                                 static_cast<std::uint32_t>(rng.below(256))))
        .build();
  }
  // miss: reserved top octet 0x0C (unicast, globally administered — can
  // never alias the locally-administered VMAC space), dst IP outside
  // every installed /24.
  return net::PacketBuilder()
      .dst_mac(net::MacAddress(0x0Cull << 40 | k))
      .dst_ip(
          net::Ipv4Address(0xC0A80000u | static_cast<std::uint32_t>(k)))
      .build();
}

/// 256 packets per mix, drawn over the installed rule indices with a
/// fixed seed — the same packet stream every run. The `traffic` mix
/// replays 32 generated flow headers with linear-decay rank skew, so the
/// stream contains exact duplicates the way a real port's burst does.
std::vector<net::PacketHeader> make_packets(const std::string& mix,
                                            std::size_t n) {
  net::SplitMix64 rng(0x5D2Full ^ n);
  std::vector<net::PacketHeader> out;
  out.reserve(256);
  if (mix == "traffic") {
    constexpr std::size_t kFlows = 32;
    static const char* kFlowKind[5] = {"vmac", "vmac", "clause", "prefix",
                                       "miss"};
    std::vector<net::PacketHeader> flows;
    flows.reserve(kFlows);
    for (std::size_t f = 0; f < kFlows; ++f) {
      flows.push_back(make_packet(kFlowKind[f % 5], rng, n, f));
    }
    // Linear-decay rank sampling: flow r carries weight (kFlows - r), so
    // a handful of heavy flows dominate — the same skew the scenario
    // `traffic` command and TrafficMonitor assume. Each draw emits a
    // short train of 1–4 back-to-back packets of the sampled flow, the
    // way TCP windows arrive on a real port.
    const std::uint64_t total = kFlows * (kFlows + 1) / 2;
    while (out.size() < 256) {
      std::uint64_t t = rng.below(total);
      std::size_t r = 0;
      while (t >= kFlows - r) t -= kFlows - r, ++r;
      const std::size_t train = 1 + rng.below(4);
      for (std::size_t p = 0; p < train && out.size() < 256; ++p) {
        out.push_back(flows[r]);
      }
    }
    return out;
  }
  for (std::size_t k = 0; k < 256; ++k) {
    static const char* kRoundRobin[4] = {"vmac", "clause", "prefix", "miss"};
    const char* kind = mix == "mixed" ? kRoundRobin[k % 4] : mix.c_str();
    out.push_back(make_packet(kind, rng, n, k));
  }
  return out;
}

struct PhaseResult {
  std::size_t lookups = 0;
  std::uint64_t matched = 0;
  std::uint64_t priorities = 0;  ///< Σ of the winning rules' priorities
  double seconds = 0.0;
};

/// Single-threaded loop of one lookup function (FlowTable::lookup or the
/// reference scan), fixed iteration count.
template <typename Lookup>
PhaseResult run_lookup(const Lookup& lookup,
                       const std::vector<net::PacketHeader>& pkts,
                       std::size_t lookups) {
  PhaseResult res;
  res.lookups = lookups;
  bench::Stopwatch sw;
  for (std::size_t i = 0; i < lookups; ++i) {
    const dp::FlowRule* r = lookup(pkts[i & 255]);
    if (r != nullptr) {
      ++res.matched;
      res.priorities += r->priority;
    }
  }
  res.seconds = sw.seconds();
  return res;
}

/// Consecutive `burst`-sized windows of the 256-packet stream, the way a
/// switch drains its rx ring. Built once so the timed loop only calls
/// lookup_batch.
std::vector<std::vector<net::PacketHeader>> burst_windows(
    const std::vector<net::PacketHeader>& pkts, std::size_t burst) {
  std::vector<std::vector<net::PacketHeader>> windows;
  std::size_t off = 0;
  do {
    std::vector<net::PacketHeader> w(burst);
    for (std::size_t i = 0; i < burst; ++i) w[i] = pkts[(off + i) & 255];
    windows.push_back(std::move(w));
    off = (off + burst) & 255;
  } while (off != 0);
  return windows;
}

/// Single-threaded lookup_batch() loop over fixed burst windows.
PhaseResult run_lookup_batch(const dp::FlowTable& table,
                             const std::vector<net::PacketHeader>& pkts,
                             std::size_t lookups, std::size_t burst) {
  const auto windows = burst_windows(pkts, burst);
  std::vector<const dp::FlowRule*> hits(burst, nullptr);
  PhaseResult res;
  const std::size_t iters = lookups / burst;
  res.lookups = iters * burst;
  bench::Stopwatch sw;
  for (std::size_t it = 0; it < iters; ++it) {
    table.lookup_batch(windows[it % windows.size()], hits);
    for (const auto* r : hits) {
      if (r != nullptr) {
        ++res.matched;
        res.priorities += r->priority;
      }
    }
  }
  res.seconds = sw.seconds();
  return res;
}

/// The threaded phases see no rule pointers, only the table's per-rule
/// packet counters: the winners' priority sum is read back from their
/// deltas over the phase.
class WinnerPriorities {
 public:
  explicit WinnerPriorities(const dp::FlowTable& table) {
    for (const auto* r : table.rules()) before_.push_back(r->packet_count);
  }
  std::uint64_t since(const dp::FlowTable& table) const {
    std::uint64_t sum = 0;
    std::size_t i = 0;
    for (const auto* r : table.rules()) {
      sum += (r->packet_count - before_[i++]) * r->priority;
    }
    return sum;
  }

 private:
  std::vector<std::uint64_t> before_;
};

/// N threads hammering process() — the atomic-counter path. The offered
/// load is fixed in total (per_thread * threads), so the counter series
/// stay byte-stable at a pinned thread count.
PhaseResult run_process_mt(const dp::FlowTable& table,
                           const std::vector<net::PacketHeader>& pkts,
                           std::size_t lookups, unsigned threads) {
  PhaseResult res;
  const std::size_t per_thread = lookups / threads;
  res.lookups = per_thread * threads;
  const auto matched0 = table.total_matched();
  const auto missed0 = table.total_missed();
  const WinnerPriorities priorities(table);
  std::atomic<std::size_t> sink{0};  // keeps process() output observable
  bench::Stopwatch sw;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::size_t local = 0;
      for (std::size_t i = 0; i < per_thread; ++i) {
        local += table.process(pkts[(t * per_thread + i) & 255]).size();
      }
      sink.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& w : workers) w.join();
  res.seconds = sw.seconds();
  res.matched = table.total_matched() - matched0;
  res.priorities = priorities.since(table);
  const auto missed = table.total_missed() - missed0;
  if (res.matched + missed != res.lookups) {
    std::fprintf(stderr,
                 "counter mismatch: matched %llu + missed %llu != %zu\n",
                 static_cast<unsigned long long>(res.matched),
                 static_cast<unsigned long long>(missed), res.lookups);
    std::exit(1);
  }
  return res;
}

/// N threads draining 64-packet bursts through process_batch() — the
/// batched flavor of the counter path, with the same offered-load
/// reconciliation check.
PhaseResult run_process_batch_mt(const dp::FlowTable& table,
                                 const std::vector<net::PacketHeader>& pkts,
                                 std::size_t lookups, unsigned threads) {
  constexpr std::size_t kBurst = 64;
  const auto windows = burst_windows(pkts, kBurst);
  PhaseResult res;
  const std::size_t per_thread = lookups / threads / kBurst * kBurst;
  res.lookups = per_thread * threads;
  const auto matched0 = table.total_matched();
  const auto missed0 = table.total_missed();
  const WinnerPriorities priorities(table);
  std::atomic<std::size_t> sink{0};
  bench::Stopwatch sw;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::size_t local = 0;
      for (std::size_t i = 0; i < per_thread / kBurst; ++i) {
        local +=
            table.process_batch(windows[(t + i) % windows.size()]).frames.size();
      }
      sink.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& w : workers) w.join();
  res.seconds = sw.seconds();
  res.matched = table.total_matched() - matched0;
  res.priorities = priorities.since(table);
  const auto missed = table.total_missed() - missed0;
  if (res.matched + missed != res.lookups) {
    std::fprintf(stderr,
                 "batch counter mismatch: matched %llu + missed %llu != %zu\n",
                 static_cast<unsigned long long>(res.matched),
                 static_cast<unsigned long long>(missed), res.lookups);
    std::exit(1);
  }
  return res;
}

void print_row(const std::string& mix, std::size_t rules,
               const std::string& mode, unsigned threads,
               const PhaseResult& r) {
  const double mpps =
      r.seconds > 0 ? static_cast<double>(r.lookups) / r.seconds / 1e6 : 0.0;
  const double ns =
      r.lookups > 0 ? r.seconds * 1e9 / static_cast<double>(r.lookups) : 0.0;
  std::printf("%s,%zu,%s,%u,%zu,%llu,%.4f,%.2f,%.1f\n", mix.c_str(), rules,
              mode.c_str(), threads, r.lookups,
              static_cast<unsigned long long>(r.matched), r.seconds, mpps, ns);
  std::fflush(stdout);
}

/// Fixed lookup counts per phase, shared by every table.
struct Budget {
  std::size_t classified_lookups;
  std::size_t linear_lookups;
  std::size_t mt_lookups;
  unsigned threads;
};

/// Times every mode over one table and one 256-packet stream, printing a
/// CSV row and counting lookups and matches per (mix, mode). The linear
/// reference is skipped at rule counts >= 100k, where a full scan per
/// packet is pointlessly slow.
void run_modes(const dp::FlowTable& table, const std::string& mix,
               const std::vector<net::PacketHeader>& pkts,
               const Budget& budget, telemetry::MetricRegistry& metrics) {
  constexpr std::size_t kLinearCutoff = 100000;
  const std::size_t n = table.size();
  const auto record = [&](const char* mode, unsigned width,
                          const PhaseResult& r) {
    print_row(mix, n, mode, width, r);
    telemetry::Labels labels = {{"mix", mix}, {"mode", mode}};
    metrics
        .counter("sdx_packet_bench_lookups_total",
                 "lookups performed per mix and mode", labels)
        .inc(r.lookups);
    metrics
        .counter("sdx_packet_bench_matched_total",
                 "lookups that matched a rule per mix and mode", labels)
        .inc(r.matched);
    metrics
        .counter("sdx_packet_bench_winner_priority_total",
                 "sum of the winning rules' priorities per mix and mode",
                 labels)
        .inc(r.priorities);
  };

  const auto classified = [&table](const net::PacketHeader& h) {
    return table.lookup(h);
  };
  record("classified", 1,
         run_lookup(classified, pkts, budget.classified_lookups));
  constexpr std::size_t kBursts[] = {8, 64, 1024};
  for (const std::size_t b : kBursts) {
    const std::string mode = "batch" + std::to_string(b);
    record(mode.c_str(), 1,
           run_lookup_batch(table, pkts, budget.classified_lookups, b));
  }
  record("mt", budget.threads,
         run_process_mt(table, pkts, budget.mt_lookups, budget.threads));
  record("mtbatch", budget.threads,
         run_process_batch_mt(table, pkts, budget.mt_lookups,
                              budget.threads));
  if (n < kLinearCutoff) {
    const auto ordered = table.rules();
    const auto linear = [&ordered](const net::PacketHeader& h) {
      return dp::reference_lookup(ordered, h);
    };
    record("linear", 1, run_lookup(linear, pkts, budget.linear_lookups));
  }
}

/// 256 packets as they reach the switch from the members' border routers,
/// drawn with a fixed seed: a random sending member's port, a destination
/// in a random prefix that some other member advertises, the dst-MAC the
/// sender's router resolves for it (the VMAC of the prefix's binding —
/// the sender's own partition binding when partitioned — or, for a prefix
/// no policy touches, the best other advertiser's router MAC), TCP or UDP
/// equally often, and a dst-port a clause names half the time.
std::vector<net::PacketHeader> compiled_packets(
    const ixp::GeneratedIxp& ixp, const core::CompiledSdx& compiled) {
  std::vector<std::size_t> senders;
  std::vector<std::uint64_t> clause_ports;
  for (std::size_t slot = 0; slot < ixp.participants.size(); ++slot) {
    const auto& p = ixp.participants[slot];
    if (!p.is_remote()) senders.push_back(slot);
    for (const auto& c : p.outbound) {
      for (const auto& [field, value] : c.match.exact) {
        if (field == net::Field::kDstPort) clause_ports.push_back(value);
      }
    }
  }
  net::SplitMix64 rng(0x5D2Full);
  std::vector<net::PacketHeader> out;
  out.reserve(256);
  while (out.size() < 256) {
    const std::size_t slot = senders[rng.below(senders.size())];
    const auto& sender = ixp.participants[slot];
    const net::Ipv4Prefix prefix =
        ixp.prefixes[rng.below(ixp.prefixes.size())];
    const auto binding = compiled.partitioned
                             ? compiled.partition_binding_for(slot, prefix)
                             : compiled.binding_for(prefix);
    net::MacAddress dst_mac;
    if (binding) {
      dst_mac = binding->vmac;
    } else {
      const core::Participant* via = nullptr;
      if (const auto* ranked = ixp.server.candidates(prefix)) {
        for (const auto& r : *ranked) {
          const auto& p = ixp.participants[ixp.slot_of(r.learned_from)];
          if (p.id != sender.id && !p.is_remote()) {
            via = &p;
            break;
          }
        }
      }
      if (via == nullptr) continue;  // nobody else to send it to
      dst_mac = via->primary_port().router_mac;
    }
    const std::uint64_t dport =
        !clause_ports.empty() && rng.below(2) == 0
            ? clause_ports[rng.below(clause_ports.size())]
            : rng.range(1024, 65535);
    out.push_back(
        net::PacketBuilder()
            .port(sender.primary_port().id)
            .dst_mac(dst_mac)
            .src_ip(net::Ipv4Address(static_cast<std::uint32_t>(rng())))
            .dst_ip(net::Ipv4Address(
                prefix.network().value() |
                static_cast<std::uint32_t>(rng.range(1, 254))))
            .proto(rng.below(2) == 0 ? net::kProtoTcp : net::kProtoUdp)
            .src_port(rng.range(1024, 65535))
            .dst_port(dport)
            .build());
  }
  return out;
}

}  // namespace

int main() {
  const bool smoke = bench::smoke();
  const unsigned threads =
      bench::bench_threads() ? bench::bench_threads() : 4;

  // 262144 rules is the ablation-scale phase: the ungrouped table the
  // partitioned compiler avoids emitting must still build and sustain
  // classified lookups. The linear reference is skipped there (a 256k-rule
  // scan per packet proves nothing except patience).
  const std::vector<std::size_t> rule_counts =
      smoke ? std::vector<std::size_t>{256, 262144}
            : std::vector<std::size_t>{256, 1024, 4096, 262144};
  const Budget budget{smoke ? 40000u : 4000000u, smoke ? 8000u : 100000u,
                      smoke ? 40000u : 2000000u, threads};
  const std::vector<std::string> mixes = {"vmac", "clause", "prefix",
                                          "miss",  "mixed", "traffic"};

  telemetry::MetricRegistry metrics;

  std::printf(
      "# packet throughput — classification pipeline vs linear reference\n");
  std::printf("mix,rules,mode,threads,lookups,matched,seconds,mpps,ns_per_lookup\n");

  for (const std::size_t n : rule_counts) {
    dp::FlowTable table;
    table.set_vmac_lanes(vmac_spec());
    fill_rules(table, n);
    metrics
        .counter("sdx_packet_bench_rules_total",
                 "flow rules installed across bench tables")
        .inc(table.size());

    for (const auto& mix : mixes) {
      run_modes(table, mix, make_packets(mix, n), budget, metrics);
    }
  }

  // The compiler's own tables at the scale of perfbench's `traffic`
  // exchange (100 members, 5000 prefixes, a fifth of them under policy).
  // They compile in well under a second, so smoke runs them unshrunk.
  const auto ixp = bench::make_workload(100, 5000, 5000 / 5);
  for (const bool partitioned : {false, true}) {
    const std::string mix =
        partitioned ? "compiled_partitioned" : "compiled_pairwise";
    core::CompileOptions options;
    options.threads = bench::bench_threads();
    options.partitioned = partitioned;
    core::SdxCompiler compiler(ixp.participants, ixp.ports, ixp.server,
                               options);
    core::VnhAllocator vnh(net::Ipv4Prefix::parse("172.16.0.0/12"),
                           options.vmac_layout);
    const auto compiled = compiler.compile(vnh);
    dp::FlowTable table;
    table.set_vmac_lanes(options.vmac_layout.lane_spec());
    table.install_classifier(compiled.fabric, 1000, 1);
    metrics
        .counter("sdx_packet_bench_compiled_rules_total",
                 "flow rules installed per compiled table", {{"mix", mix}})
        .inc(table.size());
    const auto lanes = table.classifier().stats();
    std::printf(
        "# %s lanes: rules=%zu exact_mac=%zu mac_buckets=%zu "
        "max_mac_bucket=%zu mean_mac_bucket=%.1f nexthop=%zu attr=%zu "
        "tuple=%zu tuples=%zu\n",
        mix.c_str(), table.size(), lanes.exact_mac_rules, lanes.mac_buckets,
        lanes.max_mac_bucket,
        lanes.mac_buckets > 0 ? static_cast<double>(lanes.exact_mac_rules) /
                                    static_cast<double>(lanes.mac_buckets)
                              : 0.0,
        lanes.nexthop_lane_rules, lanes.attr_lane_rules, lanes.tuple_rules,
        lanes.tuples);
    run_modes(table, mix, compiled_packets(ixp, compiled), budget, metrics);
  }

  bench::emit_metrics_snapshot(metrics.render_prometheus());
  return 0;
}
