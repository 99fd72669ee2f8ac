/// Micro-benchmarks (google-benchmark) for the policy-compiler primitives
/// the SDX pipeline is built from: predicate compilation (including the
/// linear-size BGP prefix-list path), parallel/sequential classifier
/// composition, pull-back, flow-table lookup (including a single call
/// against a burst of one), border-router FIB re-advertisement and
/// forwarding over one shared FIB index, and the route server's
/// per-receiver decision (announce/withdraw diffs and the fast path's
/// default vector).

#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "bgp/route_server.hpp"
#include "dataplane/border_router.hpp"
#include "dataplane/flow_table.hpp"
#include "netbase/rng.hpp"
#include "policy/compile.hpp"
#include "sdx/compiler.hpp"

namespace {

using namespace sdx;
using policy::Classifier;
using policy::Policy;
using policy::Predicate;

Policy app_peering_policy() {
  return (policy::match(net::Field::kDstPort, 80) >> policy::fwd(10)) +
         (policy::match(net::Field::kDstPort, 443) >> policy::fwd(11));
}

std::vector<net::Ipv4Prefix> prefix_list(std::size_t n) {
  std::vector<net::Ipv4Prefix> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(net::Ipv4Prefix(
        net::Ipv4Address(0x0A000000u + (static_cast<std::uint32_t>(i) << 8)),
        24));
  }
  return out;
}

void BM_CompileAppPeeringPolicy(benchmark::State& state) {
  Policy p = app_peering_policy();
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::compile(p));
  }
}
BENCHMARK(BM_CompileAppPeeringPolicy);

void BM_CompileBgpPrefixFilter(benchmark::State& state) {
  auto prefixes = prefix_list(static_cast<std::size_t>(state.range(0)));
  Policy p = policy::match(Predicate::any_of(net::Field::kDstIp, prefixes)) >>
             policy::fwd(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::compile(p));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CompileBgpPrefixFilter)->Range(16, 4096)->Complexity();

void BM_ParCompose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = policy::compile(policy::match(
      Predicate::any_of(net::Field::kDstIp, prefix_list(n))) >>
      policy::fwd(1));
  auto b = policy::compile(policy::match(net::Field::kDstPort, 80) >>
                           policy::fwd(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::par_compose(a, b));
  }
}
BENCHMARK(BM_ParCompose)->Range(16, 1024);

void BM_SeqCompose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = policy::compile(policy::match(
      Predicate::any_of(net::Field::kDstIp, prefix_list(n))) >>
      policy::fwd(1));
  auto b = policy::compile(
      (policy::match(net::Field::kPort, 1) >>
       policy::modify(net::Field::kDstMac, std::uint64_t{42}) >>
       policy::fwd(7)) +
      policy::drop());
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::seq_compose(a, b));
  }
}
BENCHMARK(BM_SeqCompose)->Range(16, 1024);

void BM_PullBack(benchmark::State& state) {
  auto through = policy::compile(
      (policy::match(net::Field::kPort, 9) >> policy::fwd(3)) +
      (policy::match(net::Field::kDstPort, 80) >> policy::fwd(4)));
  net::FlowMatch domain = net::FlowMatch::on(net::Field::kPort, 1);
  policy::ActionSeq act = policy::ActionSeq::set(net::Field::kPort, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::pull_back(domain, act, through));
  }
}
BENCHMARK(BM_PullBack);

/// The iSDX default geometry, as the runtime would wire it.
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

/// n FIB-style /24 dst-IP prefix rules (all land in one tuple).
void fill_prefix_rules(dp::FlowTable& table, std::size_t n) {
  auto prefixes = prefix_list(n);
  for (std::size_t i = 0; i < n; ++i) {
    dp::FlowRule r;
    r.priority = static_cast<std::uint32_t>(n - i);
    r.match = net::FlowMatch::on_prefix(net::Field::kDstIp, prefixes[i]);
    r.actions = {policy::ActionSeq::set(net::Field::kPort, 2)};
    table.install(std::move(r));
  }
}

/// n compiled-stage-1-shaped VMAC rules: mostly exact per-group defaults,
/// plus masked attribute-bit clause rules — the population the exact-match
/// fast lane is built for.
void fill_vmac_rules(dp::FlowTable& table, std::size_t n) {
  const auto spec = vmac_spec();
  for (std::size_t i = 0; i < n; ++i) {
    dp::FlowRule r;
    r.priority = static_cast<std::uint32_t>(1000 + (n - i));
    if (i % 8 == 7) {  // one masked clause rule per 8 group defaults
      const std::uint64_t bit = 1ull << (spec.attr_shift() + i % 8);
      r.match.set(net::Field::kDstMac,
                  net::FieldMatch::masked(spec.top_value | bit,
                                          spec.top_mask | bit));
    } else {
      r.match = net::FlowMatch::on(net::Field::kDstMac,
                                   spec.top_value | (i & 0xFFFFF));
    }
    r.actions = {policy::ActionSeq::set(net::Field::kPort, 2)};
    table.install(std::move(r));
  }
}

void lookup_loop(benchmark::State& state, const dp::FlowTable& table,
                 const net::PacketHeader& packet) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(packet));
  }
  state.SetComplexityN(state.range(0));
}

/// The reference scan (dp::reference_lookup over rules(), taken once per
/// table) as the linear baseline.
void reference_loop(benchmark::State& state, const dp::FlowTable& table,
                    const net::PacketHeader& packet) {
  const auto ordered = table.rules();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::reference_lookup(ordered, packet));
  }
  state.SetComplexityN(state.range(0));
}

/// Linear vs classified over the same tables: the crossover (and the ≥10×
/// gap at 4096 VMAC-tagged rules) shows up in one table with Complexity().
void BM_FlowTableLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dp::FlowTable table;
  fill_prefix_rules(table, n);
  net::SplitMix64 rng(5);
  auto packet = net::PacketBuilder()
                    .dst_ip(net::Ipv4Address(
                        0x0A000000u + (static_cast<std::uint32_t>(
                                           rng.below(n)) << 8)))
                    .build();
  reference_loop(state, table, packet);
}
BENCHMARK(BM_FlowTableLookup)->Range(64, 4096)->Complexity();

void BM_FlowTableLookupClassified(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dp::FlowTable table;
  fill_prefix_rules(table, n);
  net::SplitMix64 rng(5);
  auto packet = net::PacketBuilder()
                    .dst_ip(net::Ipv4Address(
                        0x0A000000u + (static_cast<std::uint32_t>(
                                           rng.below(n)) << 8)))
                    .build();
  lookup_loop(state, table, packet);
}
BENCHMARK(BM_FlowTableLookupClassified)->Range(64, 4096)->Complexity();

void BM_FlowTableLookupVmacLinear(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dp::FlowTable table;
  table.set_vmac_lanes(vmac_spec());
  fill_vmac_rules(table, n);
  net::SplitMix64 rng(5);
  std::uint64_t group = rng.below(n);
  if (group % 8 == 7) --group;  // land on an installed per-group default
  auto packet =
      net::PacketBuilder()
          .dst_mac(net::MacAddress(vmac_spec().top_value | group))
          .build();
  reference_loop(state, table, packet);
}
BENCHMARK(BM_FlowTableLookupVmacLinear)->Range(64, 4096)->Complexity();

void BM_FlowTableLookupVmacClassified(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dp::FlowTable table;
  table.set_vmac_lanes(vmac_spec());
  fill_vmac_rules(table, n);
  net::SplitMix64 rng(5);
  std::uint64_t group = rng.below(n);
  if (group % 8 == 7) --group;  // land on an installed per-group default
  auto packet =
      net::PacketBuilder()
          .dst_mac(net::MacAddress(vmac_spec().top_value | group))
          .build();
  lookup_loop(state, table, packet);
}
BENCHMARK(BM_FlowTableLookupVmacClassified)->Range(64, 4096)->Complexity();

/// A single lookup()/process() call against a burst of one through
/// lookup_batch()/process_batch(), on the 4096-rule prefix (`vmac:0`) and
/// VMAC (`vmac:1`) tables, rotating over 1024 packets that each hit an
/// installed rule. `call`: 0 lookup, 1 lookup_batch, 2 process,
/// 3 process_batch. Prices keeping the per-packet path beside the burst
/// path.
void BM_SingleVsBurstOfOne(benchmark::State& state) {
  constexpr std::size_t kRules = 4096;
  const bool vmac = state.range(0) == 1;
  dp::FlowTable table;
  if (vmac) {
    table.set_vmac_lanes(vmac_spec());
    fill_vmac_rules(table, kRules);
  } else {
    fill_prefix_rules(table, kRules);
  }
  net::SplitMix64 rng(5);
  std::vector<net::PacketHeader> packets;
  for (int i = 0; i < 1024; ++i) {
    std::uint64_t n = rng.below(kRules);
    if (vmac) {
      if (n % 8 == 7) --n;  // land on an installed per-group default
      packets.push_back(
          net::PacketBuilder()
              .dst_mac(net::MacAddress(vmac_spec().top_value | n))
              .build());
    } else {
      packets.push_back(
          net::PacketBuilder()
              .dst_ip(net::Ipv4Address(0x0A000000u +
                                       (static_cast<std::uint32_t>(n) << 8)))
              .build());
    }
  }
  std::size_t next = 0;
  const auto one = [&] {
    return std::span<const net::PacketHeader>(&packets[next++ & 1023], 1);
  };
  const dp::FlowRule* hit[1];
  switch (state.range(1)) {
    case 0:
      for (auto _ : state) benchmark::DoNotOptimize(table.lookup(one()[0]));
      break;
    case 1:
      for (auto _ : state) {
        table.lookup_batch(one(), hit);
        benchmark::DoNotOptimize(hit[0]);
      }
      break;
    case 2:
      for (auto _ : state) benchmark::DoNotOptimize(table.process(one()[0]));
      break;
    default:
      for (auto _ : state) benchmark::DoNotOptimize(table.process_batch(one()));
      break;
  }
}
BENCHMARK(BM_SingleVsBurstOfOne)
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3}})
    ->ArgNames({"vmac", "call"});

constexpr std::size_t kRouters = 100;
constexpr std::size_t kRouterPrefixes = 5000;

/// 100 border routers over one shared FIB index, as an SdxRuntime builds
/// them, each holding kRouterPrefixes /24 routes via \p next_hop.
std::vector<dp::BorderRouter> shared_fib_routers(
    const std::shared_ptr<bgp::FibIndex>& fib,
    const std::vector<net::Ipv4Prefix>& prefixes, net::Ipv4Address next_hop) {
  std::vector<dp::BorderRouter> routers;
  routers.reserve(kRouters);
  for (std::size_t i = 0; i < kRouters; ++i) {
    const auto id = static_cast<std::uint32_t>(i + 1);
    routers.emplace_back(65000 + id, id, net::MacAddress(id),
                         net::Ipv4Address(0xAC100000u + id), fib);
  }
  bgp::UpdateMessage msg;
  msg.attrs.emplace();
  msg.attrs->as_path = net::AsPath{65001, 65100, 65200};
  msg.attrs->communities = {bgp::make_community(65001, 100)};
  msg.attrs->next_hop = next_hop;
  msg.nlri = prefixes;
  for (auto& r : routers) r.process_update(msg);
  return routers;
}

/// The route server's re-advertisement fan-out (paper §4.2): every
/// fast-path update gives a prefix a fresh VNH and re-announces it to every
/// participant's border router. As in SdxRuntime::readvertise, the prefix's
/// slot in the shared index is resolved once and one attribute set is
/// written into every router's column. One iteration re-announces one
/// prefix, drawn at random, with a new next hop to all 100 routers.
void BM_RouterFibReadvertise(benchmark::State& state) {
  const auto prefixes = prefix_list(kRouterPrefixes);
  auto fib = std::make_shared<bgp::FibIndex>();
  auto routers =
      shared_fib_routers(fib, prefixes, net::Ipv4Address(0xAC100001u));
  bgp::RouteAttributes attrs;
  attrs.as_path = net::AsPath{65001, 65100, 65200};
  attrs.communities = {bgp::make_community(65001, 100)};

  net::SplitMix64 rng(7);
  std::uint32_t vnh = 0xAC110000u;
  for (auto _ : state) {
    attrs.next_hop = net::Ipv4Address(++vnh);
    const bgp::AttrHandle h = fib->attrs().make(attrs);
    const bgp::FibIndex::Slot slot =
        fib->acquire(prefixes[rng.below(kRouterPrefixes)]);
    for (auto& r : routers) {
      r.announce_at(slot, h);
      benchmark::DoNotOptimize(&r);
    }
    fib->release(slot);
    fib->attrs().release(h);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRouters));
}
BENCHMARK(BM_RouterFibReadvertise);

/// 1024 packets to random hosts of \p prefixes.
std::vector<net::PacketHeader> router_packets(
    const std::vector<net::Ipv4Prefix>& prefixes) {
  net::SplitMix64 rng(11);
  std::vector<net::PacketHeader> packets;
  for (std::size_t n = 0; n < 1024; ++n) {
    const auto& p = prefixes[rng.below(kRouterPrefixes)];
    packets.push_back(net::PacketBuilder()
                          .dst_ip(net::Ipv4Address(p.network().value() |
                                                   rng.below(256)))
                          .build());
  }
  return packets;
}

/// A member router's per-packet cost on the fabric's send path, one packet
/// at a time: forward() takes the longest-prefix match in the router's
/// column of the shared index, ARPs for the next hop and frames the
/// packet. The sender rotates over the same 100 routers as
/// BM_RouterFibReadvertise after every packet, so no two consecutive
/// packets share a column (perfbench sends 64-packet bursts per sender;
/// see BM_RouterForwardBurst).
void BM_RouterForward(benchmark::State& state) {
  const auto prefixes = prefix_list(kRouterPrefixes);
  const net::Ipv4Address next_hop(0xAC100001u);
  auto fib = std::make_shared<bgp::FibIndex>();
  const auto routers = shared_fib_routers(fib, prefixes, next_hop);
  dp::ArpResponder arp;
  arp.bind(next_hop, net::MacAddress(0x02'00'00'00'00'01ull));
  const auto packets = router_packets(prefixes);
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& router = routers[next % kRouters];
    benchmark::DoNotOptimize(router.forward(packets[next & 1023], arp));
    ++next;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterForward);

/// The same routers and packets as BM_RouterForward, framed as
/// Fabric::send_batch frames them: 64-packet bursts through the burst
/// forward(), whose FIB walk advances all of a burst's packets one trie
/// level at a time. The sender rotates per burst, as perfbench rotates
/// senders; items are packets, so the figure reads against
/// BM_RouterForward's.
void BM_RouterForwardBurst(benchmark::State& state) {
  constexpr std::size_t kBurst = 64;
  const auto prefixes = prefix_list(kRouterPrefixes);
  const net::Ipv4Address next_hop(0xAC100001u);
  auto fib = std::make_shared<bgp::FibIndex>();
  const auto routers = shared_fib_routers(fib, prefixes, next_hop);
  dp::ArpResponder arp;
  arp.bind(next_hop, net::MacAddress(0x02'00'00'00'00'01ull));
  const auto packets = router_packets(prefixes);
  std::vector<net::PacketHeader> frames;
  std::vector<std::uint32_t> origin;
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& router = routers[next % kRouters];
    const auto burst =
        std::span(packets).subspan((next * kBurst) & 1023, kBurst);
    frames.clear();
    origin.clear();
    router.forward(burst, arp, frames, origin);
    benchmark::DoNotOptimize(frames.data());
    ++next;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_RouterForwardBurst);

constexpr std::size_t kAdvertisers = 3;

/// A route server with kRouters peers where every one of kRouterPrefixes
/// /24s has kAdvertisers candidates of different path lengths, as in a
/// large exchange's RIB.
bgp::Route server_route(net::Ipv4Prefix prefix, bgp::ParticipantId from,
                        std::size_t extra_hops) {
  std::vector<net::Asn> hops{65000 + from};
  for (std::size_t k = 0; k < extra_hops; ++k) {
    hops.push_back(static_cast<net::Asn>(64000 + k));
  }
  bgp::Route r;
  r.prefix = prefix;
  r.attrs.as_path = net::AsPath(std::move(hops));
  r.attrs.communities = {bgp::make_community(65001, 100)};
  r.attrs.next_hop = net::Ipv4Address(0xAC100000u + from);
  r.learned_from = from;
  r.peer_router_id = r.attrs.next_hop;
  return r;
}

bgp::ParticipantId advertiser_of(std::size_t prefix, std::size_t k) {
  return static_cast<bgp::ParticipantId>(1 + (prefix * 7 + k * 31) % kRouters);
}

bgp::RouteServer populated_server(
    const std::vector<net::Ipv4Prefix>& prefixes) {
  bgp::RouteServer server;
  for (std::size_t i = 0; i < kRouters; ++i) {
    const auto id = static_cast<bgp::ParticipantId>(i + 1);
    server.add_peer({id, 65000 + id, net::Ipv4Address(0xAC100000u + id)});
  }
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    for (std::size_t k = 0; k < kAdvertisers; ++k) {
      server.announce(server_route(prefixes[i], advertiser_of(i, k), k));
    }
  }
  return server;
}

/// The route server's decision for one update (paper §4.3): an advertiser
/// re-announces a random prefix with a fresh AS path and a higher
/// local-pref (it becomes every other peer's best), then withdraws it
/// (every other peer falls back). Each step diffs every peer's best before
/// and after, so each reports ~99 best changes. Items are updates.
void BM_RouteServerAnnounce(benchmark::State& state) {
  const auto prefixes = prefix_list(kRouterPrefixes);
  auto server = populated_server(prefixes);
  net::SplitMix64 rng(13);
  std::size_t changes = 0;
  for (auto _ : state) {
    const std::size_t i = rng.below(kRouterPrefixes);
    const auto from = advertiser_of(i, kAdvertisers - 1);
    auto route = server_route(prefixes[i], from, 0);
    route.attrs.as_path = net::AsPath{
        65000 + from, static_cast<net::Asn>(rng.range(100, 60000))};
    route.attrs.local_pref = 200;
    changes += server.announce(std::move(route)).size();
    changes += server.withdraw(from, prefixes[i]).size();
  }
  benchmark::DoNotOptimize(changes);
  state.counters["changes_per_update"] = benchmark::Counter(
      static_cast<double>(changes) / (2.0 * state.iterations()));
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_RouteServerAnnounce);

/// The fast path's default vector (SdxCompiler::defaults_for): every
/// participant's best advertiser for one random prefix of the same RIB.
void BM_DefaultsFor(benchmark::State& state) {
  const auto prefixes = prefix_list(kRouterPrefixes);
  const auto server = populated_server(prefixes);
  std::vector<core::Participant> participants(kRouters);
  core::PortMap ports;
  for (std::size_t i = 0; i < kRouters; ++i) {
    participants[i].id = static_cast<bgp::ParticipantId>(i + 1);
    participants[i].asn = 65000 + participants[i].id;
    ports.register_participant(participants[i].id, {});
  }
  const core::SdxCompiler compiler(participants, ports, server);
  net::SplitMix64 rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compiler.defaults_for(prefixes[rng.below(kRouterPrefixes)]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DefaultsFor);

}  // namespace

BENCHMARK_MAIN();
